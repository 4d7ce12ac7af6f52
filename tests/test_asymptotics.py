import json
import math

import numpy as np
import pytest
from scipy.special import log_ndtr, logsumexp

from qndmix.asymptotics import (
    ExperimentPlan,
    _anderson_darling_normal,
    _log_ndtr,
    _log_collapse_ratio,
    _scalar_mle,
    consistency_experiment,
    cramer_rao_experiment,
    lamn_experiment,
    log_likelihood_ratio,
    mixture_collapse_experiment,
    mle_path,
    purification_experiment,
)
from qndmix.errors import ConstructionError, RefusalError, SingularFisherError
from qndmix import estimate
from qndmix.estimate import loglik
from qndmix.model import MixtureWeights
from qndmix.presets import toy_haroche_full, toy_haroche_guerlin
from qndmix.quantum import FilterState, filter_trajectory
from qndmix.simulate import CountVector, counts, sample_counts, sample_trajectory, substream


def small_plan(preset, **kw):
    defaults = dict(
        family=preset.family,
        q=preset.q,
        theta_star=preset.theta_star,
        h=np.ones_like(preset.theta_star),
        n_grid=(200, 500),
        n_reps=60,
        master_seed=0,
        estimation_box=preset.estimation_box,
    )
    defaults.update(kw)
    return ExperimentPlan(**defaults)


# ---------------------------------------------------------------------------
# Plan validation
# ---------------------------------------------------------------------------

def test_plan_rejects_boundary_theta(qubit):
    with pytest.raises(ConstructionError):
        small_plan(qubit, theta_star=np.array([qubit.family.box.lower[0]]))


def test_plan_rejects_shift_leaving_box(qubit):
    with pytest.raises(ConstructionError):
        small_plan(qubit, h=np.array([100.0]), n_grid=(4,))


def test_plan_rejects_mismatched_weights(qubit):
    with pytest.raises(ConstructionError):
        small_plan(qubit, q=MixtureWeights.normalized(np.ones(5)))


def test_plan_search_box_default(qubit, toy):
    assert small_plan(qubit).search_box() is qubit.family.box
    assert small_plan(toy, h=np.array([0.0])).search_box() is toy.estimation_box


# ---------------------------------------------------------------------------
# Log-likelihood ratio and collapse ratio against brute force
# ---------------------------------------------------------------------------

def test_log_likelihood_ratio_identity(bernoulli_pair, uniform2):
    c = sample_counts(bernoulli_pair, [0.5], 0, 40, 2)
    lr = log_likelihood_ratio(bernoulli_pair, uniform2, c, [0.6], [0.5])
    la = loglik(bernoulli_pair, uniform2, c, [0.6]).value
    lb = loglik(bernoulli_pair, uniform2, c, [0.5]).value
    assert lr == pytest.approx(40 * (la - lb), abs=1e-12)


def test_collapse_ratio_matches_direct(bernoulli_pair):
    """exp(ln r_n) must equal P/(q_g P_g) - 1 computed in plain arithmetic."""
    q = MixtureWeights.normalized([0.3, 0.7])
    theta = [0.5]
    table = bernoulli_pair.prob_table(theta)
    for cvec in ([3, 2], [10, 0], [0, 7]):
        cm = np.array([cvec])
        per = np.array([q.q[a] * np.prod(table[a] ** cm[0]) for a in range(2)])
        for g in range(2):
            direct = per.sum() / per[g] - 1.0
            got = math.exp(_log_collapse_ratio(bernoulli_pair, q, cm, theta, g)[0])
            assert got == pytest.approx(direct, rel=1e-10)


def test_collapse_ratio_single_component(bernoulli_pair):
    q1 = MixtureWeights(np.array([1.0]))
    from qndmix.model import ParameterBox, ParametricFamily

    fam = ParametricFamily(
        ParameterBox(np.array([0.2]), np.array([0.8])),
        probs=lambda t: np.stack([t, 1 - t], axis=-1),
    )
    out = _log_collapse_ratio(fam, q1, np.array([[2, 3]]), [0.5], 0)
    assert out[0] == -np.inf  # nothing to collapse


def test_collapse_ratio_handles_extreme_counts(bernoulli_pair, uniform2):
    """At n = 5000 the ratio underflows any direct computation but keeps full
    relative precision in the log domain."""
    cm = sample_counts(bernoulli_pair, [0.7], 0, 5_000, 8).counts[None, :]
    lr = _log_collapse_ratio(bernoulli_pair, uniform2, cm, [0.7], 0)[0]
    assert lr < -100.0 and np.isfinite(lr)


# ---------------------------------------------------------------------------
# Vectorized scalar MLE
# ---------------------------------------------------------------------------

def test_scalar_mle_batch_matches_single(qubit):
    plan = small_plan(qubit, h=np.array([0.0]))
    cm = np.stack([
        sample_counts(qubit.family, qubit.theta_star, r % 2, 800, r).counts
        for r in range(6)
    ])
    batch = _scalar_mle(plan)(cm).x
    from qndmix.estimate import mle

    for r in range(6):
        single = mle(qubit.family, qubit.q, CountVector(n=800, counts=cm[r]))
        assert batch[r] == pytest.approx(single.theta_hat[0], abs=1e-6)


# ---------------------------------------------------------------------------
# Experiment reports: structure, invariants, determinism
# ---------------------------------------------------------------------------

def test_lamn_report_structure(qubit):
    report = lamn_experiment(small_plan(qubit))
    assert report["experiment"] == "lamn"
    assert set(report["per_component"]) == {"0", "1"}
    entry = report["per_component"]["1"]["by_n"]["500"]
    assert {"mean", "var", "target_mean", "target_var"} <= set(entry)
    # Component fisher quadratic h'Ih with h=1 is the component Fisher alpha^2.
    assert report["per_component"]["1"]["fisher_quadratic"] == pytest.approx(4.0, abs=1e-8)
    json.dumps(report)  # must serialize as-is


def test_lamn_refuses_singular_fisher():
    pre = toy_haroche_guerlin()  # alpha = 0 carries no information
    plan = ExperimentPlan(
        family=pre.family, q=pre.q, theta_star=pre.theta_star,
        h=np.array([0.0]), n_grid=(50,), n_reps=4, master_seed=0,
    )
    with pytest.raises(SingularFisherError):
        lamn_experiment(plan)


def test_collapse_report(qubit):
    report = mixture_collapse_experiment(small_plan(qubit, n_grid=(200, 400, 800)))
    assert report["experiment"] == "collapse"
    for g in ("0", "1"):
        entry = report["per_component"][g]
        assert entry["min_kl"] > 0
        assert entry["fitted_rate"] > 0
        assert 0.0 <= entry["fraction_below_bound"] <= 1.0
    json.dumps(report)


def test_consistency_medians_shrink(qubit):
    report = consistency_experiment(
        small_plan(qubit, h=np.array([0.0]), n_grid=(100, 400, 1600), n_reps=150)
    )
    assert report["passed"]
    meds = [report["by_n"][str(n)]["median_abs_error"] for n in (100, 400, 1600)]
    assert meds[0] > meds[2]


def test_cramer_rao_small_run(qubit):
    report = cramer_rao_experiment(
        small_plan(qubit, h=np.array([0.0]), n_grid=(2_000,), n_reps=150)
    )
    for g in ("0", "1"):
        assert report["per_component"][g]["target_var"] == pytest.approx(
            1.0 / (int(g) + 1) ** 2, abs=1e-9
        )
        # Loose sanity band for a 150-rep run; the tight band is acceptance.
        assert 0.6 <= report["per_component"][g]["efficiency_ratio"] <= 1.6
    assert report["mixture"]["target"] == pytest.approx(0.5 * (1.0 + 0.25), abs=1e-9)


def test_boundary_hits_count_estimates_on_the_box_edge(toy, monkeypatch):
    """The reported boundary_hits equal the boundary flags of the maximize_scalar
    calls behind each entry; n = 1000 puts many alpha = 1 estimates on the edge."""
    flags = []

    def recording(*args):
        res = estimate.maximize_scalar(*args)
        flags.append(int(res.boundary.sum()))
        return res

    monkeypatch.setattr("qndmix.asymptotics.maximize_scalar", recording)
    plan = small_plan(toy, h=np.array([0.0]), n_grid=(1_000, 4_000), n_reps=40)
    cr = cramer_rao_experiment(plan)
    entries = [cr["per_component"][str(g)] for g in range(8)] + [cr["mixture"]]
    assert [e["boundary_hits"] for e in entries] == flags
    assert flags[0] > 0
    flags.clear()
    cons = consistency_experiment(plan)
    assert [cons["by_n"][n]["boundary_hits"] for n in ("1000", "4000")] == flags
    assert flags[0] > 0


def test_max_evaluations_report_the_costliest_refinement(toy, monkeypatch):
    """The reported max_evaluations equal the largest per-row evaluation count
    of the maximize_scalar calls behind each entry."""
    counts = []

    def recording(*args):
        res = estimate.maximize_scalar(*args)
        assert res.converged.all() and np.all(res.evaluations >= 1)
        counts.append(int(res.evaluations.max()))
        return res

    monkeypatch.setattr("qndmix.asymptotics.maximize_scalar", recording)
    plan = small_plan(toy, h=np.array([0.0]), n_grid=(1_000, 4_000), n_reps=40)
    cr = cramer_rao_experiment(plan)
    entries = [cr["per_component"][str(g)] for g in range(8)] + [cr["mixture"]]
    assert [e["max_evaluations"] for e in entries] == counts
    counts.clear()
    cons = consistency_experiment(plan)
    assert [cons["by_n"][n]["max_evaluations"] for n in ("1000", "4000")] == counts


def test_cramer_rao_needs_scalar_parameter():
    pre = toy_haroche_full()
    plan = ExperimentPlan(
        family=pre.family, q=pre.q, theta_star=pre.theta_star,
        h=np.zeros(6), n_grid=(100,), n_reps=4, master_seed=0,
    )
    with pytest.raises(RefusalError, match="covers D = 1 only"):
        cramer_rao_experiment(plan)
    with pytest.raises(RefusalError, match="covers D = 1 only"):
        consistency_experiment(plan)
    traj = sample_trajectory(pre.family, pre.theta_star, 0, 100, seed=0)
    with pytest.raises(RefusalError, match="covers D = 1 only"):
        mle_path(plan, traj, [50, 100])


def test_anderson_darling_pinned():
    """Statistic and 1% critical value pinned to SciPy 1.17's anderson(dist="norm")."""
    stat, crit = _anderson_darling_normal(np.sin(np.arange(1.0, 51.0)))
    assert stat == pytest.approx(1.546910023368497, rel=1e-12)
    assert crit == 1.019


def test_log_ndtr_matches_scipy():
    """The erfc-based ln Phi agrees with scipy's log_ndtr and stays finite over
    [-50, 50], which holds every standardized sample of 2000 draws.  From
    w = 38 on both are below 1e-300 in magnitude, and math.erfc may still
    return a subnormal where scipy's ndtr returns 0."""
    w = np.linspace(-50.0, 50.0, 200_001)
    got = _log_ndtr(w)
    assert np.all(np.isfinite(got))
    np.testing.assert_allclose(got, log_ndtr(w), rtol=1e-12, atol=1e-300)


def test_purification_counts_equal_filter_path(qubit):
    """Posterior from cumulative counts equals the step-by-step Bayes filter."""
    traj = sample_trajectory(qubit.family, qubit.theta_star, 1, 60, seed=4)
    states = filter_trajectory(
        qubit.family, FilterState.from_weights(qubit.q.q), qubit.theta_star, traj.outcomes
    )
    logp = qubit.family.log_prob_table(qubit.theta_star)
    for n in (1, 7, 33, 60):
        c = counts(traj, n_prefix=n, n_outcomes=2)
        terms = qubit.q.log() + logp @ c.counts
        post = np.exp(terms - logsumexp(terms))
        np.testing.assert_allclose(post, states[n].q, atol=1e-10)


def test_purification_report(qubit):
    report = purification_experiment(small_plan(qubit, n_reps=200))
    assert report["experiment"] == "purification"
    fracs = report["fraction_purified"]
    assert fracs["500"] >= fracs["200"] - 0.05  # concentration grows with n
    assert abs(sum(report["argmax_distribution"]) - 1.0) < 1e-12
    assert report["tv_distance_to_q"] < 0.2


def test_mle_path_monotone_grid(qubit):
    plan = small_plan(qubit, h=np.array([0.0]))
    traj = sample_trajectory(qubit.family, qubit.theta_star, 0, 2_000, seed=11)
    path = mle_path(plan, traj, [100, 500, 2000])
    assert [n for n, _ in path] == [100, 500, 2000]
    assert abs(path[-1][1] - qubit.theta_star[0]) < 0.1


EXPERIMENTS = [
    (lamn_experiment, {}),
    (mixture_collapse_experiment, {}),
    (consistency_experiment, {"h": np.array([0.0])}),
    (cramer_rao_experiment, {"h": np.array([0.0]), "n_grid": (500,)}),
    (purification_experiment, {}),
]


@pytest.mark.parametrize("runner,kw", EXPERIMENTS)
def test_worker_count_invariance(qubit, runner, kw):
    """Byte-identical reports across reruns (the name predates the removal of
    worker threads; the rerun identity is what it checks now)."""
    r1 = runner(small_plan(qubit, n_reps=30, **kw))
    r1b = runner(small_plan(qubit, n_reps=30, **kw))
    assert json.dumps(r1, sort_keys=True) == json.dumps(r1b, sort_keys=True)


def record_stream_keys(monkeypatch) -> list:
    """Route asymptotics' substream through a wrapper that logs each key."""
    from qndmix import asymptotics

    keys = []

    def logged(seed, *tags):
        keys.append(tags)
        return substream(seed, *tags)

    monkeypatch.setattr(asymptotics, "substream", logged)
    return keys


@pytest.mark.parametrize("runner,kw", EXPERIMENTS)
def test_one_generator_per_stream(qubit, runner, kw, monkeypatch):
    """The number of generators an experiment keys does not grow with n_reps."""
    keys = record_stream_keys(monkeypatch)
    calls = []
    for n_reps in (30, 60):
        keys.clear()
        runner(small_plan(qubit, n_reps=n_reps, **kw))
        calls.append(len(keys))
    assert calls[0] == calls[1] > 0
    assert len(set(keys)) == len(keys)


def test_experiment_streams_are_disjoint(qubit, monkeypatch):
    """Under one master seed no two experiments share a stream key, also for
    consistency grid points n = 1 and 2 (whose component draw once reused the
    Cramer-Rao and purification keys)."""
    keys = record_stream_keys(monkeypatch)
    for runner, kw in EXPERIMENTS:
        if runner is consistency_experiment:
            kw = dict(kw, n_grid=(1, 2, 200))
        runner(small_plan(qubit, n_reps=30, **kw))
    assert len(set(keys)) == len(keys)
