import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from scipy.special import log_ndtr, logsumexp

from qndmix import asymptotics as asym
from qndmix.asymptotics import (
    ExperimentPlan,
    _anderson_darling_normal,
    _log_ndtr_pair,
    _log_collapse_ratio,
    consistency_experiment,
    cramer_rao_experiment,
    lamn_experiment,
    mixture_collapse_experiment,
    mle_path,
    purification_experiment,
)
from qndmix.errors import ConstructionError, DomainError, RefusalError, SingularFisherError
from qndmix import estimate
from qndmix.model import MixtureWeights, ParameterBox, ParametricFamily, fisher_information, kl_matrix
from qndmix.presets import get_preset, toy_haroche_full, toy_haroche_guerlin
from qndmix.quantum import FilterState, filter_trajectory
from qndmix.simulate import (
    CountVector,
    Trajectory,
    counts,
    sample_count_paths,
    sample_mixture_trajectory,
    sample_trajectory,
    substream,
)

from conftest import reference_logsumexp, sample_counts, without_gates


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


@pytest.mark.parametrize("seed, message", [
    (2.5, "master_seed 2.5 is not an integer"),
    (np.nan, "master_seed nan is not an integer"),
    (None, "master_seed None is not an integer"),
    ("3", "master_seed 3 is not an integer"),
    (-1, "master_seed -1 must be at least 0"),
])
def test_plan_master_seed_must_be_a_count(qubit, seed, message):
    with pytest.raises(ConstructionError, match=f"^{message}$"):
        small_plan(qubit, master_seed=seed)


def test_plan_stores_the_master_seed_as_an_int(qubit):
    """4.0, np.int64(4) and True are stored as the Python ints 4, 4 and 1,
    and the report holds that int."""
    for seed, want in ((4.0, 4), (np.int64(4), 4), (True, 1)):
        plan = small_plan(qubit, master_seed=seed, n_reps=5)
        assert type(plan.master_seed) is int and plan.master_seed == want
        report = purification_experiment(plan)
        assert json.dumps(report["master_seed"]) == str(want)


def test_plan_rejects_theta_of_the_wrong_length(qubit):
    """A theta_star with D + 1 entries is refused as a length mismatch, not as
    a shift leaving the box."""
    with pytest.raises(ConstructionError, match=r"theta_star has shape \(2,\); the model has D = 1"):
        small_plan(qubit, theta_star=np.array([0.7, 0.8]), h=None)


def test_plan_rejects_shift_leaving_box(qubit):
    with pytest.raises(ConstructionError):
        small_plan(qubit, h=np.array([100.0]), n_grid=(4,))


def test_plan_rejects_mismatched_weights(qubit):
    with pytest.raises(ConstructionError):
        small_plan(qubit, q=MixtureWeights.normalized(np.ones(5)))


@pytest.mark.parametrize("grid,entry", [
    ((0, 100), "entry 0 must be at least 1"),
    ((-5, 100), "entry -5 must be at least 1"),
    ((100, 2**53 + 1), r"entry 9007199254740993 exceeds 9007199254740992"),
    ((2**63,), r"entry 9223372036854775808 exceeds 9007199254740992"),
    ((500, 100, 500), "entry 500 appears more than once"),
    ((), "must not be empty"),
    ((100, 250.5), "entry 250.5 is not an integer"),
    ((np.float64(99.999),), "entry 99.999 is not an integer"),
    ((100, float("nan")), "entry nan is not an integer"),
    ((float("inf"),), "entry inf is not an integer"),
])
def test_plan_rejects_bad_grid(toy, grid, entry):
    """An empty grid, a grid point below 1 or above 2**53, a repeated one and a
    non-integral one are refused, the point named, before any experiment runs
    on them."""
    with pytest.raises(ConstructionError, match=f"n_grid {entry}"):
        small_plan(toy, n_grid=grid)


def test_plan_takes_integral_grid_entries(toy):
    """numpy integers and integral floats are record lengths, held as ints."""
    plan = small_plan(toy, n_grid=(np.int64(200), 500.0, np.float64(1000.0)))
    assert plan.n_grid == (200, 500, 1000)
    assert all(type(n) is int for n in plan.n_grid)


def _flat_family(d, l):
    """d components, each uniform over l outcomes at every theta: a family of
    any size that costs nothing to evaluate."""
    return ParametricFamily(ParameterBox(np.array([0.0]), np.array([1.0])),
                            probs=lambda t: np.full(np.shape(t)[:-1] + (d, l), 1.0 / l))


TEN_ENTRIES = tuple(range(100, 1_001, 100))


@pytest.mark.parametrize("shape, grid, per_rep", [
    # toy_haroche, d = l = 8, one entry: cramer_rao fits (8 + 1) R rows and
    # scans each at 64 points, 9 * 64 * 8 bytes per replication.
    ((8, 8), (10_000,), 4_608),
    # Ten entries: consistency fits 10 R rows, 10 * 64 * 8; collapse's counts
    # (8, R, 10, 8) are as large.
    ((8, 8), TEN_ENTRIES, 5_120),
    # qubit_rotation, d = l = 2: cramer_rao's 3 R scan rows, 3 * 64 * 8.
    ((2, 2), (10_000,), 1_536),
    ((2, 2), TEN_ENTRIES, 5_120),
    # 3 components over 100 outcomes, two entries: collapse's counts
    # (3, R, 2, 100), 600 * 8, beat cramer_rao's 4 R rows of 100 counts.
    ((3, 100), (200, 500), 4_800),
    # 100 components over 2 outcomes: collapse's log terms (100, R, 1, 100),
    # 10_000 * 8, beat cramer_rao's 101 R scan rows of 64.
    ((100, 2), (10_000,), 80_000),
])
def test_plan_rejects_replications_beyond_numpy_arrays(shape, grid, per_rep):
    """n_reps is refused, named, once the largest array an experiment would
    make from the plan needs more bytes than numpy can describe; one fewer
    replication is a plan.  Building a plan allocates nothing of that size."""
    d, l = shape
    fam = _flat_family(d, l)
    limit = np.iinfo(np.intp).max
    most = limit // per_rep

    def plan(n_reps):
        return ExperimentPlan(family=fam, q=MixtureWeights(np.full(d, 1.0 / d)), theta_star=np.array([0.5]),
                              n_grid=grid, n_reps=n_reps)

    assert plan(most).n_reps == most
    for n_reps in (most + 1, 2**62):
        with pytest.raises(ConstructionError, match=(
                f"^n_reps {n_reps} needs an array of {n_reps * per_rep} bytes, more than numpy can "
                f"describe \\({limit}\\)$")):
            plan(n_reps)


@pytest.mark.parametrize("n_reps", [1, 0, -3])
def test_plan_rejects_fewer_than_two_replications(toy, n_reps):
    """A sample variance needs two replications; fewer are refused, the
    value named, before any experiment runs."""
    with pytest.raises(ConstructionError, match=f"n_reps {n_reps} must be at least 2"):
        small_plan(toy, n_reps=n_reps)


@pytest.mark.parametrize("n_reps", [2.5, np.float64(60.5), 1.5, float("nan"), float("inf"), None])
def test_plan_rejects_a_non_integral_replication_count(toy, n_reps):
    """A replication count that is not an integer is refused, the value
    named, before any experiment runs on it."""
    with pytest.raises(ConstructionError, match=f"n_reps {n_reps} is not an integer"):
        small_plan(toy, n_reps=n_reps)


def test_plan_takes_an_integral_replication_count(toy):
    """numpy integers and integral floats are replication counts, held as
    ints, as n_grid entries are."""
    for n_reps, want in ((100.0, 100), (np.int64(50), 50), (np.float64(7.0), 7)):
        plan = small_plan(toy, n_reps=n_reps)
        assert plan.n_reps == want and type(plan.n_reps) is int
    assert lamn_experiment(small_plan(toy, h=np.array([0.5]), n_reps=10.0))["n_reps"] == 10


def test_plan_search_box_default(qubit, toy):
    assert small_plan(qubit).search_box() is qubit.family.box
    assert small_plan(toy, h=np.array([0.0])).search_box() is toy.estimation_box


# ---------------------------------------------------------------------------
# Log-likelihood ratio and collapse ratio against brute force
# ---------------------------------------------------------------------------

def test_log_likelihood_ratio_identity(bernoulli_pair):
    """The stacked ratio that lamn_experiment takes over a (d, R, l) count
    array equals, record by record, n times the difference of the normalized
    log-likelihoods and ln P_a - ln P_b computed in plain arithmetic."""
    q = MixtureWeights.normalized([0.3, 0.7])
    theta_a, theta_b = [0.6], [0.5]
    n = 40
    cm = np.stack([
        np.stack([sample_counts(bernoulli_pair, theta_b, g, n, seed).counts for seed in range(3)])
        for g in range(2)
    ])                                                                      # (2, 3, 2)
    lr = logsumexp(estimate.log_terms(bernoulli_pair, q, cm, theta_a), axis=-1) - logsumexp(
        estimate.log_terms(bernoulli_pair, q, cm, theta_b), axis=-1
    )
    assert lr.shape == (2, 3)
    for idx in np.ndindex(lr.shape):
        c = CountVector(n=n, counts=cm[idx])
        la = estimate.loglik(bernoulli_pair, q, c, theta_a).value
        lb = estimate.loglik(bernoulli_pair, q, c, theta_b).value
        assert lr[idx] == pytest.approx(n * (la - lb), abs=1e-12)
        direct = [q.q @ np.prod(bernoulli_pair.prob_table(t) ** cm[idx], axis=1) for t in (theta_a, theta_b)]
        assert lr[idx] == pytest.approx(math.log(direct[0] / direct[1]), abs=1e-10)


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
            got = math.exp(_log_collapse_ratio(estimate.log_terms(bernoulli_pair, q, cm, theta), g)[0])
            assert got == pytest.approx(direct, rel=1e-10)


def one_component_family():
    return ParametricFamily(
        ParameterBox(np.array([0.2]), np.array([0.8])),
        probs=lambda t: np.stack([t, 1 - t], axis=-1),
    )


def test_collapse_ratio_single_component():
    q1 = MixtureWeights(np.array([1.0]))
    out = _log_collapse_ratio(estimate.log_terms(one_component_family(), q1, np.array([[2, 3]]), [0.5]), 0)
    assert out[0] == -np.inf  # nothing to collapse


def test_collapse_ratio_per_row_components(toy):
    """One own component per leading row gives, bit for bit, the int form on
    each row's block alone, and both equal ln r_n with the own term deleted
    from the log terms: the other components' log-sum adds the same d - 1
    terms in the same order.  Short records keep several terms in each sum."""
    p = toy.family.prob_table(toy.theta_star)
    cm = np.stack([
        sample_count_paths(p[np.full(500, g)], (20, 50, 100), np.random.default_rng(g)) for g in range(8)
    ])
    stacked = _log_collapse_ratio(estimate.log_terms(toy.family, toy.q, cm, toy.theta_star), np.arange(8))
    assert stacked.shape == (8, 500, 3)
    for g in range(8):
        alone = _log_collapse_ratio(estimate.log_terms(toy.family, toy.q, cm[g], toy.theta_star), g)
        assert np.array_equal(stacked[g], alone)
        assert np.array_equal(alone, log_collapse_ratio_deleting(toy.family, toy.q, cm[g], toy.theta_star, g))


def test_collapse_ratio_handles_extreme_counts(bernoulli_pair, uniform2):
    """At n = 5000 the ratio underflows any direct computation but keeps full
    relative precision in the log domain."""
    cm = sample_counts(bernoulli_pair, [0.7], 0, 5_000, 8).counts[None, :]
    lr = _log_collapse_ratio(estimate.log_terms(bernoulli_pair, uniform2, cm, [0.7]), 0)[0]
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
    batch = estimate._fit(qubit.family, qubit.q.log(), cm, plan.search_box()).x
    from qndmix.estimate import mle

    for r in range(6):
        single = mle(qubit.family, qubit.q, CountVector(n=800, counts=cm[r]), plan.search_box())
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


def test_collapse_verdict_needs_every_gate(qubit, monkeypatch):
    """A component passes only when both fractions clear COLLAPSE_QUANTILE
    and its fitted rate clears the slack: a rate gate no rate can meet fails
    every component, and so the run, with the fractions unchanged."""
    plan = small_plan(qubit, n_grid=(200, 400, 800))
    report = mixture_collapse_experiment(plan)
    monkeypatch.setattr(asym, "COLLAPSE_RATE_SLACK", 1e9)
    strict = mixture_collapse_experiment(plan)
    assert report["passed"] and not strict["passed"]
    assert [gate["name"] for gate in report["gates"] if not gate["passed"]] == []
    assert [gate["name"] for gate in strict["gates"] if not gate["passed"]] == [
        f"collapse.component.{g}.fitted_rate" for g in strict["per_component"]
    ]
    for g, entry in strict["per_component"].items():
        assert entry["rate_ok"] is False and entry["passed"] is False
        assert entry["fraction_below_bound"] == report["per_component"][g]["fraction_below_bound"]
    for entry in report["per_component"].values():
        assert entry["passed"] is (
            entry["fraction_below_bound"] >= asym.COLLAPSE_QUANTILE
            and entry["fraction_below_bound_shifted"] >= asym.COLLAPSE_QUANTILE
            and entry["rate_ok"]
        )


def test_collapse_refuses_a_one_point_grid(qubit, monkeypatch):
    """A decay rate needs two record lengths: a one-point grid is refused
    before any record is drawn."""
    monkeypatch.setattr(asym, "sample_count_paths", lambda *a, **k: pytest.fail("drew records"))
    with pytest.raises(DomainError, match=r"n_grid \(800,\)"):
        mixture_collapse_experiment(small_plan(qubit, n_grid=(800,)))


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


def record_pooled_fits(monkeypatch) -> list:
    """Route asymptotics' fits through a wrapper that keeps each result."""
    results = []

    def recording(*args):
        res = estimate._fit(*args)
        results.append(res)
        return res

    monkeypatch.setattr("qndmix.asymptotics._fit", recording)
    return results


def test_boundary_hits_count_estimates_on_the_box_edge(toy, monkeypatch):
    """Each experiment makes exactly one maximize_scalar call, and each reported
    boundary_hits equals the boundary flags of its entry's n_reps-row slice of
    that call; n = 1000 puts many alpha = 1 estimates on the edge."""
    results = record_pooled_fits(monkeypatch)
    plan = small_plan(toy, h=np.array([0.0]), n_grid=(1_000, 4_000), n_reps=40)
    cr = cramer_rao_experiment(plan)
    assert len(results) == 1
    flags = results[0].boundary.reshape(-1, plan.n_reps).sum(axis=1).tolist()
    entries = [cr["per_component"][str(g)] for g in range(8)] + [cr["mixture"]]
    assert [e["boundary_hits"] for e in entries] == flags
    assert flags[0] > 0
    results.clear()
    cons = consistency_experiment(plan)
    assert len(results) == 1
    flags = results[0].boundary.reshape(-1, plan.n_reps).sum(axis=1).tolist()
    assert [cons["by_n"][n]["boundary_hits"] for n in ("1000", "4000")] == flags
    assert flags[0] > 0


def test_max_evaluations_report_the_costliest_refinement(toy, monkeypatch):
    """Each experiment makes exactly one maximize_scalar call, and each reported
    max_evaluations equals the largest per-row evaluation count of its entry's
    n_reps-row slice of that call."""
    results = record_pooled_fits(monkeypatch)
    plan = small_plan(toy, h=np.array([0.0]), n_grid=(1_000, 4_000), n_reps=40)
    for runner, entries in (
        (cramer_rao_experiment, lambda r: [r["per_component"][str(g)] for g in range(8)] + [r["mixture"]]),
        (consistency_experiment, lambda r: [r["by_n"][n] for n in ("1000", "4000")]),
    ):
        results.clear()
        report = runner(plan)
        assert len(results) == 1
        res = results[0]
        assert res.converged.all() and np.all(res.evaluations >= 1)
        counts = res.evaluations.reshape(-1, plan.n_reps).max(axis=1).tolist()
        assert [e["max_evaluations"] for e in entries(report)] == counts


@pytest.mark.parametrize("runner", [cramer_rao_experiment, consistency_experiment])
def test_pooled_fit_equals_one_fit_per_block(toy, runner, monkeypatch):
    """The one pooled estimator call of an experiment gives, bit for bit, the
    estimates that the fit gives on each n_reps-row block by itself."""
    from qndmix import asymptotics

    calls = []

    def recording(fam, logq, counts_matrix, box):
        calls.append((counts_matrix, estimate._fit(fam, logq, counts_matrix, box)))
        return calls[-1][1]

    monkeypatch.setattr(asymptotics, "_fit", recording)
    plan = small_plan(toy, h=np.array([0.0]), n_grid=(1_000, 4_000), n_reps=40)
    runner(plan)
    assert len(calls) == 1
    pooled, res = calls[0]
    blocks = pooled.reshape(-1, plan.n_reps, pooled.shape[1])
    assert len(blocks) == (9 if runner is cramer_rao_experiment else 2)
    for block, x in zip(blocks, res.x.reshape(len(blocks), plan.n_reps, 1)):
        assert np.array_equal(estimate._fit(toy.family, toy.q.log(), block, plan.search_box()).x, x)


def cramer_rao_statistics_per_component(plan, x_hat, boundary, evaluations):
    """The per_component and mixture entries of cramer_rao_experiment from its
    fit's estimates, boundary flags and evaluation counts, one component per
    loop iteration: the loop the experiment ran before it took each statistic
    as one reduction over every component, kept as its reference."""
    fishers = plan.fisher[:, 0, 0]
    n = max(plan.n_grid)
    theta_n = plan.theta_star + plan.h / np.sqrt(n)
    d = plan.family.n_components
    per_component = {}
    for g in range(d):
        root = np.sqrt(n) * (x_hat[g] - theta_n[0])
        var = float(root.var(ddof=1))
        target = 1.0 / fishers[g]
        ratio = var / target
        ok = asym.CRAMER_RATIO_BAND[0] <= ratio <= asym.CRAMER_RATIO_BAND[1]
        per_component[g] = {
            "fisher": float(fishers[g]), "var": var, "mean": float(root.mean()),
            "target_var": target, "efficiency_ratio": float(ratio),
            "boundary_hits": int(boundary[g].sum()), "max_evaluations": int(evaluations[g].max()),
            "passed": bool(ok),
        }
    root = np.sqrt(n) * (x_hat[d] - theta_n[0])
    second = float(np.mean(root**2))
    target_second = float(plan.q.q @ (1.0 / fishers))
    mixture = {
        "second_moment": second, "target": target_second, "ratio": second / target_second,
        "boundary_hits": int(boundary[d].sum()), "max_evaluations": int(evaluations[d].max()),
        "passed": bool(abs(second / target_second - 1.0) <= asym.CRAMER_MIXTURE_RTOL),
    }
    return reference_jsonable(per_component), reference_jsonable(mixture)


@pytest.mark.parametrize("n_reps", [5, 200])
@pytest.mark.parametrize("preset", ["toy", "qubit"])
def test_cramer_rao_statistics_equal_the_per_component_loop(request, preset, n_reps, monkeypatch):
    """cramer_rao_experiment's per_component and mixture entries equal, bit for
    bit, those of the per-component loop on the estimates its one fit gave,
    captured through a spy on _fit_blocks."""
    pre = request.getfixturevalue(preset)
    fit_blocks, fits = asym._fit_blocks, []

    def spy(plan, blocks):
        fits.append(fit_blocks(plan, blocks))
        return fits[-1]

    monkeypatch.setattr(asym, "_fit_blocks", spy)
    for seed, h in ((0, 0.0), (1, 1.0)):
        fits.clear()
        plan = small_plan(pre, h=np.array([h]), n_grid=(1_000, 10_000), n_reps=n_reps, master_seed=seed)
        report = cramer_rao_experiment(plan)
        assert len(fits) == 1
        per_component, mixture = cramer_rao_statistics_per_component(plan, *fits[0])
        assert json.dumps(report["per_component"]) == json.dumps(per_component)
        assert json.dumps(report["mixture"]) == json.dumps(mixture)


@pytest.mark.parametrize("n_reps", [30, 200])
@pytest.mark.parametrize("preset", ["toy_haroche", "qubit_rotation", "toy_haroche_guerlin"])
def test_collapse_rates_equal_one_fit_per_component(preset, n_reps, monkeypatch):
    """The fitted rates of mixture_collapse_experiment, from one least-squares
    fit of every component's mean path, equal bit for bit one np.polyfit per
    component on the ln r_n its first _log_collapse_ratio call gave."""
    pre = get_preset(preset)
    ratios = []

    def spy(*args):
        ratios.append(_log_collapse_ratio(*args))
        return ratios[-1]

    monkeypatch.setattr(asym, "_log_collapse_ratio", spy)
    for seed, grid in ((0, (500, 1_000, 2_000)), (1, (20, 100, 2_000)), (2, (50, 200))):
        ratios.clear()
        plan = small_plan(pre, h=np.array([0.0]), n_grid=grid, n_reps=n_reps, master_seed=seed)
        report = mixture_collapse_experiment(plan)
        log_r = ratios[0]                                                   # (d, R, K)
        ns = np.asarray(sorted(grid), dtype=float)
        d = pre.family.n_components
        rates = [float(-np.polyfit(ns, log_r[g].mean(axis=0), 1)[0]) for g in range(d)]
        assert json.dumps([report["per_component"][str(g)]["fitted_rate"] for g in range(d)]) == json.dumps(rates)


# ---------------------------------------------------------------------------
# Stacked LAMN and collapse against the per-component loop
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n_reps", [5, 150])
@pytest.mark.parametrize("preset", ["toy_haroche", "qubit_rotation"])
@pytest.mark.parametrize("runner,kw", [
    (lamn_experiment, {"h": np.array([0.5])}),
    (mixture_collapse_experiment, {"h": np.array([0.5]), "n_grid": (200, 500, 2_000)}),
    (cramer_rao_experiment, {"h": np.array([0.0]), "n_grid": (1_000, 10_000)}),
])
def test_one_law_blocks_equal_the_tiled_draws(runner, kw, preset, n_reps, monkeypatch):
    """Every component block is drawn from its one outcome law, all d of them
    in one stacked call (per grid point, for lamn), and gives the same report,
    byte for byte, as drawing each block from n_reps tiled copies of its law
    on its own generator."""
    plan = small_plan(get_preset(preset), n_reps=n_reps, **kw)
    report = json.dumps(runner(plan))
    stacked = []

    def tiled(p, n_grid, rng, size=None):
        if size is None:
            return sample_count_paths(p, n_grid, rng)
        stacked.append((np.shape(p), len(rng), size))
        return np.stack([sample_count_paths(np.tile(law, (size, 1)), n_grid, r) for law, r in zip(p, rng)])

    monkeypatch.setattr(asym, "sample_count_paths", tiled)
    assert report == json.dumps(runner(plan))
    d, l = plan.family.n_components, plan.family.n_outcomes
    calls = len(plan.n_grid) if runner is lamn_experiment else 1
    assert stacked == [((d, l), d, n_reps)] * calls


def test_star_is_one_read_only_evaluation_per_plan(monkeypatch):
    """A plan evaluates the family's rule once at theta* (star), whose arrays
    are read-only and equal a fresh evaluation, and lamn then evaluates it
    once at each shifted point; fig1 draws its records from star's table,
    the records sample_mixture_trajectory draws on the same seeds."""
    pre = get_preset("qubit_rotation")
    calls = []
    fam = ParametricFamily(pre.family.box, tables=lambda t: calls.append(np.copy(t)) or pre.family.tables(t))
    calls.clear()
    plan = ExperimentPlan(family=fam, q=pre.q, theta_star=pre.theta_star, h=np.array([0.5]),
                          n_grid=(100, 400), n_reps=4, master_seed=3)
    p, dp, log_p = plan.star
    fresh_p, fresh_dp = pre.family.tables(pre.theta_star)
    assert (p.tobytes(), dp.tobytes(), log_p.tobytes()) == (
        fresh_p.tobytes(), fresh_dp.tobytes(), np.log(fresh_p).tobytes())
    assert plan.fisher.tobytes() == fisher_information(pre.family, pre.theta_star).tobytes()
    for a in (p, dp, log_p, plan.fisher):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[...] = 0.0
    lamn_experiment(plan)
    assert [t.tobytes() for t in calls] == [
        t.tobytes() for t in (pre.theta_star, *(pre.theta_star + plan.h / np.sqrt(n) for n in plan.n_grid))]

    calls.clear()
    fitted = []
    monkeypatch.setattr(asym, "mle_path", lambda plan, trajs, grid: fitted.extend(trajs) or [
        [(asym.FIG1_N_MAX, float(plan.theta_star[0]))] for _ in trajs])
    asym.fig1_experiment(plan)
    assert calls == [] and len(fitted) == asym.FIG1_SEEDS
    for k, traj in enumerate(fitted):
        want = sample_mixture_trajectory(pre.family, pre.theta_star, pre.q, asym.FIG1_N_MAX, 3 * asym.FIG1_SEEDS + k)
        assert (traj.gamma, traj.outcomes.tobytes()) == (want.gamma, want.outcomes.tobytes())


def lamn_per_component(plan):
    """LAMN as one pass per component and grid point: the reference for the
    stacked experiment."""
    fishers = plan.check_hypotheses()
    h, d = plan.h, plan.family.n_components
    n_max = max(plan.n_grid)
    p_star = plan.family.prob_table(plan.theta_star)
    per_component, all_pass = {}, True
    samples_at_nmax = np.empty((d, plan.n_reps))
    for g in range(d):
        hih = float(h @ fishers[g] @ h)
        target_mean, target_var = -0.5 * hih, hih
        per_n = {}
        for n in plan.n_grid:
            theta_n = plan.theta_star + h / np.sqrt(n)
            rng = substream(plan.master_seed, asym.TAG_LAMN, g, n)
            cm = sample_count_paths(p_star[np.full(plan.n_reps, g)], (n,), rng)[:, 0]
            lr = estimate.logsumexp(estimate.log_terms(plan.family, plan.q, cm, theta_n), axis=1) - (
                estimate.logsumexp(estimate.log_terms(plan.family, plan.q, cm, plan.theta_star), axis=1)
            )
            mean, var = float(lr.mean()), float(lr.var(ddof=1))
            se = np.sqrt(var / plan.n_reps)
            entry = {
                "n": n, "mean": mean, "var": var, "target_mean": target_mean,
                "target_var": target_var, "mean_se": float(se),
                "mean_ok": bool(abs(mean - target_mean) <= asym.LAMN_MEAN_SIGMAS * se),
                "var_ok": bool(abs(var / target_var - 1.0) <= asym.LAMN_VAR_RTOL) if hih > 0 else bool(var == 0.0),
            }
            if hih > 0 and var > 0:
                std = (lr - lr.mean()) / lr.std(ddof=1)
                # Anderson-Darling with ln Phi(w) and ln Phi(-w) evaluated apart.
                x = np.sort(std)
                r = x.size
                w = (x - np.mean(std)) / np.std(std, ddof=1)
                i = np.arange(1, r + 1)
                stat = float(-r - np.sum((2 * i - 1.0) / r * (_log_ndtr_pair(w)[0] + _log_ndtr_pair(-w)[0][::-1])))
                crit = float(np.round(asym.AD_CRIT_1PCT / (1.0 + 0.75 / r + 2.25 / r / r), 3))
                entry.update(ad_statistic=stat, ad_critical_1pct=crit, ad_ok=bool(stat < crit))
            per_n[n] = entry
            if n == n_max:
                samples_at_nmax[g] = lr
        final = per_n[n_max]
        comp_pass = final["mean_ok"] and final["var_ok"] and final.get("ad_ok", True)
        per_component[g] = {"fisher_quadratic": hih, "by_n": per_n, "passed": comp_pass}
        all_pass = all_pass and comp_pass
    mixture_samples = samples_at_nmax[asym._draw_mixture_gammas(plan, asym.TAG_LAMN), np.arange(plan.n_reps)]
    hih_all = np.einsum("i,gij,j->g", h, fishers, h)
    mix_mean_target = float(plan.q.q @ (-0.5 * hih_all))
    mix_second = plan.q.q @ (hih_all + 0.25 * hih_all**2)
    return reference_jsonable({
        "experiment": "lamn", "theta_star": plan.theta_star, "h": h, "n_grid": plan.n_grid,
        "n_reps": plan.n_reps, "master_seed": plan.master_seed, "per_component": per_component,
        "mixture": {
            "mean": float(mixture_samples.mean()), "var": float(mixture_samples.var(ddof=1)),
            "target_mean": mix_mean_target, "target_var": float(mix_second - mix_mean_target**2),
        },
        "passed": all_pass,
    })


def log_collapse_ratio_deleting(fam, q, cm, theta, g):
    """ln r_n with the own component deleted from the log terms."""
    terms = estimate.log_terms(fam, q, cm, theta)
    others = np.delete(terms, g, axis=-1)
    if others.shape[-1] == 0:
        return np.full(terms.shape[:-1], -np.inf)
    return estimate.logsumexp(others, axis=-1) - terms[..., g]


def collapse_per_component(plan):
    """Mixture collapse as one pass per component: the reference for the
    stacked experiment."""
    fam, q, d = plan.family, plan.q, plan.family.n_components
    n_grid = sorted(plan.n_grid)
    n_max = n_grid[-1]
    theta_n = plan.theta_star + plan.h / np.sqrt(n_max)
    kl = kl_matrix(fam, plan.theta_star)
    p_star = fam.prob_table(plan.theta_star)
    per_component, all_pass = {}, True
    for g in range(d):
        rng = substream(plan.master_seed, asym.TAG_COLLAPSE, g)
        cm = sample_count_paths(p_star[np.full(plan.n_reps, g)], n_grid, rng)
        log_r = log_collapse_ratio_deleting(fam, q, cm, plan.theta_star, g)
        log_r_shift = log_collapse_ratio_deleting(fam, q, cm[:, -1], theta_n, g)
        sqrt_n_r = np.sqrt(n_max) * np.exp(log_r[:, -1])
        sqrt_n_r_shift = np.sqrt(n_max) * np.exp(log_r_shift)
        frac_ok = float(np.mean(sqrt_n_r < asym.COLLAPSE_SQRT_N_BOUND))
        frac_ok_shift = float(np.mean(sqrt_n_r_shift < asym.COLLAPSE_SQRT_N_BOUND))
        entry, rate_ok = {}, True
        if d > 1:
            min_kl = float(np.min(np.delete(kl[g], g)))
            rate = float(-np.polyfit(np.asarray(n_grid, dtype=float), log_r.mean(axis=0), 1)[0])
            rate_ok = rate >= asym.COLLAPSE_RATE_SLACK * min_kl
            entry = {"min_kl": min_kl, "fitted_rate": rate, "rate_ok": bool(rate_ok)}
        comp_pass = frac_ok >= asym.COLLAPSE_QUANTILE and frac_ok_shift >= asym.COLLAPSE_QUANTILE and rate_ok
        per_component[g] = {
            **entry,
            "sqrt_n_r_median": float(np.median(sqrt_n_r)), "fraction_below_bound": frac_ok,
            "fraction_below_bound_shifted": frac_ok_shift, "n_checked": n_max, "passed": bool(comp_pass),
        }
        all_pass = all_pass and comp_pass
    return reference_jsonable({
        "experiment": "collapse", "theta_star": plan.theta_star, "h": plan.h, "n_grid": n_grid,
        "n_reps": plan.n_reps, "master_seed": plan.master_seed, "bound": asym.COLLAPSE_SQRT_N_BOUND,
        "per_component": per_component, "passed": all_pass,
    })


STACKED = [(lamn_experiment, lamn_per_component), (mixture_collapse_experiment, collapse_per_component)]


@pytest.mark.parametrize("runner,reference,grid", [
    (lamn_experiment, lamn_per_component, (2_000,)),
    (lamn_experiment, lamn_per_component, (300, 1_000, 2_000)),
    (mixture_collapse_experiment, collapse_per_component, (50, 200)),
    (mixture_collapse_experiment, collapse_per_component, (20, 100, 2_000)),
])
@pytest.mark.parametrize("preset", ["toy", "qubit"])
@pytest.mark.parametrize("h", [0.0, 1.0])
def test_stacked_pass_equals_per_component_loop(request, runner, reference, grid, preset, h):
    """The stacked LAMN and collapse reports are byte-identical to those of the
    per-component loop.  Collapse fits a rate, so its shortest grid has two
    points, and it starts at short records, whose fractions below the bound
    are not all 1."""
    pre = request.getfixturevalue(preset)
    for seed in (0, 3):
        plan = small_plan(pre, h=np.array([h]), n_grid=grid, n_reps=50, master_seed=seed)
        assert json.dumps(without_gates(runner(plan))) == json.dumps(reference(plan))


@pytest.mark.parametrize("seed", [11000, 11001, 11002])
@pytest.mark.parametrize("preset", ["toy_haroche", "qubit_rotation"])
@pytest.mark.parametrize("runner,kw", [
    (lamn_experiment, dict(h=np.array([1.0]), n_grid=(10_000,), n_reps=150)),
    (purification_experiment, dict(n_grid=(100, 250, 500), n_reps=150)),
    (mixture_collapse_experiment, dict(n_grid=(500, 1_000, 2_000), n_reps=30)),
    (cramer_rao_experiment, dict(h=np.array([0.0]), n_grid=(10_000,), n_reps=150)),
])
def test_reports_equal_the_row_wise_logsumexp_reports(runner, kw, preset, seed, monkeypatch):
    """At the benchmark's sizes (cramer_rao with 150 replications, so that its
    trial batches pass SLAB_ROWS), every report equals, as JSON bytes, the
    one the row-wise reference logsumexp gives."""
    pre = get_preset(preset)
    plan = ExperimentPlan(family=pre.family, q=pre.q, theta_star=pre.theta_star, master_seed=seed,
                          estimation_box=pre.estimation_box, **kw)
    report = json.dumps(runner(plan))
    monkeypatch.setattr(asym, "logsumexp", reference_logsumexp)
    monkeypatch.setattr(estimate, "logsumexp", reference_logsumexp)
    assert report == json.dumps(runner(dataclasses.replace(plan)))


def test_anderson_darling_rows_equal_each_row_alone():
    """A^2 of an (8, 150) stack equals A^2 of each row by itself, bit for bit."""
    x = np.random.default_rng(5).standard_normal((8, 150)) * np.arange(1.0, 9.0)[:, None]
    stats, crit = _anderson_darling_normal(x)
    assert stats.shape == (8,)
    for row, stat in zip(x, stats):
        alone, crit_alone = _anderson_darling_normal(row)
        assert alone == stat and crit_alone == crit


@pytest.mark.parametrize("runner,reference", STACKED)
def test_stacked_edge_cases_raise_no_warning(toy, runner, reference):
    """h = 0 (every ln LR is 0, no Anderson-Darling row) and a one-component
    family (no other component, so ln r_n = -inf) give the reference report
    without a numpy warning, and as JSON values with no NaN or infinity: a
    one-component collapse report has no divergence, rate or rate gate."""
    single = ExperimentPlan(
        family=one_component_family(), q=MixtureWeights(np.array([1.0])),
        theta_star=np.array([0.5]), h=np.array([1.0]), n_grid=(200, 500), n_reps=40,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        zero, one = (runner(plan) for plan in (small_plan(toy, h=np.array([0.0])), single))
        assert json.dumps(without_gates(zero)) == json.dumps(reference(small_plan(toy, h=np.array([0.0]))))
        assert json.dumps(without_gates(one)) == json.dumps(reference(single))
    for report in (zero, one):
        json.dumps(report, allow_nan=False)
        assert _json_values(report)
    if runner is lamn_experiment:
        for comp in zero["per_component"].values():
            for entry in comp["by_n"].values():
                assert entry["var"] == 0.0 and not any(k.startswith("ad_") for k in entry)
    else:
        assert not {"min_kl", "fitted_rate", "rate_ok"} & set(one["per_component"]["0"])
        assert not any(gate["name"].endswith(".fitted_rate") for gate in one["gates"])
        assert one["per_component"]["0"]["sqrt_n_r_median"] == 0.0


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
        mle_path(plan, [traj], [50, 100])


OUTSIDE_SEARCH_BOX = r"the fitted point theta = \[0\.6\] is not interior to the search box"


def test_fitting_experiments_refuse_a_point_outside_the_search_box():
    """toy_haroche searches pi/4 +/- 0.052 inside a family box of [pi/8,
    3pi/8]: theta* = 0.6 is a valid plan, but every estimate of it would sit
    on the search box edge or on an aliased component."""
    pre = get_preset("toy_haroche")
    plan = small_plan(pre, theta_star=np.array([0.6]), h=None)
    for experiment in (consistency_experiment, cramer_rao_experiment, asym.fig1_experiment):
        with pytest.raises(RefusalError, match=OUTSIDE_SEARCH_BOX):
            experiment(plan)
    traj = sample_trajectory(pre.family, plan.theta_star, 0, 100, seed=0)
    with pytest.raises(RefusalError, match=OUTSIDE_SEARCH_BOX):
        mle_path(plan, [traj], [50, 100])


def test_cramer_rao_refuses_a_shifted_point_outside_the_search_box():
    """cramer_rao fits theta* + h/sqrt(n) at the largest n: h = 10 puts it
    0.1 from pi/4 at n = 1e4, outside the search radius 0.052, and 0.05 from
    pi/4 at n = 4e4, inside it."""
    pre = get_preset("toy_haroche")
    with pytest.raises(RefusalError, match="is not interior to the search box"):
        cramer_rao_experiment(small_plan(pre, h=np.array([10.0]), n_grid=(10_000,)))
    report = cramer_rao_experiment(small_plan(pre, h=np.array([10.0]), n_grid=(10_000, 40_000)))
    assert report["n"] == 40_000


def test_search_box_check_comes_after_dimension_and_fisher_checks():
    """D != 1 is refused first, then a singular Fisher information, then a
    fitted point outside the search box."""
    guerlin = toy_haroche_guerlin()
    away = ParameterBox(np.array([0.9]), np.array([1.0]))
    with pytest.raises(SingularFisherError):
        consistency_experiment(small_plan(guerlin, estimation_box=away))
    full = toy_haroche_full()
    plan = small_plan(full, h=None, estimation_box=ParameterBox(full.family.box.lower, full.theta_star))
    with pytest.raises(RefusalError, match="covers D = 1 only"):
        consistency_experiment(plan)


def test_experiments_that_fit_nothing_against_theta_star_run_outside_the_search_box():
    pre = get_preset("toy_haroche")
    plan = small_plan(pre, theta_star=np.array([0.6]))
    for experiment in (lamn_experiment, mixture_collapse_experiment, purification_experiment):
        assert experiment(plan)["theta_star"] == [0.6]
    report, fit = asym.estimate_experiment(plan)
    assert report["theta_true"] == [0.6] and fit.boundary


def reference_jsonable(x):
    """_jsonable as it sent every element of x.tolist() through the scalar
    isinstance chain again: the reference for its one tolist() per value."""
    if isinstance(x, dict):
        return {str(k): reference_jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [reference_jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        return reference_jsonable(x.tolist())
    if isinstance(x, (np.bool_, bool)):
        return bool(x)
    if isinstance(x, (np.floating, float)):
        return float(x)
    if isinstance(x, (np.integer, int)):
        return int(x)
    return x


def _leaf_types(x):
    if isinstance(x, dict):
        return {k: _leaf_types(v) for k, v in x.items()}
    if isinstance(x, list):
        return [_leaf_types(v) for v in x]
    return type(x)


def _json_values(x) -> bool:
    """True when x is made only of JSON values: dicts with str keys, lists,
    and leaves whose exact type is str, int, float or bool (no numpy scalar,
    array or tuple)."""
    if type(x) is dict:
        return all(type(k) is str and _json_values(v) for k, v in x.items())
    if type(x) is list:
        return all(_json_values(v) for v in x)
    return type(x) in (str, int, float, bool)


# The benchmark's plan of each Monte-Carlo experiment (consistency, which it
# does not run, at cramer_rao's size).
BENCHMARK_PLANS = [
    (lamn_experiment, dict(h=np.array([1.0]), n_grid=(10_000,), n_reps=150)),
    (mixture_collapse_experiment, dict(h=None, n_grid=(500, 1_000, 2_000), n_reps=30)),
    (consistency_experiment, dict(h=None, n_grid=(1_000, 10_000), n_reps=5)),
    (cramer_rao_experiment, dict(h=None, n_grid=(10_000,), n_reps=5)),
    (purification_experiment, dict(h=None, n_grid=(100, 250, 500), n_reps=150)),
]


@pytest.mark.parametrize("name", ["toy_haroche", "qubit_rotation", "toy_haroche_guerlin"])
def test_every_report_is_json_values(name):
    """Every Monte-Carlo report, at the benchmark's plans, is its own JSON:
    string keys and JSON-native leaves only, json.loads(json.dumps(r)) == r,
    and the parent's conversion (reference_jsonable) leaves it unchanged in
    values, leaf types and JSON bytes, so that it equals the report that
    conversion made.  toy_haroche_guerlin refuses lamn, consistency and
    cramer_rao."""
    pre = get_preset(name)
    reports = []
    for experiment, kw in BENCHMARK_PLANS:
        for seed in (11_000, 11_001):
            try:
                reports.append(experiment(small_plan(pre, master_seed=seed, **kw)))
            except SingularFisherError:
                assert name == "toy_haroche_guerlin"
    assert len(reports) == 2 * (2 if name == "toy_haroche_guerlin" else len(BENCHMARK_PLANS))
    for report in reports:
        assert _json_values(report)
        assert json.loads(json.dumps(report)) == report
        converted = reference_jsonable(report)
        assert converted == report and _leaf_types(converted) == _leaf_types(report)
        assert json.dumps(converted, indent=2) == json.dumps(report, indent=2)


def test_anderson_darling_pinned():
    """Statistic and 1% critical value pinned to SciPy 1.17's anderson(dist="norm")."""
    stat, crit = _anderson_darling_normal(np.sin(np.arange(1.0, 51.0)))
    assert stat == pytest.approx(1.546910023368497, rel=1e-12)
    assert crit == 1.019


def reference_log_ndtr_pair(w):
    """_log_ndtr_pair as it evaluated the asymptotic series on every entry and
    kept it where |w| > 20: the reference for the series on those alone."""
    a = np.abs(w)
    tail = np.array([math.erfc(x) for x in (a / math.sqrt(2)).ravel().tolist()]).reshape(a.shape) / 2
    body = np.log1p(-tail)
    x, r = np.minimum(-a, -20.0), 1.0
    for k in range(23, 0, -2):
        r = 1 - k * r / (x * x)
    far = -0.5 * x * x - np.log(-x) - 0.5 * math.log(2 * math.pi) + np.log(r)
    low = np.log(tail, out=far, where=a <= 20)
    return np.where(w < 0, low, body), np.where(w > 0, low, body)


@pytest.mark.parametrize(
    "scale, far",
    [(1.0, True), (15.0, True), (40.0, True), (100.0, True), (3.0, False)],
    ids=["1.0", "15.0", "40.0", "100.0", "3.0-none-beyond-20"],
)
def test_log_ndtr_pair_equals_the_reference(scale, far):
    """Entries beyond |w| = 20 mixed with ordinary ones, the edges +-20, 0 and
    +-38 (where erfc underflows) among them, and one case with no entry
    beyond 20 (the edges +-20 and 0 alone), where the series does not run:
    both halves equal the reference bit for bit, and no numpy warning
    escapes."""
    w = np.random.default_rng(int(scale)).standard_normal((8, 150)) * scale
    edges = [20.0, -20.0, 0.0, 38.0, -38.0, 20.000000000000004, -1e3] if far else [20.0, -20.0, 0.0]
    w[0, :len(edges)] = edges
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _log_ndtr_pair(w)
    n_far = np.count_nonzero(np.abs(w) > 20)
    assert 0 < n_far < w.size if far else n_far == 0
    for g, want in zip(got, reference_log_ndtr_pair(w)):
        assert g.tobytes() == want.tobytes()


def test_log_ndtr_matches_scipy():
    """The erfc-based ln Phi agrees with scipy's log_ndtr and stays finite over
    [-50, 50], which holds every standardized sample of 2000 draws.  From
    w = 38 on both are below 1e-300 in magnitude, and math.erfc may still
    return a subnormal where scipy's ndtr returns 0."""
    w = np.linspace(-50.0, 50.0, 200_001)
    got = _log_ndtr_pair(w)[0]
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
    """One path per trajectory, n ascending, each equal to the path of its
    trajectory by itself."""
    plan = small_plan(qubit, h=np.array([0.0]))
    trajs = [sample_trajectory(qubit.family, qubit.theta_star, g, 2_000, seed=11 + g) for g in (0, 1)]
    paths = mle_path(plan, trajs, [2000, 100, 500])
    assert len(paths) == 2
    for traj, path in zip(trajs, paths):
        assert [n for n, _ in path] == [100, 500, 2000]
        assert abs(path[-1][1] - qubit.theta_star[0]) < 0.1
        assert mle_path(plan, [traj], [100, 500, 2000]) == [path]


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32, np.uint64, np.int64])
def test_mle_path_fits_the_per_prefix_count_stack(qubit, monkeypatch, dtype):
    """The count rows mle_path fits are the per-prefix counts stacked record
    by record, int64 and C-ordered, for unsorted, repeated and unit prefix
    lengths, records longer than the longest prefix and records of every
    integer type a Trajectory takes; the paths are the fits of that stack."""
    plan = small_plan(qubit, h=np.array([0.0]))
    trajs = [sample_trajectory(qubit.family, qubit.theta_star, g, 2_500, seed=5 + g) for g in (0, 1, 1)]
    trajs = [Trajectory(outcomes=traj.outcomes.astype(dtype), gamma=traj.gamma) for traj in trajs]
    points = [2000, 1, 500, 100, 500]
    ns = sorted(points)
    want = np.stack([counts(traj, n, n_outcomes=2).counts for traj in trajs for n in ns])
    fitted = []
    fit = asym._fit
    monkeypatch.setattr(asym, "_fit", lambda fam, logq, cm, box: fitted.append(cm.copy()) or fit(fam, logq, cm, box))
    paths = mle_path(plan, trajs, points)
    (got,) = fitted
    assert got.dtype == np.int64 and got.flags.c_contiguous
    np.testing.assert_array_equal(got, want)
    x_hat = fit(plan.family, plan.q.log(), want, plan.search_box()).x.reshape(len(trajs), len(ns))
    assert paths == [list(zip(ns, path.tolist())) for path in x_hat]


def _qubit_record(length, bad_steps=()):
    """A qubit_rotation record of length outcomes, byte-wide, with outcome 2,
    outside the alphabet, at each of bad_steps (counted from 1)."""
    outcomes = np.arange(length, dtype=np.uint8) % 2
    outcomes[[k - 1 for k in bad_steps]] = 2
    return Trajectory(outcomes=outcomes, gamma=0)


@pytest.mark.parametrize("records, points, message", [
    # The outcome range is checked first, on the longest prefix that fits.
    ([(100, (30,))], [50, 101], "outcome index 2 at step 30 outside 0..1"),
    ([(100, (30, 40))], [20, 50, 101], "outcome index 2 at step 30 outside 0..1"),
    # An outcome beyond that prefix is not reached: the length error wins.
    ([(100, (75,))], [50, 101], "prefix length 101 exceeds trajectory length 100"),
    ([(100, (30,))], [101, 5000], "prefix length 101 exceeds trajectory length 100"),
    # The smallest prefix longer than the record is named.
    ([(100, ())], [50, 101, 5000], "prefix length 101 exceeds trajectory length 100"),
    # Records are checked in order.
    ([(100, ()), (200, (10,))], [50, 150], "prefix length 150 exceeds trajectory length 100"),
    ([(200, ()), (100, (10,))], [50, 150], "outcome index 2 at step 10 outside 0..1"),
    ([(200, (180,)), (100, ())], [50, 150, 200], "outcome index 2 at step 180 outside 0..1"),
    # Nothing to fit is refused before any record is read.
    ([], [10], "no trajectories to fit"),
    ([(100, (30,))], [], "no prefix lengths to fit"),
])
def test_mle_path_refusal_precedence(qubit, records, points, message):
    """No records, or no prefix lengths, first; then each record in turn:
    the outcomes of its longest fitting prefix, then its smallest prefix
    longer than the record."""
    plan = small_plan(qubit, h=np.array([0.0]))
    trajs = [_qubit_record(length, bad) for length, bad in records]
    with pytest.raises(DomainError, match=f"^{message}$"):
        mle_path(plan, trajs, points)


@pytest.mark.parametrize("n", [0, -3, 101, 5000])
def test_mle_path_refuses_prefixes_outside_the_record(qubit, n):
    """A prefix length outside 1..len(traj) is named, not clamped to the record."""
    plan = small_plan(qubit, h=np.array([0.0]))
    traj = sample_trajectory(qubit.family, qubit.theta_star, 0, 100, seed=11)
    with pytest.raises(DomainError, match=rf"prefix length {n} "):
        mle_path(plan, [traj], [50, n])


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
