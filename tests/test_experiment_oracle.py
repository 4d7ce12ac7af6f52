"""Oracle for the per-component experiments: the hand-written lamn and the
per-component draws that lamn, collapse and cramer_rao each made before they
shared asymptotics._component_counts, kept as references that today's code
must reproduce byte for byte."""

import json

import numpy as np
import pytest

from qndmix import asymptotics as asym
from qndmix.asymptotics import (
    LAMN_MEAN_SIGMAS,
    LAMN_VAR_RTOL,
    TAG_COLLAPSE,
    TAG_CRAMER,
    TAG_LAMN,
    ExperimentPlan,
    _anderson_darling_normal,
    _draw_mixture_gammas,
    lamn_experiment,
)
from qndmix.estimate import _log_terms, log_terms, logsumexp
from qndmix.presets import get_preset
from qndmix.simulate import sample_count_paths, substream

from conftest import without_gates


def reference_lamn_counts(plan, laws, n):
    """lamn's draw at one n: component g's records on (TAG_LAMN, g, n), (d, R, l)."""
    return np.stack([
        sample_count_paths(laws[g:g + 1], (n,), [substream(plan.master_seed, TAG_LAMN, g, n)],
                           size=plan.n_reps)[0, :, 0]
        for g in range(plan.family.n_components)
    ])


def reference_collapse_counts(plan, laws, n_grid):
    """collapse's draw: component g's records on (TAG_COLLAPSE, g), (d, R, K, l)."""
    return np.stack([
        sample_count_paths(laws[g:g + 1], n_grid, [substream(plan.master_seed, TAG_COLLAPSE, g)],
                           size=plan.n_reps)[0]
        for g in range(plan.family.n_components)
    ])


def reference_cramer_blocks(plan, laws, n):
    """cramer_rao's component blocks: component g's records on (TAG_CRAMER, g)."""
    return [
        sample_count_paths(laws[g:g + 1], (n,), [substream(plan.master_seed, TAG_CRAMER, g)],
                           size=plan.n_reps)[0, :, 0]
        for g in range(plan.family.n_components)
    ]


def reference_lamn(plan: ExperimentPlan) -> dict:
    """lamn_experiment as it was written before it shared the per-component
    draw and report helpers: a g x n loop building each entry by hand."""
    fishers = plan.check_hypotheses()
    fam, q, h, reps = plan.family, plan.q, plan.h, plan.n_reps
    n_max = max(plan.n_grid)
    p_star, _, log_p_star = plan.star
    hih = np.einsum("i,gij,j->g", h, fishers, h)
    tested = hih > 0
    by_n = {}

    for n in plan.n_grid:
        theta_n = plan.theta_star + h / np.sqrt(n)
        cm = reference_lamn_counts(plan, p_star, n)
        lr = logsumexp(log_terms(fam, q, cm, theta_n), axis=-1) - logsumexp(
            _log_terms(q, cm, log_p_star), axis=-1
        )
        mean, var = lr.mean(axis=1), lr.var(axis=1, ddof=1)
        ad_rows = np.flatnonzero(tested & (var > 0))
        rows = lr[ad_rows]
        stats, crit = _anderson_darling_normal(
            (rows - rows.mean(axis=1, keepdims=True)) / rows.std(axis=1, ddof=1, keepdims=True)
        )
        by_n[n] = (mean, var, np.sqrt(var / reps), dict(zip(ad_rows.tolist(), stats.tolist())), crit)
        if n == n_max:
            samples_at_nmax = lr

    per_component: dict = {}
    all_pass = True
    for g, hih_g in enumerate(hih.tolist()):
        per_n = {}
        target_mean, target_var = -0.5 * hih_g, hih_g
        for n, (mean, var, se, ad, crit) in by_n.items():
            entry = {
                "n": n,
                "mean": float(mean[g]),
                "var": float(var[g]),
                "target_mean": target_mean,
                "target_var": target_var,
                "mean_se": float(se[g]),
                "mean_ok": bool(abs(mean[g] - target_mean) <= LAMN_MEAN_SIGMAS * se[g]),
                "var_ok": bool(abs(var[g] / target_var - 1.0) <= LAMN_VAR_RTOL) if tested[g] else bool(var[g] == 0.0),
            }
            if g in ad:
                entry["ad_statistic"] = ad[g]
                entry["ad_critical_1pct"] = crit
                entry["ad_ok"] = bool(ad[g] < crit)
            per_n[str(n)] = entry
        final = per_n[str(n_max)]
        comp_pass = final["mean_ok"] and final["var_ok"] and final.get("ad_ok", True)
        per_component[str(g)] = {"fisher_quadratic": hih_g, "by_n": per_n, "passed": comp_pass}
        all_pass = all_pass and comp_pass

    gammas = _draw_mixture_gammas(plan, TAG_LAMN)
    mixture_samples = samples_at_nmax[gammas, np.arange(reps)]
    mix_mean_target = float(q.q @ (-0.5 * hih))
    mix_second = q.q @ (hih + 0.25 * hih**2)
    mix_var_target = float(mix_second - mix_mean_target**2)
    return {
        "experiment": "lamn",
        "theta_star": plan.theta_star.tolist(),
        "h": h.tolist(),
        "n_grid": list(plan.n_grid),
        "n_reps": reps,
        "master_seed": plan.master_seed,
        "per_component": per_component,
        "mixture": {
            "mean": float(mixture_samples.mean()),
            "var": float(mixture_samples.var(ddof=1)),
            "target_mean": mix_mean_target,
            "target_var": mix_var_target,
        },
        "passed": all_pass,
    }


def plan_of(preset, seed, h, n_grid):
    p = get_preset(preset)
    return ExperimentPlan(family=p.family, q=p.q, theta_star=p.theta_star, h=h, n_grid=n_grid,
                          n_reps=40, master_seed=seed, estimation_box=p.estimation_box)


CASES = [
    ([1.0], (200, 500, 1000)),     # the CLI's default shift
    ([0.0], (200, 500, 1000)),     # nothing to test: no Anderson-Darling entries
    ([1.0], (1000, 200, 500)),     # an unsorted grid keeps its order in by_n
]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("preset", ["toy_haroche", "qubit_rotation"])
@pytest.mark.parametrize("h, n_grid", CASES)
def test_lamn_report_matches_the_reference_bytes(h, n_grid, preset, seed):
    plan = plan_of(preset, seed, h, n_grid)
    report = without_gates(lamn_experiment(plan))
    assert json.dumps(report, indent=2) == json.dumps(reference_lamn(plan), indent=2)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("preset", ["toy_haroche", "qubit_rotation"])
def test_component_counts_are_the_reference_draws(preset, seed):
    plan = plan_of(preset, seed, [1.0], (200, 500, 1000))
    laws = plan.family.prob_table(plan.theta_star + plan.h / np.sqrt(1000))
    for n in plan.n_grid:
        np.testing.assert_array_equal(asym._component_counts(plan, laws, (n,), TAG_LAMN, n)[:, :, 0],
                                      reference_lamn_counts(plan, laws, n))
    np.testing.assert_array_equal(asym._component_counts(plan, laws, (200, 500, 1000), TAG_COLLAPSE),
                                  reference_collapse_counts(plan, laws, (200, 500, 1000)))
    np.testing.assert_array_equal(asym._component_counts(plan, laws, (1000,), TAG_CRAMER)[:, :, 0],
                                  np.stack(reference_cramer_blocks(plan, laws, 1000)))
