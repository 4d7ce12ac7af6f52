"""Output checks that hold for any workload seed.

Nothing here stores per-seed bytes.  Estimates are judged against a
brute-force grid oracle of the likelihood (the acceptance suite's
criterion-2 oracle), seed-free report targets against closed forms, and
sample statistics against bands whose width is derived from the replication
count: a broken estimator or sampler falls outside them, an unlucky seed
does not.  Each check returns a list of failure messages; empty means pass.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import logsumexp

from qndmix.presets import VISIBILITY, Preset

ORACLE_POINTS = 8001
# l(theta_hat) may sit this far below the grid maximum (normalized log-lik).
ORACLE_EPS = 1e-9
# Closed-form targets are computed along a different path than the report;
# they agree to rounding.
TARGET_RTOL = 1e-8
# Band half-widths are Z_BAND sampling standard deviations plus a fixed
# allowance for finite-n bias; the acceptance suite gates at 3 sigma.
Z_BAND = 6.0


def close(a: float, b: float, rtol: float = TARGET_RTOL) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


class Oracle:
    """Normalized mixture log-likelihood of one preset, on a fine grid and at points.

    The grid tables are built once, at preparation time, so each check costs a
    matrix product.
    """

    def __init__(self, preset: Preset):
        self.preset = preset
        fam = preset.family
        self.logq = preset.q.log()
        if fam.dim == 1:
            box = preset.search_box()
            grid = np.linspace(box.lower[0], box.upper[0], ORACLE_POINTS)
            self.logp_grid = np.log(np.stack([fam.prob_table([x]) for x in grid]))
        else:
            self.logp_grid = None

    def loglik(self, counts: np.ndarray, theta) -> float:
        logp = np.log(self.preset.family.prob_table(np.atleast_1d(theta)))
        return float(logsumexp(logp @ counts + self.logq)) / counts.sum()

    def grid_max(self, counts: np.ndarray) -> float:
        vals = logsumexp(self.logp_grid @ counts + self.logq[None, :], axis=1)
        return float(vals.max()) / counts.sum()


def check_argmax(oracle: Oracle, counts: np.ndarray, theta_hat, what: str) -> list:
    """D = 1: l(theta_hat) >= grid max - eps.  D > 1: l(theta_hat) >= l(theta*)."""
    value = oracle.loglik(counts, theta_hat)
    if oracle.logp_grid is not None:
        ref, ref_name = oracle.grid_max(counts), "grid maximum"
    else:
        ref, ref_name = oracle.loglik(counts, oracle.preset.theta_star), "l(theta*)"
    if value < ref - ORACLE_EPS:
        return [f"{what}: l(theta_hat)={value:.12g} below {ref_name} {ref:.12g}"]
    return []


def check_estimate_report(oracle: Oracle, counts: np.ndarray, report: dict) -> list:
    """Invariants of a CLI estimate report: its log-likelihood, posterior and Fisher."""
    pre = oracle.preset
    theta_hat = np.asarray(report["theta_hat"], dtype=float)
    errors = []
    value = oracle.loglik(counts, theta_hat)
    if not close(report["loglik_at_max"], value, 1e-9):
        errors.append(f"estimate: loglik_at_max {report['loglik_at_max']} != {value}")
    if abs(sum(report["posterior_at_hat"]) - 1.0) > 1e-9:
        errors.append("estimate: posterior does not sum to 1")
    if pre.fisher_closed_form is not None:
        for g, m in enumerate(report["fisher_at_hat"]):
            want = pre.fisher_closed_form(float(theta_hat[0]), g)
            if not close(m[0][0], want):
                errors.append(f"estimate: Fisher of component {g} {m[0][0]} != closed form {want}")
    return errors


def check_path_ends(ends: list, n_max: int, what: str) -> list:
    return [f"{what}: path {k} ends at n={n}" for k, (n, _) in enumerate(ends) if n != n_max]


def check_filter(oracle: Oracle, outcomes: np.ndarray, theta, final_q: np.ndarray) -> list:
    """Exchangeability: the filtered posterior equals the posterior from counts."""
    fam = oracle.preset.family
    counts = np.bincount(outcomes, minlength=fam.n_outcomes)
    terms = oracle.logq + np.log(fam.prob_table(np.atleast_1d(theta))) @ counts
    post = np.exp(terms - logsumexp(terms))
    if np.max(np.abs(post - final_q)) > 1e-9:
        return [f"filter: final posterior {final_q} != posterior from counts {post}"]
    return []


# ---------------------------------------------------------------------------
# Experiments on toy_haroche
# ---------------------------------------------------------------------------

def toy_kl_min(alpha: np.ndarray, theta: float) -> np.ndarray:
    """min over a != g of KL(p(.|g) || p(.|a)) from the toy closed form."""
    phases = np.outer(alpha, [theta] * 4) + (2 - np.arange(4)) * math.pi / 4
    cos = np.cos(phases)
    p = np.concatenate([(1 + VISIBILITY * cos) / 8, (1 - VISIBILITY * cos) / 8], axis=1)
    kl = np.sum(p[:, None, :] * (np.log(p)[:, None, :] - np.log(p)[None, :, :]), axis=2)
    np.fill_diagonal(kl, np.inf)
    return kl.min(axis=1)


def fishers(pre: Preset) -> np.ndarray:
    theta = float(pre.theta_star[0])
    return np.array([pre.fisher_closed_form(theta, g) for g in range(pre.family.n_components)])


def check_cramer_rao(pre: Preset, report: dict) -> list:
    """Seed-free targets of one cramer_rao report."""
    fis = fishers(pre)
    errors = []
    for g, e in report["per_component"].items():
        if not close(e["fisher"], fis[int(g)]) or not close(e["target_var"], 1.0 / fis[int(g)]):
            errors.append(f"cramer_rao: component {g} Fisher {e['fisher']} != {fis[int(g)]}")
    if not close(report["mixture"]["target"], float(pre.q.q @ (1.0 / fis))):
        errors.append("cramer_rao: mixture target != sum q/I")
    return errors


def check_cramer_rao_pooled(pre: Preset, reports: list) -> list:
    """Pooled efficiency over independent calls: wide bands around the bound.

    Each call's per-component var is unbiased for the estimator variance, so
    their mean over K calls of R replications has K(R-1) degrees of freedom.
    """
    if not reports:
        return []
    fis = fishers(pre)
    k, r = len(reports), reports[0]["n_reps"]
    errors = []
    for g, fi in enumerate(fis):
        target = 1.0 / fi
        ratio = np.mean([rep["per_component"][str(g)]["var"] for rep in reports]) / target
        band = 0.15 + Z_BAND * math.sqrt(2.0 / (k * (r - 1)))
        if abs(ratio - 1.0) > band:
            errors.append(f"cramer_rao: pooled efficiency of component {g} {ratio:.3f} outside 1 +/- {band:.3f}")
        mean = np.mean([rep["per_component"][str(g)]["mean"] for rep in reports])
        if abs(mean) > Z_BAND * math.sqrt(target / (k * r)) + 0.1 * math.sqrt(target):
            errors.append(f"cramer_rao: pooled bias of component {g} {mean:.3f} too large")
    var = 1.0 / fis
    second = float(pre.q.q @ var)
    kurt = 3.0 * float(pre.q.q @ var**2) / second**2 - 1.0
    ratio = np.mean([rep["mixture"]["second_moment"] for rep in reports]) / second
    band = 0.15 + Z_BAND * math.sqrt(kurt / (k * r))
    if abs(ratio - 1.0) > band:
        errors.append(f"cramer_rao: pooled mixture ratio {ratio:.3f} outside 1 +/- {band:.3f}")
    return errors


def check_lamn(pre: Preset, report: dict) -> list:
    fis = fishers(pre)
    h = float(report["h"][0])
    r = report["n_reps"]
    errors = []
    for g, e in report["per_component"].items():
        hih = h * h * fis[int(g)]
        if not close(e["fisher_quadratic"], hih):
            errors.append(f"lamn: component {g} h'Ih {e['fisher_quadratic']} != {hih}")
        for entry in e["by_n"].values():
            if not close(entry["target_mean"], -0.5 * hih) or not close(entry["target_var"], hih):
                errors.append(f"lamn: component {g} targets differ from the closed form")
            if abs(entry["mean"] + 0.5 * hih) > Z_BAND * math.sqrt(hih / r) + 0.02 * hih:
                errors.append(f"lamn: component {g} mean {entry['mean']:.4f} far from {-0.5 * hih:.4f}")
            if abs(entry["var"] / hih - 1.0) > 0.1 + Z_BAND * math.sqrt(2.0 / (r - 1)):
                errors.append(f"lamn: component {g} var {entry['var']:.4f} far from {hih:.4f}")
    hih_all = h * h * fis
    mix_mean = float(pre.q.q @ (-0.5 * hih_all))
    mix_var = float(pre.q.q @ (hih_all + 0.25 * hih_all**2)) - mix_mean**2
    if not close(report["mixture"]["target_mean"], mix_mean) or not close(
        report["mixture"]["target_var"], mix_var
    ):
        errors.append("lamn: mixture targets differ from the closed form")
    return errors


def check_purification(pre: Preset, report: dict) -> list:
    r = report["n_reps"]
    q = pre.q.q
    errors = []
    n_max = str(max(report["n_grid"]))
    floor = 0.95 - Z_BAND * math.sqrt(0.05 * 0.95 / r)
    if report["fraction_purified"][n_max] < floor:
        errors.append(f"purification: fraction at n={n_max} below {floor:.3f}")
    tv_bound = 0.05 + Z_BAND * 0.5 * float(np.sum(np.sqrt(q * (1 - q) / r)))
    if report["tv_distance_to_q"] > tv_bound:
        errors.append(f"purification: TV {report['tv_distance_to_q']:.4f} above {tv_bound:.4f}")
    if abs(sum(report["argmax_distribution"]) - 1.0) > 1e-9:
        errors.append("purification: argmax distribution does not sum to 1")
    return errors


def check_collapse(pre: Preset, report: dict) -> list:
    alpha = np.asarray(pre.component_values, dtype=float)
    min_kl = toy_kl_min(alpha, float(pre.theta_star[0]))
    r = report["n_reps"]
    floor = 0.95 - Z_BAND * math.sqrt(0.05 * 0.95 / r)
    errors = []
    for g, e in report["per_component"].items():
        if not close(e["min_kl"], min_kl[int(g)]):
            errors.append(f"collapse: component {g} min_kl {e['min_kl']} != {min_kl[int(g)]}")
        if e["fraction_below_bound"] < floor or e["fraction_below_bound_shifted"] < floor:
            errors.append(f"collapse: component {g} fraction below bound under {floor:.3f}")
        if not e["fitted_rate"] > 0.25 * min_kl[int(g)]:
            errors.append(f"collapse: component {g} rate {e['fitted_rate']:.4f} not positive enough")
    return errors
