"""Monte-Carlo experiments checking the limit theorems at desk scale.

Each experiment draws seeded replications, compares empirical moments against
their analytic targets (per hidden component first, then on the mixture) and
returns a JSON-serializable report with targets, estimates, tolerances and a
pass flag.

Each experiment stream owns one generator, substream(master_seed, *key), on
which all of its replications are drawn (sample_count_paths):

    lamn          (TAG_LAMN, g, n) per component g and grid point n
    collapse      (TAG_COLLAPSE, g)
    consistency   (TAG_CONSIST, n)
    cramer_rao    (TAG_CRAMER, g), and (TAG_CRAMER, d) for the mixture
    purification  (TAG_PURIFY,)

The hidden components of a mixture stream are drawn on (TAG_MIXGAMMA, *tags):
(TAG_MIXGAMMA, TAG_LAMN), (TAG_MIXGAMMA, TAG_CONSIST, n),
(TAG_MIXGAMMA, TAG_CRAMER) and (TAG_MIXGAMMA, TAG_PURIFY).  Reruns with the
same master seed give bitwise identical reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConstructionError, DomainError, RefusalError, SingularFisherError
from .estimate import ScalarMaxima, log_terms, loglik, loglik_rows, logsumexp, maximize_scalar
from .model import (
    MixtureWeights,
    ParameterBox,
    ParametricFamily,
    fisher_information,
    kl_matrix,
)
from .simulate import CountVector, Trajectory, counts, sample_count_paths, substream

__all__ = [
    "ExperimentPlan",
    "log_likelihood_ratio",
    "lamn_experiment",
    "mixture_collapse_experiment",
    "consistency_experiment",
    "cramer_rao_experiment",
    "purification_experiment",
    "mle_path",
]

# Stream tags keep the RNG streams of the different experiments disjoint.
TAG_LAMN, TAG_COLLAPSE, TAG_CONSIST, TAG_CRAMER, TAG_PURIFY, TAG_MIXGAMMA = range(6)

SINGULAR_EIG_TOL = 1e-10

# Report-level tolerances (finite-n surrogates; the paper gives no finite-n bounds).
LAMN_MEAN_SIGMAS = 3.0
LAMN_VAR_RTOL = 0.10
# Stephens' 1% critical value of the Anderson-Darling normality statistic
# (mean and variance estimated), as tabulated by SciPy.
AD_CRIT_1PCT = 1.035
CRAMER_RATIO_BAND = (0.85, 1.15)
CRAMER_MIXTURE_RTOL = 0.10
COLLAPSE_SQRT_N_BOUND = 1e-6
COLLAPSE_QUANTILE = 0.95
COLLAPSE_RATE_SLACK = 0.5
PURIFY_LEVEL = 0.99
PURIFY_FRACTION = 0.95
PURIFY_TV_BOUND = 0.05


@dataclass(frozen=True)
class ExperimentPlan:
    """Shared experiment configuration.

    h is the local parameter shift (zero by default): replications under the
    shifted law use theta* + h/sqrt(n).  theta* must be interior to the box
    and every shifted parameter must stay inside it.
    """

    family: ParametricFamily
    q: MixtureWeights
    theta_star: np.ndarray
    h: Optional[np.ndarray] = None
    n_grid: tuple = (1_000, 5_000, 10_000)
    n_reps: int = 2_000
    master_seed: int = 0
    estimation_box: Optional[ParameterBox] = None

    def __post_init__(self):
        theta = np.atleast_1d(np.asarray(self.theta_star, dtype=float))
        if self.h is None:
            h = np.zeros_like(theta)
        else:
            h = np.atleast_1d(np.asarray(self.h, dtype=float))
        if h.shape != theta.shape:
            raise ConstructionError("h must have the same dimension as theta_star")
        box = self.family.box
        if not box.is_interior(theta):
            raise ConstructionError("theta_star must be interior to the box")
        for n in self.n_grid:
            if n >= 1 and not box.contains(theta + h / np.sqrt(n), atol=1e-12):
                raise ConstructionError(f"theta_star + h/sqrt({n}) leaves the box")
        if self.q.size != self.family.n_components:
            raise ConstructionError("q does not match the number of components")
        theta.setflags(write=False)
        h.setflags(write=False)
        object.__setattr__(self, "theta_star", theta)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "n_grid", tuple(int(n) for n in self.n_grid))

    def search_box(self) -> ParameterBox:
        return self.estimation_box if self.estimation_box is not None else self.family.box

    @cached_property
    def fisher(self) -> np.ndarray:
        """Every component's Fisher information at theta*, shape (d, D, D),
        evaluated once per plan and read-only."""
        m = fisher_information(self.family, self.theta_star)
        m.setflags(write=False)
        return m

    def check_hypotheses(self, scalar: bool = False) -> np.ndarray:
        """The Fisher stack at theta*, once the plan meets the hypotheses of the
        limit theorems; RefusalError otherwise.  An experiment that needs the
        scalar MLE (scalar=True) refuses D != 1 first; then every component's
        Fisher information must be non-singular at theta*."""
        if scalar and self.family.dim != 1:
            raise RefusalError(
                f"this experiment covers D = 1 only; the model has D = {self.family.dim}"
            )
        singular = np.linalg.eigvalsh(self.fisher)[:, 0] <= SINGULAR_EIG_TOL
        if singular.any():
            raise SingularFisherError(
                f"Fisher information of component {int(np.argmax(singular))} is singular at theta*"
            )
        return self.fisher


# ---------------------------------------------------------------------------
# Shared machinery
# ---------------------------------------------------------------------------

def log_likelihood_ratio(
    fam: ParametricFamily,
    q: MixtureWeights,
    counts: CountVector,
    theta_a,
    theta_b,
) -> float:
    """ln P_{theta_a} - ln P_{theta_b} of the observed record (mixture laws)."""
    la = loglik(fam, q, counts, theta_a)
    lb = loglik(fam, q, counts, theta_b)
    return counts.n * (la.value - lb.value)


def _draw_mixture_gammas(plan: ExperimentPlan, *tags: int) -> np.ndarray:
    """Hidden component of each replication, drawn from q on (TAG_MIXGAMMA, *tags)."""
    rng = substream(plan.master_seed, TAG_MIXGAMMA, *tags)
    return rng.choice(plan.q.size, size=plan.n_reps, p=plan.q.q)


def _scalar_mle(plan: ExperimentPlan) -> Callable[[np.ndarray], ScalarMaxima]:
    """The mixture MLE over the plan's search box, as a function of a matrix of
    count rows (one estimate and one boundary flag per row); D = 1 only.
    Rows may have different record lengths, so each experiment fits all of
    its rows in one call."""
    lo, hi = float(plan.search_box().lower[0]), float(plan.search_box().upper[0])
    return lambda counts_matrix: maximize_scalar(
        loglik_rows(plan.family, plan.q.log(), counts_matrix), lo, hi
    )


def _fit_blocks(plan: ExperimentPlan, blocks: list) -> tuple:
    """Fit blocks of n_reps count rows each in one _scalar_mle call; returns
    the estimates, boundary flags and evaluation counts, each shaped
    (len(blocks), n_reps)."""
    res = _scalar_mle(plan)(np.concatenate(blocks))
    return tuple(a.reshape(len(blocks), plan.n_reps) for a in (res.x, res.boundary, res.evaluations))


def _log_ndtr(w: np.ndarray) -> np.ndarray:
    """ln Phi(w) elementwise from math.erfc: ln of the lower tail below 0, log1p of minus
    the upper tail above it, and below -20, where erfc nears underflow, an asymptotic series."""
    z = np.abs(np.maximum(w, -20.0)) / math.sqrt(2)
    tail = np.array([math.erfc(x) for x in z.tolist()]) / 2          # Phi(-|w|)
    near = np.log(tail, out=np.log1p(-tail), where=w < 0)
    x, r = np.minimum(w, -20.0), 1.0
    for k in range(23, 0, -2):  # r = 1 - 1/x^2 + 1*3/x^4 - ..., exact to rounding at x <= -20
        r = 1 - k * r / (x * x)
    far = -0.5 * x * x - np.log(-x) - 0.5 * math.log(2 * math.pi) + np.log(r)
    return np.where(w < -20, far, near)


def _anderson_darling_normal(x: np.ndarray) -> tuple[float, float]:
    """Anderson-Darling A^2 of x against the normal law with estimated mean and
    variance, and its 1% critical value with Stephens' small-sample factor."""
    n = x.size
    w = (np.sort(x) - np.mean(x)) / np.std(x, ddof=1)
    i = np.arange(1, n + 1)
    a2 = -n - np.sum((2 * i - 1.0) / n * (_log_ndtr(w) + _log_ndtr(-w)[::-1]))
    crit = np.round(AD_CRIT_1PCT / (1.0 + 0.75 / n + 2.25 / n / n), 3)
    return float(a2), float(crit)


def _jsonable(x):
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        return _jsonable(x.tolist())
    if isinstance(x, (np.bool_, bool)):
        return bool(x)
    if isinstance(x, (np.floating, float)):
        return float(x)
    if isinstance(x, (np.integer, int)):
        return int(x)
    return x


# ---------------------------------------------------------------------------
# LAMN
# ---------------------------------------------------------------------------

def lamn_experiment(plan: ExperimentPlan) -> dict:
    """Sample the local log-likelihood ratio and compare against its limit law.

    Under the per-component law at theta*, ln P_{theta*+h/sqrt(n)} / P_{theta*}
    tends to N(-h'Ih/2, h'Ih) with I the component's Fisher information; over
    the mixture the limit is the q-weighted mixture of these Gaussians.
    Pass requires, per component at the largest n: empirical mean within
    3 standard errors of -h'Ih/2, variance within 10% of h'Ih, and the
    Anderson-Darling normality statistic below its 1% critical value.
    """
    fishers = plan.check_hypotheses()
    h = plan.h
    d = plan.family.n_components
    n_max = max(plan.n_grid)
    p_star = plan.family.prob_table(plan.theta_star)
    per_component: dict = {}
    all_pass = True
    samples_at_nmax = np.empty((d, plan.n_reps))

    for g in range(d):
        hih = float(h @ fishers[g] @ h)
        target_mean, target_var = -0.5 * hih, hih
        per_n = {}
        for n in plan.n_grid:
            theta_n = plan.theta_star + h / np.sqrt(n)
            rng = substream(plan.master_seed, TAG_LAMN, g, n)
            cm = sample_count_paths(p_star[np.full(plan.n_reps, g)], (n,), rng)[:, 0]
            lr = logsumexp(log_terms(plan.family, plan.q, cm, theta_n), axis=1) - logsumexp(
                log_terms(plan.family, plan.q, cm, plan.theta_star), axis=1
            )
            mean, var = float(lr.mean()), float(lr.var(ddof=1))
            se = np.sqrt(var / plan.n_reps)
            entry = {
                "n": n,
                "mean": mean,
                "var": var,
                "target_mean": target_mean,
                "target_var": target_var,
                "mean_se": float(se),
                "mean_ok": bool(abs(mean - target_mean) <= LAMN_MEAN_SIGMAS * se),
                "var_ok": bool(abs(var / target_var - 1.0) <= LAMN_VAR_RTOL) if hih > 0 else bool(var == 0.0),
            }
            if hih > 0 and var > 0:
                std = (lr - lr.mean()) / lr.std(ddof=1)
                stat, crit = _anderson_darling_normal(std)
                entry["ad_statistic"] = stat
                entry["ad_critical_1pct"] = crit
                entry["ad_ok"] = bool(stat < crit)
            per_n[n] = entry
            if n == n_max:
                samples_at_nmax[g] = lr
        final = per_n[n_max]
        comp_pass = final["mean_ok"] and final["var_ok"] and final.get("ad_ok", True)
        per_component[g] = {"fisher_quadratic": hih, "by_n": per_n, "passed": comp_pass}
        all_pass = all_pass and comp_pass

    # Mixture limit via Lemma-style aggregation: reweight the per-component
    # samples by drawn gammas.
    gammas = _draw_mixture_gammas(plan, TAG_LAMN)
    mixture_samples = samples_at_nmax[gammas, np.arange(plan.n_reps)]
    hih_all = np.einsum("i,gij,j->g", h, fishers, h)
    mix_mean_target = float(plan.q.q @ (-0.5 * hih_all))
    mix_second = plan.q.q @ (hih_all + 0.25 * hih_all**2)
    mix_var_target = float(mix_second - mix_mean_target**2)
    report = {
        "experiment": "lamn",
        "theta_star": plan.theta_star,
        "h": h,
        "n_grid": plan.n_grid,
        "n_reps": plan.n_reps,
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
    return _jsonable(report)


# ---------------------------------------------------------------------------
# Mixture collapse
# ---------------------------------------------------------------------------

def _log_collapse_ratio(
    fam: ParametricFamily, q: MixtureWeights, counts_matrix: np.ndarray, theta, gamma: int
) -> np.ndarray:
    """ln r_n with r_n = P_theta / (q(gamma) P_{theta|gamma}) - 1, exactly, for
    count rows of any leading shape.

    ln r_n is the log-sum of the other components' log terms minus the own
    term, evaluated in the log domain so exponentially small values keep full
    relative precision.
    """
    terms = log_terms(fam, q, counts_matrix, theta)
    others = np.delete(terms, gamma, axis=-1)
    if others.shape[-1] == 0:
        return np.full(terms.shape[:-1], -np.inf)
    return logsumexp(others, axis=-1) - terms[..., gamma]


def mixture_collapse_experiment(plan: ExperimentPlan) -> dict:
    """Exponential collapse of the mixture onto the realized component.

    Along records from component gamma, the ratio of the mixture likelihood to
    q(gamma) times the component likelihood tends to 1 exponentially fast, at
    rate at least min_{a != gamma} KL(gamma | a) at theta*.  Checked at both
    theta* and the shifted theta* + h/sqrt(n).
    """
    fam, q = plan.family, plan.q
    d = fam.n_components
    n_grid = sorted(plan.n_grid)
    n_max = n_grid[-1]
    theta_n = plan.theta_star + plan.h / np.sqrt(n_max)
    kl = kl_matrix(fam, plan.theta_star)
    p_star = fam.prob_table(plan.theta_star)
    per_component = {}
    all_pass = True

    for g in range(d):
        # One record per replication, counted at every n of the grid.
        rng = substream(plan.master_seed, TAG_COLLAPSE, g)
        cm = sample_count_paths(p_star[np.full(plan.n_reps, g)], n_grid, rng)
        log_r = _log_collapse_ratio(fam, q, cm, plan.theta_star, g)      # (R, K)
        log_r_shift = _log_collapse_ratio(fam, q, cm[:, -1], theta_n, g)

        sqrt_n_r = np.sqrt(n_max) * np.exp(log_r[:, -1])
        sqrt_n_r_shift = np.sqrt(n_max) * np.exp(log_r_shift)
        frac_ok = float(np.mean(sqrt_n_r < COLLAPSE_SQRT_N_BOUND))
        frac_ok_shift = float(np.mean(sqrt_n_r_shift < COLLAPSE_SQRT_N_BOUND))
        min_kl = float(np.min(np.delete(kl[g], g))) if d > 1 else np.inf
        if d > 1:
            # ln r_n ~ -rate * n; least-squares slope of the mean path.
            mean_log_r = log_r.mean(axis=0)
            ns = np.asarray(n_grid, dtype=float)
            rate = float(-np.polyfit(ns, mean_log_r, 1)[0])
            rate_ok = rate >= COLLAPSE_RATE_SLACK * min_kl
        else:
            rate, rate_ok = np.inf, True
        comp_pass = (
            frac_ok >= COLLAPSE_QUANTILE
            and frac_ok_shift >= COLLAPSE_QUANTILE
            and rate_ok
        )
        per_component[g] = {
            "min_kl": min_kl,
            "fitted_rate": rate,
            "rate_ok": bool(rate_ok),
            "sqrt_n_r_median": float(np.median(sqrt_n_r)),
            "fraction_below_bound": frac_ok,
            "fraction_below_bound_shifted": frac_ok_shift,
            "n_checked": n_max,
            "passed": bool(comp_pass),
        }
        all_pass = all_pass and comp_pass

    report = {
        "experiment": "collapse",
        "theta_star": plan.theta_star,
        "h": plan.h,
        "n_grid": n_grid,
        "n_reps": plan.n_reps,
        "master_seed": plan.master_seed,
        "bound": COLLAPSE_SQRT_N_BOUND,
        "per_component": per_component,
        "passed": all_pass,
    }
    return _jsonable(report)


# ---------------------------------------------------------------------------
# Consistency
# ---------------------------------------------------------------------------

def consistency_experiment(plan: ExperimentPlan) -> dict:
    """Error quantiles of the mixture MLE along the n grid; medians must fall.

    The replications of every n are fitted in one estimator call.  Each n
    also reports boundary_hits, the number of estimates on the edge of
    the search box, where the box truncates the error distribution, and
    max_evaluations, the most objective evaluations one record's refinement
    took.  A component Fisher information singular at theta* is refused.
    """
    plan.check_hypotheses(scalar=True)
    n_grid = sorted(plan.n_grid)
    p_star = plan.family.prob_table(plan.theta_star)
    blocks = []
    for n in n_grid:
        gammas = _draw_mixture_gammas(plan, TAG_CONSIST, n)
        cm = sample_count_paths(p_star[gammas], (n,), substream(plan.master_seed, TAG_CONSIST, n))
        blocks.append(cm[:, 0])
    x_hat, boundary, evaluations = _fit_blocks(plan, blocks)
    by_n = {}
    medians = []
    for k, n in enumerate(n_grid):
        errors = np.abs(x_hat[k] - plan.theta_star[0])
        med = float(np.median(errors))
        medians.append(med)
        by_n[n] = {
            "median_abs_error": med,
            "q90_abs_error": float(np.quantile(errors, 0.9)),
            "max_abs_error": float(errors.max()),
            "boundary_hits": int(boundary[k].sum()),
            "max_evaluations": int(evaluations[k].max()),
        }
    decreasing = all(b < a for a, b in zip(medians, medians[1:]))
    report = {
        "experiment": "consistency",
        "theta_star": plan.theta_star,
        "n_grid": n_grid,
        "n_reps": plan.n_reps,
        "master_seed": plan.master_seed,
        "by_n": by_n,
        "median_decreasing": decreasing,
        "passed": decreasing,
    }
    return _jsonable(report)


def mle_path(
    plan: ExperimentPlan,
    trajs: Sequence[Trajectory],
    n_points: Sequence[int],
) -> list[list[tuple[int, float]]]:
    """Mixture MLE along growing prefixes of each trajectory (D = 1, Fisher
    non-singular): one path of (n, theta_hat) per trajectory, n ascending.
    Every prefix of every trajectory is fitted in one estimator call.  A
    prefix length outside 1..len(traj) raises DomainError naming it."""
    plan.check_hypotheses(scalar=True)
    ns = sorted(int(n) for n in n_points)
    for n in ns:
        if n < 1:
            raise DomainError(f"prefix length {n} must be at least 1")
    l = plan.family.n_outcomes
    cm = np.stack([counts(traj, n, n_outcomes=l).counts for traj in trajs for n in ns])
    x_hat = _scalar_mle(plan)(cm).x.reshape(len(trajs), len(ns))
    return [list(zip(ns, path.tolist())) for path in x_hat]


# ---------------------------------------------------------------------------
# Cramer-Rao saturation
# ---------------------------------------------------------------------------

def cramer_rao_experiment(plan: ExperimentPlan) -> dict:
    """Efficiency of the MLE against the per-component inverse Fisher bound.

    Replications are generated under the shifted law theta* + h/sqrt(n) at the
    largest n.  Per realized component, the variance of sqrt(n)(theta_hat -
    theta* - h/sqrt(n)) must match 1/I(gamma) within the efficiency band; the
    mixture second moment must match sum_a q(a)/I(a) within 10%.  The
    replications of every component and of the mixture are fitted in one
    estimator call.  Each component and the mixture report boundary_hits,
    the number of estimates on the edge of the search box, which truncate
    the variance, and max_evaluations, the most objective evaluations one
    replication's refinement took; the verdict uses neither.
    """
    fishers = plan.check_hypotheses(scalar=True)[:, 0, 0]
    n = max(plan.n_grid)
    theta_n = plan.theta_star + plan.h / np.sqrt(n)
    p_n = plan.family.prob_table(theta_n)
    d = plan.family.n_components
    # Component g's replications on (TAG_CRAMER, g), the mixture's on (TAG_CRAMER, d).
    laws = [p_n[np.full(plan.n_reps, g)] for g in range(d)]
    laws.append(p_n[_draw_mixture_gammas(plan, TAG_CRAMER)])
    blocks = [
        sample_count_paths(p, (n,), substream(plan.master_seed, TAG_CRAMER, g))[:, 0]
        for g, p in enumerate(laws)
    ]
    x_hat, boundary, evaluations = _fit_blocks(plan, blocks)
    per_component = {}
    all_pass = True

    for g in range(d):
        root = np.sqrt(n) * (x_hat[g] - theta_n[0])
        var = float(root.var(ddof=1))
        target = 1.0 / fishers[g]
        ratio = var / target
        ok = CRAMER_RATIO_BAND[0] <= ratio <= CRAMER_RATIO_BAND[1]
        per_component[g] = {
            "fisher": float(fishers[g]),
            "var": var,
            "mean": float(root.mean()),
            "target_var": target,
            "efficiency_ratio": float(ratio),
            "boundary_hits": int(boundary[g].sum()),
            "max_evaluations": int(evaluations[g].max()),
            "passed": bool(ok),
        }
        all_pass = all_pass and ok

    root = np.sqrt(n) * (x_hat[d] - theta_n[0])
    second = float(np.mean(root**2))
    target_second = float(plan.q.q @ (1.0 / fishers))
    mix_ok = abs(second / target_second - 1.0) <= CRAMER_MIXTURE_RTOL
    all_pass = all_pass and mix_ok

    report = {
        "experiment": "cramer_rao",
        "theta_star": plan.theta_star,
        "h": plan.h,
        "n": n,
        "n_reps": plan.n_reps,
        "master_seed": plan.master_seed,
        "per_component": per_component,
        "mixture": {
            "second_moment": second,
            "target": target_second,
            "ratio": second / target_second,
            "boundary_hits": int(boundary[d].sum()),
            "max_evaluations": int(evaluations[d].max()),
            "passed": bool(mix_ok),
        },
        "efficiency_band": CRAMER_RATIO_BAND,
        "passed": all_pass,
    }
    return _jsonable(report)


# ---------------------------------------------------------------------------
# Posterior purification
# ---------------------------------------------------------------------------

def purification_experiment(plan: ExperimentPlan) -> dict:
    """Posterior concentration on the realized component.

    Posteriors come from cumulative outcome counts, as in filter_trajectory;
    by exchangeability they equal the step-by-step Bayes filter, the loop the
    tests keep as their reference.  Reports the fraction of runs with
    q_n(gamma) > 0.99 at each n and the total-variation distance between the
    law of argmax q_n at the largest n and the mixture weights q.
    """
    fam, q = plan.family, plan.q
    n_grid = sorted(plan.n_grid)
    n_max = n_grid[-1]
    gammas = _draw_mixture_gammas(plan, TAG_PURIFY)
    p_star = fam.prob_table(plan.theta_star)
    cm = sample_count_paths(p_star[gammas], n_grid, substream(plan.master_seed, TAG_PURIFY))
    terms = log_terms(fam, q, cm, plan.theta_star)                         # (R, K, d)
    post = np.exp(terms - logsumexp(terms, axis=-1)[..., None])
    purified = post[np.arange(plan.n_reps), :, gammas] > PURIFY_LEVEL      # (R, K)
    fractions = {n: float(purified[:, k].mean()) for k, n in enumerate(n_grid)}
    argmax_counts = np.bincount(post[:, -1].argmax(axis=-1), minlength=fam.n_components)
    empirical = argmax_counts / plan.n_reps
    tv = 0.5 * float(np.abs(empirical - q.q).sum())
    frac_ok = fractions[n_max] >= PURIFY_FRACTION
    tv_ok = tv <= PURIFY_TV_BOUND
    report = {
        "experiment": "purification",
        "theta_star": plan.theta_star,
        "n_grid": n_grid,
        "n_reps": plan.n_reps,
        "master_seed": plan.master_seed,
        "fraction_purified": fractions,
        "argmax_distribution": empirical,
        "tv_distance_to_q": tv,
        "passed": bool(frac_ok and tv_ok),
    }
    return _jsonable(report)
