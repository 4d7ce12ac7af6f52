"""The experiments of every subcommand.

The Monte-Carlo experiments draw seeded replications, compare empirical
moments against their analytic targets (per hidden component first, then on
the mixture) and return a report with targets, estimates and tolerances;
estimate and fig1 fit seeded single records.  Each lists its checks as named
gates, which _verdict alone turns into the report's passed.  Every report is
built of JSON values: string keys, lists, and Python str, int, float and
bool leaves, each array read with one .tolist().

Each experiment stream owns one generator, substream(master_seed, *key), on
which all of its replications are drawn (sample_count_paths).  The streams of
one component, in lamn, collapse and cramer_rao, draw their n_reps records
from that component's one outcome law, every component's in one call; the
mixture streams, cramer_rao's d, consistency and purification, from one law
per record, that of its drawn component:

    lamn          (TAG_LAMN, g, n) per component g and grid point n
    collapse      (TAG_COLLAPSE, g)
    consistency   (TAG_CONSIST, n)
    cramer_rao    (TAG_CRAMER, g), and (TAG_CRAMER, d) for the mixture
    purification  (TAG_PURIFY,)

The hidden components of a mixture stream are drawn on (TAG_MIXGAMMA, *tags):
(TAG_MIXGAMMA, TAG_LAMN), (TAG_MIXGAMMA, TAG_CONSIST, n),
(TAG_MIXGAMMA, TAG_CRAMER) and (TAG_MIXGAMMA, TAG_PURIFY).  estimate draws
its record on master_seed, fig1 its record k on master_seed * FIG1_SEEDS + k.
Reruns with the same master seed give bitwise identical reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import ConstructionError, DomainError, RefusalError, SingularFisherError, _integral
from .estimate import COARSE_POINTS, EstimationReport, _fit, _log_terms, log_terms, logsumexp, mle
from .model import (
    MixtureWeights,
    ParameterBox,
    ParametricFamily,
    _fisher_from_tables,
    _kl_matrix,
    fisher_information,  # noqa: F401  (perfbench's tracer test wraps asymptotics.fisher_information)
)
from .simulate import (
    MAX_RECORD_LENGTH,
    Trajectory,
    _draw_record,
    counts,
    sample_component,
    sample_count_paths,
    sample_mixture_trajectory,
    substream,
)

__all__ = [
    "ExperimentPlan",
    "estimate_experiment",
    "fig1_experiment",
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
FIG1_SEEDS = 10
FIG1_N_MAX = 10_000
FIG1_TOLERANCE = 0.02


@dataclass(frozen=True)
class ExperimentPlan:
    """Shared experiment configuration.

    h is the local parameter shift (zero by default): replications under the
    shifted law use theta* + h/sqrt(n).  theta* must be interior to the box
    and every shifted parameter must stay inside it.  n_grid holds distinct
    integral record lengths from 1 to MAX_RECORD_LENGTH = 2**53, the largest
    count float64 holds exactly (1000.0 is one, 250.5 is refused);
    n_reps, the replications per stream, is integral by the same rule and at
    least 2, so that every sample variance is defined, and small enough that
    numpy can describe the largest array an experiment makes from the plan
    (at most np.iinfo(np.intp).max bytes); master_seed is integral by the
    same rule and at least 0, as every generator's entropy must be.  Each is
    stored as a Python int, as the reports hold it.

    The family is evaluated at theta* once per plan (star): the Fisher stack,
    the outcome laws the experiments draw from at theta*, ln p there, the KL
    matrix there and the records of fig1 all come from that one table and
    its Jacobian.  A shifted law theta* + h/sqrt(n) is evaluated by the
    family, at h = 0 too.
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
        box = self.family.box
        if theta.shape != box.lower.shape:
            raise ConstructionError(f"theta_star has shape {theta.shape}; the model has D = {box.dimension}")
        if self.h is None:
            h = np.zeros_like(theta)
        else:
            h = np.atleast_1d(np.asarray(self.h, dtype=float))
        if h.shape != theta.shape:
            raise ConstructionError("h must have the same dimension as theta_star")
        if not box.is_interior(theta):
            raise ConstructionError("theta_star must be interior to the box")
        n_reps = _integral(self.n_reps, "n_reps", ConstructionError)
        if n_reps < 2:
            raise ConstructionError(f"n_reps {n_reps} must be at least 2")
        master_seed = _integral(self.master_seed, "master_seed", ConstructionError)
        if master_seed < 0:
            raise ConstructionError(f"master_seed {master_seed} must be at least 0")
        n_grid = tuple(_integral(n, "n_grid entry", ConstructionError) for n in self.n_grid)
        if not n_grid:
            raise ConstructionError("n_grid must not be empty")
        for k, n in enumerate(n_grid):
            if n < 1:
                raise ConstructionError(f"n_grid entry {n} must be at least 1")
            if n > MAX_RECORD_LENGTH:
                raise ConstructionError(f"n_grid entry {n} exceeds {MAX_RECORD_LENGTH}, the largest count "
                                        f"float64 holds exactly")
            if n in n_grid[:k]:
                raise ConstructionError(f"n_grid entry {n} appears more than once")
            if not box.contains(theta + h / np.sqrt(n)):
                raise ConstructionError(f"theta_star + h/sqrt({n}) leaves the box")
        if self.q.size != self.family.n_components:
            raise ConstructionError("q does not match the number of components")
        # The largest array an experiment makes from the plan, of 8-byte
        # entries: collapse's counts (d, R, K, l) and log terms (d, R, K, d),
        # or the count rows and scan values of the (d + 1) R rows cramer_rao
        # fits or the K R rows consistency fits.
        d, l, k = self.family.n_components, self.family.n_outcomes, len(n_grid)
        largest = 8 * n_reps * max(d * k * max(l, d), max(d + 1, k) * max(l, COARSE_POINTS))
        if largest > np.iinfo(np.intp).max:
            raise ConstructionError(f"n_reps {n_reps} needs an array of {largest} bytes, more than numpy can "
                                    f"describe ({np.iinfo(np.intp).max})")
        theta.setflags(write=False)
        h.setflags(write=False)
        object.__setattr__(self, "theta_star", theta)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "n_grid", n_grid)
        object.__setattr__(self, "n_reps", n_reps)
        object.__setattr__(self, "master_seed", master_seed)

    def search_box(self) -> ParameterBox:
        return self.estimation_box if self.estimation_box is not None else self.family.box

    @cached_property
    def star(self) -> tuple:
        """(p, dp, ln p) at theta*: the table (d, l) and its Jacobian
        (D, d, l) from one family.tables call per plan, with the table's
        logarithm; all read-only."""
        p, dp = self.family.tables(self.theta_star)
        star = (p, dp, np.log(p))
        for a in star:
            a.setflags(write=False)
        return star

    @cached_property
    def fisher(self) -> np.ndarray:
        """Every component's Fisher information at theta*, shape (d, D, D),
        from star's table and Jacobian, read-only."""
        m = _fisher_from_tables(*self.star[:2])
        m.setflags(write=False)
        return m

    def check_hypotheses(self, fit_at: Optional[np.ndarray] = None) -> np.ndarray:
        """The Fisher stack at theta*, once the plan meets the hypotheses of the
        limit theorems; RefusalError otherwise.  An experiment that fits the
        scalar MLE passes the point its estimates should recover as fit_at,
        and refuses D != 1 first; then every component's Fisher information
        must be non-singular at theta*; then fit_at must be interior to the
        search box, as outside it the estimates pile up on the box edge and
        the verdict measures the box, not the estimator."""
        if fit_at is not None and self.family.dim != 1:
            raise RefusalError(
                f"this experiment covers D = 1 only; the model has D = {self.family.dim}"
            )
        singular = np.linalg.eigvalsh(self.fisher)[:, 0] <= SINGULAR_EIG_TOL
        if singular.any():
            raise SingularFisherError(
                f"Fisher information of component {int(np.argmax(singular))} is singular at theta*"
            )
        box = self.search_box()
        if fit_at is not None and not box.is_interior(fit_at):
            raise RefusalError(
                f"the fitted point theta = {fit_at} is not interior to the search box "
                f"[{box.lower}, {box.upper}]"
            )
        return self.fisher


# ---------------------------------------------------------------------------
# Shared machinery
# ---------------------------------------------------------------------------

def _draw_mixture_gammas(plan: ExperimentPlan, *tags: int) -> np.ndarray:
    """Hidden component of each replication, drawn from q on (TAG_MIXGAMMA, *tags)."""
    return plan.q.draw(substream(plan.master_seed, TAG_MIXGAMMA, *tags), plan.n_reps)


def _fit_blocks(plan: ExperimentPlan, blocks: list) -> tuple:
    """The mixture MLE over the plan's search box of blocks of n_reps count
    rows each, fitted in one call (the rows may have different record
    lengths); returns the estimates, boundary flags and evaluation counts,
    each shaped (len(blocks), n_reps)."""
    res = _fit(plan.family, plan.q.log(), np.concatenate(blocks), plan.search_box())
    return tuple(a.reshape(len(blocks), plan.n_reps) for a in (res.x, res.boundary, res.evaluations))


def _log_ndtr_pair(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ln Phi(w) and ln Phi(-w) elementwise, from one math.erfc evaluation of the
    tail t = Phi(-|w|) per entry: ln t on the side below 0, log1p(-t) on the side
    above it, and below -20, where erfc nears underflow, an asymptotic series
    evaluated on those entries alone."""
    a = np.abs(w)
    z = (a / math.sqrt(2)).ravel().tolist()
    tail = np.fromiter(map(math.erfc, z), float, len(z)).reshape(a.shape) / 2
    body = np.log1p(-tail)
    far = a > 20
    low = np.log(tail, out=np.empty_like(tail), where=~far)           # ln Phi(-|w|)
    x, r = -a[far], 1.0
    for k in range(23, 0, -2):  # r = 1 - 1/x^2 + 1*3/x^4 - ..., exact to rounding at x < -20
        r = 1 - k * r / (x * x)
    low[far] = -0.5 * x * x - np.log(-x) - 0.5 * math.log(2 * math.pi) + np.log(r)
    return np.where(w < 0, low, body), np.where(w > 0, low, body)


def _anderson_darling_normal(x: np.ndarray) -> tuple[np.ndarray, float]:
    """Anderson-Darling A^2 of each row of x (shape (..., R)) against the normal
    law with that row's estimated mean and variance, shape (...), and the 1%
    critical value with Stephens' small-sample factor for R samples."""
    n = x.shape[-1]
    w = (np.sort(x, axis=-1) - np.mean(x, axis=-1, keepdims=True)) / np.std(
        x, axis=-1, ddof=1, keepdims=True
    )
    lower, upper = _log_ndtr_pair(w)
    i = np.arange(1, n + 1)
    a2 = -n - np.sum((2 * i - 1.0) / n * (lower + upper[..., ::-1]), axis=-1)
    crit = np.round(AD_CRIT_1PCT / (1.0 + 0.75 / n + 2.25 / n / n), 3)
    return a2, float(crit)


def _component_counts(plan: ExperimentPlan, laws, n_grid, tag: int, *key: int) -> np.ndarray:
    """Count paths of n_reps records per component, shape (d, R, K, l), from
    one sample_count_paths call: component g's drawn from its one outcome
    law laws[g] on substream(master_seed, tag, g, *key)."""
    streams = [substream(plan.master_seed, tag, g, *key) for g in range(len(laws))]
    return sample_count_paths(laws, n_grid, streams, size=plan.n_reps)


def _per_component(columns: dict) -> dict:
    """{str(g): {name: column[g]}} from columns of one entry per component,
    each read with one .tolist(), so that the entries are Python scalars."""
    rows = zip(*(column.tolist() for column in columns.values()))
    return {str(g): dict(zip(columns, row)) for g, row in enumerate(rows)}


def _gates(name: str, statistic, bound, passed, at=None) -> list:
    """Gates {name, statistic, bound, passed}: statistic and bound are the sides
    of the comparison that gave passed (a list bound is a band [lo, hi], True a
    flag).  A bool passed gives one gate, an array one per entry k, named
    name.format(at[k]) (at: 0, 1, ...), each array read with one .tolist()."""
    if not isinstance(passed, np.ndarray):
        return [{"name": name, "statistic": statistic, "bound": bound, "passed": passed}]
    columns = [c.tolist() if isinstance(c, np.ndarray) else [c] * len(passed) for c in (statistic, bound, passed)]
    return [{"name": name.format(g), "statistic": s, "bound": b, "passed": p}
            for g, s, b, p in zip(range(len(passed)) if at is None else at, *columns)]


def _verdict(report: dict, gates: list) -> dict:
    """The report with passed (every gate passed) and the gates appended: the one verdict rule."""
    report["passed"] = all(gate["passed"] for gate in gates)
    report["gates"] = gates
    return report


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

    Per n, each component's replications are drawn on their own stream and
    stacked; one likelihood pass at each of theta_n and theta* and one
    moment and Anderson-Darling pass then cover every component at once.
    The laws, ln p at theta* and the Fisher stack come from the plan's one
    table at theta* (ExperimentPlan.star).
    """
    fishers = plan.check_hypotheses()
    fam, q, h, reps = plan.family, plan.q, plan.h, plan.n_reps
    n_max = max(plan.n_grid)
    p_star, _, log_p_star = plan.star
    hih = np.einsum("i,gij,j->g", h, fishers, h)
    tested = hih > 0
    target_mean = -0.5 * hih
    by_n = {}

    for n in plan.n_grid:
        theta_n = plan.theta_star + h / np.sqrt(n)
        cm = _component_counts(plan, p_star, (n,), TAG_LAMN, n)[:, :, 0]      # (d, R, l)
        lr = logsumexp(log_terms(fam, q, cm, theta_n), axis=-1) - logsumexp(
            _log_terms(q, cm, log_p_star), axis=-1
        )                                                                   # (d, R)
        mean, var = lr.mean(axis=1), lr.var(axis=1, ddof=1)
        se = np.sqrt(var / reps)
        mean_dev = np.abs(mean - target_mean)
        mean_ok = mean_dev <= LAMN_MEAN_SIGMAS * se
        var_dev = np.abs(var / np.where(tested, hih, 1.0) - 1.0)
        var_ok = np.where(tested, var_dev <= LAMN_VAR_RTOL, var == 0.0)
        ad_rows = np.flatnonzero(tested & (var > 0))
        rows = lr[ad_rows]
        stats, crit = _anderson_darling_normal(
            (rows - rows.mean(axis=1, keepdims=True)) / rows.std(axis=1, ddof=1, keepdims=True)
        )
        ad_ok = np.ones_like(tested)
        ad_ok[ad_rows] = stats < crit
        entries = _per_component({
            "n": np.full(hih.shape, n),
            "mean": mean,
            "var": var,
            "target_mean": target_mean,
            "target_var": hih,
            "mean_se": se,
            "mean_ok": mean_ok,
            "var_ok": var_ok,
        })
        for g, stat, ok in zip(ad_rows.tolist(), stats.tolist(), ad_ok[ad_rows].tolist()):
            entries[str(g)].update(ad_statistic=stat, ad_critical_1pct=crit, ad_ok=ok)
        by_n[str(n)] = entries
        if n == n_max:
            samples_at_nmax, passed = lr, mean_ok & var_ok & ad_ok
            gates = [
                *_gates("lamn.component.{}.mean", mean_dev, LAMN_MEAN_SIGMAS * se, mean_ok),
                *_gates("lamn.component.{}.var", np.where(tested, var_dev, var),
                        np.where(tested, LAMN_VAR_RTOL, 0.0), var_ok),
                *_gates("lamn.component.{}.ad_statistic", stats, crit, ad_ok[ad_rows], at=ad_rows.tolist()),
            ]

    per_component = {
        g: {"fisher_quadratic": quad, "by_n": {n: entries[g] for n, entries in by_n.items()}, "passed": ok}
        for g, quad, ok in zip(by_n[str(n_max)], hih.tolist(), passed.tolist())
    }

    # Mixture limit via Lemma-style aggregation: reweight the per-component
    # samples by drawn gammas.
    gammas = _draw_mixture_gammas(plan, TAG_LAMN)
    mixture_samples = samples_at_nmax[gammas, np.arange(reps)]
    mix_mean_target = float(q.q @ target_mean)
    mix_second = q.q @ (hih + 0.25 * hih**2)
    mix_var_target = float(mix_second - mix_mean_target**2)
    return _verdict({
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
    }, gates)


# ---------------------------------------------------------------------------
# Mixture collapse
# ---------------------------------------------------------------------------

def _log_collapse_ratio(terms: np.ndarray, gamma) -> np.ndarray:
    """ln r_n with r_n = P_theta / (q(gamma) P_{theta|gamma}) - 1, exactly, from
    the log terms (estimate.log_terms, shape (..., d)) of count rows of any
    leading shape.  gamma is one own component for every row, or an integer
    array with one own component per index of the leading axis.

    ln r_n is the log-sum of the other components' log terms minus the own
    term, evaluated in the log domain so exponentially small values keep full
    relative precision.  Each leading block (all rows, for one own component)
    copies its other components by two slices around its own index, so each
    log-sum adds the same d - 1 terms in the same order whatever gamma is, and
    reads its own term in place; with one component there are none, and
    ln r_n is -inf.
    """
    d = terms.shape[-1]
    if d == 1:
        return np.full(terms.shape[:-1], -np.inf)
    one = np.ndim(gamma) == 0
    if one:
        terms, gamma = terms[None], [gamma]
    others = np.empty(terms.shape[:-1] + (d - 1,))
    own = np.empty(terms.shape[:-1])
    for b, g in enumerate(gamma):
        others[b, ..., :g] = terms[b, ..., :g]
        others[b, ..., g:] = terms[b, ..., g + 1:]
        own[b] = terms[b, ..., g]
    log_r = logsumexp(others, axis=-1) - own
    return log_r[0] if one else log_r


def check_collapse_grid(n_grid) -> None:
    """The collapse rate is a slope over n_grid: a grid of fewer than two
    record lengths raises DomainError naming it."""
    if len(n_grid) < 2:
        raise DomainError(
            f"n_grid {tuple(n_grid)}: the collapse rate needs at least 2 record lengths"
        )


def mixture_collapse_experiment(plan: ExperimentPlan) -> dict:
    """Exponential collapse of the mixture onto the realized component.

    Along records from component gamma, the ratio of the mixture likelihood to
    q(gamma) times the component likelihood tends to 1 exponentially fast, at
    rate at least min_{a != gamma} KL(gamma | a) at theta*.  Checked at both
    theta* and the shifted theta* + h/sqrt(n).  With one component there is
    no other component to collapse away from: its entry has no min_kl,
    fitted_rate or rate_ok, and no rate is gated.

    Each component's records are drawn on their own stream and stacked, and
    ln r_n of every component is evaluated in one pass at theta* and one at
    the shifted parameter; one least-squares fit gives every component's
    decay rate.  The laws, ln p and the KL matrix at theta* come from the
    plan's one table there (ExperimentPlan.star).
    """
    check_collapse_grid(plan.n_grid)
    fam, q, reps = plan.family, plan.q, plan.n_reps
    d = fam.n_components
    n_grid = sorted(plan.n_grid)
    n_max = n_grid[-1]
    theta_n = plan.theta_star + plan.h / np.sqrt(n_max)
    p_star, _, log_p_star = plan.star
    # One record per replication, counted at every n of the grid.
    cm = _component_counts(plan, p_star, n_grid, TAG_COLLAPSE)             # (d, R, K, l)
    own = np.arange(d)
    log_r = _log_collapse_ratio(_log_terms(q, cm, log_p_star), own)             # (d, R, K)
    log_r_shift = _log_collapse_ratio(log_terms(fam, q, cm[:, :, -1], theta_n), own)  # (d, R)

    sqrt_n_r = np.sqrt(n_max) * np.exp(log_r[..., -1])
    sqrt_n_r_shift = np.sqrt(n_max) * np.exp(log_r_shift)
    frac_ok = np.mean(sqrt_n_r < COLLAPSE_SQRT_N_BOUND, axis=1)
    frac_ok_shift = np.mean(sqrt_n_r_shift < COLLAPSE_SQRT_N_BOUND, axis=1)
    medians = np.median(sqrt_n_r, axis=1)
    frac_gate, frac_gate_shift = frac_ok >= COLLAPSE_QUANTILE, frac_ok_shift >= COLLAPSE_QUANTILE
    passed = frac_gate & frac_gate_shift
    # A single component has no other to collapse away from: no divergence,
    # no rate and no rate gate.
    rate_columns, rate_gates = {}, []
    if d > 1:
        min_kl = np.where(np.eye(d, dtype=bool), np.inf, _kl_matrix(p_star, log_p_star)).min(axis=1)
        # ln r_n ~ -rate * n: the least-squares slopes of every component's
        # mean path, from one fit.
        rates = -np.polyfit(np.asarray(n_grid, dtype=float), log_r.mean(axis=1).T, 1)[0]
        rates_ok = rates >= COLLAPSE_RATE_SLACK * min_kl
        passed &= rates_ok
        rate_columns = {"min_kl": min_kl, "fitted_rate": rates, "rate_ok": rates_ok}
        rate_gates = _gates("collapse.component.{}.fitted_rate", rates, COLLAPSE_RATE_SLACK * min_kl, rates_ok)
    per_component = _per_component({
        **rate_columns,
        "sqrt_n_r_median": medians,
        "fraction_below_bound": frac_ok,
        "fraction_below_bound_shifted": frac_ok_shift,
        "n_checked": np.full(d, n_max),
        "passed": passed,
    })

    return _verdict({
        "experiment": "collapse",
        "theta_star": plan.theta_star.tolist(),
        "h": plan.h.tolist(),
        "n_grid": n_grid,
        "n_reps": reps,
        "master_seed": plan.master_seed,
        "bound": COLLAPSE_SQRT_N_BOUND,
        "per_component": per_component,
    }, [
        *_gates("collapse.component.{}.fraction_below_bound", frac_ok, COLLAPSE_QUANTILE, frac_gate),
        *_gates("collapse.component.{}.fraction_below_bound_shifted", frac_ok_shift, COLLAPSE_QUANTILE,
                frac_gate_shift),
        *rate_gates,
    ])


# ---------------------------------------------------------------------------
# Consistency, and the single-record experiments estimate and fig1
# ---------------------------------------------------------------------------

def consistency_experiment(plan: ExperimentPlan) -> dict:
    """Error quantiles of the mixture MLE along the n grid; medians must fall.

    The replications of every n are fitted in one estimator call.  Each n
    also reports boundary_hits, the number of estimates on the edge of
    the search box, where the box truncates the error distribution, and
    max_evaluations, the most objective evaluations one record's refinement
    took.  A component Fisher information singular at theta* is refused.
    """
    plan.check_hypotheses(fit_at=plan.theta_star)
    n_grid = sorted(plan.n_grid)
    p_star = plan.star[0]
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
        by_n[str(n)] = {
            "median_abs_error": med,
            "q90_abs_error": float(np.quantile(errors, 0.9)),
            "max_abs_error": float(errors.max()),
            "boundary_hits": int(boundary[k].sum()),
            "max_evaluations": int(evaluations[k].max()),
        }
    decreasing = all(b < a for a, b in zip(medians, medians[1:]))
    return _verdict({
        "experiment": "consistency",
        "theta_star": plan.theta_star.tolist(),
        "n_grid": n_grid,
        "n_reps": plan.n_reps,
        "master_seed": plan.master_seed,
        "by_n": by_n,
        "median_decreasing": decreasing,
    }, _gates("consistency.median_decreasing", decreasing, True, decreasing))


def mle_path(
    plan: ExperimentPlan,
    trajs: Sequence[Trajectory],
    n_points: Sequence[int],
) -> list[list[tuple[int, float]]]:
    """Mixture MLE along growing prefixes of each trajectory (D = 1, Fisher
    non-singular): one path of (n, theta_hat) per trajectory, n ascending.
    Every prefix of every trajectory is fitted in one estimator call.  No
    trajectories, no prefix lengths, or a prefix length outside 1..len(traj)
    raises DomainError naming it."""
    plan.check_hypotheses(fit_at=plan.theta_star)
    if not trajs:
        raise DomainError("no trajectories to fit")
    ns = sorted(int(n) for n in n_points)
    if not ns:
        raise DomainError("no prefix lengths to fit")
    for n in ns:
        if n < 1:
            raise DomainError(f"prefix length {n} must be at least 1")
    l = plan.family.n_outcomes
    cm = np.stack([counts(traj, n, n_outcomes=l).counts for traj in trajs for n in ns])
    x_hat = _fit(plan.family, plan.q.log(), cm, plan.search_box()).x.reshape(len(trajs), len(ns))
    return [list(zip(ns, path.tolist())) for path in x_hat]


def estimate_experiment(plan: ExperimentPlan) -> tuple[dict, EstimationReport]:
    """The MLE over the search box of one mixture record of max(n_grid) steps,
    drawn on master_seed; it passes when the fit converged.  Returns the
    report and the EstimationReport, whose optimizer trace is the CSV."""
    traj = sample_mixture_trajectory(plan.family, plan.theta_star, plan.q, max(plan.n_grid), plan.master_seed)
    fit = mle(plan.family, plan.q, counts(traj, n_outcomes=plan.family.n_outcomes), box=plan.search_box())
    converged = bool(fit.converged)
    report = {**fit.to_dict(), "experiment": "estimate", "gamma_true": int(traj.gamma),
              "theta_true": [float(x) for x in plan.theta_star]}
    return _verdict(report, _gates("estimate.converged", converged, True, converged)), fit


def fig1_experiment(plan: ExperimentPlan) -> tuple[dict, list]:
    """The paper's Fig. 1: after the hypotheses check, the mle_path at 25
    prefix lengths of FIG1_SEEDS mixture records of FIG1_N_MAX steps, record k
    on seed master_seed * FIG1_SEEDS + k.  It passes when every final estimate
    lies within FIG1_TOLERANCE of theta*.  Returns the report and the paths."""
    plan.check_hypotheses(fit_at=plan.theta_star)
    target = float(plan.theta_star[0])
    # The records sample_mixture_trajectory draws on these seeds, from the
    # plan's table at theta* rather than one evaluation per record.
    seeds = [plan.master_seed * FIG1_SEEDS + k for k in range(FIG1_SEEDS)]
    trajs = [_draw_record(plan.star[0], sample_component(plan.q, seed), FIG1_N_MAX, seed) for seed in seeds]
    paths = mle_path(plan, trajs, {int(round(x)) for x in np.geomspace(100, FIG1_N_MAX, 25)} | {FIG1_N_MAX})
    final_errors = np.array([abs(path[-1][1] - target) for path in paths])
    report = {
        "experiment": "fig1",
        "theta_star": target,
        "n_max": FIG1_N_MAX,
        "seeds": FIG1_SEEDS,
        "final_abs_errors": final_errors.tolist(),
        "tolerance": FIG1_TOLERANCE,
    }
    gates = _gates("fig1.seed.{}.final_abs_error", final_errors, FIG1_TOLERANCE, final_errors < FIG1_TOLERANCE)
    return _verdict(report, gates), paths


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
    n = max(plan.n_grid)
    theta_n = plan.theta_star + plan.h / np.sqrt(n)
    fishers = plan.check_hypotheses(fit_at=theta_n)[:, 0, 0]
    p_n = plan.family.prob_table(theta_n)
    d = plan.family.n_components
    # Block g < d holds component g's replications, drawn from its one law on
    # (TAG_CRAMER, g); block d the mixture's, drawn on (TAG_CRAMER, d).
    gammas = _draw_mixture_gammas(plan, TAG_CRAMER)
    blocks = [
        *_component_counts(plan, p_n, (n,), TAG_CRAMER)[:, :, 0],
        sample_count_paths(p_n[gammas], (n,), substream(plan.master_seed, TAG_CRAMER, d))[:, 0],
    ]
    x_hat, boundary, evaluations = _fit_blocks(plan, blocks)
    root = np.sqrt(n) * (x_hat - theta_n[0])                                # (d + 1, R)
    var, mean = root[:d].var(axis=1, ddof=1), root[:d].mean(axis=1)
    target = 1.0 / fishers
    ratio = var / target
    passed = (CRAMER_RATIO_BAND[0] <= ratio) & (ratio <= CRAMER_RATIO_BAND[1])
    hits, max_evals = boundary.sum(axis=1), evaluations.max(axis=1)
    per_component = _per_component({
        "fisher": fishers,
        "var": var,
        "mean": mean,
        "target_var": target,
        "efficiency_ratio": ratio,
        "boundary_hits": hits[:d],
        "max_evaluations": max_evals[:d],
        "passed": passed,
    })

    second = float(np.mean(root[d] ** 2))
    target_second = float(plan.q.q @ target)
    mix_dev = abs(second / target_second - 1.0)
    mix_ok = mix_dev <= CRAMER_MIXTURE_RTOL

    return _verdict({
        "experiment": "cramer_rao",
        "theta_star": plan.theta_star.tolist(),
        "h": plan.h.tolist(),
        "n": n,
        "n_reps": plan.n_reps,
        "master_seed": plan.master_seed,
        "per_component": per_component,
        "mixture": {
            "second_moment": second,
            "target": target_second,
            "ratio": second / target_second,
            "boundary_hits": int(hits[d]),
            "max_evaluations": int(max_evals[d]),
            "passed": mix_ok,
        },
        "efficiency_band": list(CRAMER_RATIO_BAND),
    }, [
        *_gates("cramer_rao.component.{}.efficiency_ratio", ratio, list(CRAMER_RATIO_BAND), passed),
        *_gates("cramer_rao.mixture.ratio", mix_dev, CRAMER_MIXTURE_RTOL, mix_ok),
    ])


# ---------------------------------------------------------------------------
# Posterior purification
# ---------------------------------------------------------------------------

def purification_experiment(plan: ExperimentPlan) -> dict:
    """Posterior concentration on the realized component.

    Posteriors come from cumulative outcome counts, as in filter_trajectory;
    by exchangeability they equal the step-by-step Bayes filter, the loop the
    tests keep as their reference.  Reports the fraction of runs with
    q_n(gamma) > 0.99 at each n and the total-variation distance between the
    law of argmax q_n at the largest n and the mixture weights q.  The laws
    and ln p come from the plan's one table at theta* (ExperimentPlan.star).
    """
    fam, q = plan.family, plan.q
    n_grid = sorted(plan.n_grid)
    n_max = n_grid[-1]
    gammas = _draw_mixture_gammas(plan, TAG_PURIFY)
    p_star, _, log_p_star = plan.star
    cm = sample_count_paths(p_star[gammas], n_grid, substream(plan.master_seed, TAG_PURIFY))
    terms = _log_terms(q, cm, log_p_star)                                  # (R, K, d)
    post = np.exp(terms - logsumexp(terms, axis=-1)[..., None])
    purified = post[np.arange(plan.n_reps), :, gammas] > PURIFY_LEVEL      # (R, K)
    fractions = {str(n): float(purified[:, k].mean()) for k, n in enumerate(n_grid)}
    argmax_counts = np.bincount(post[:, -1].argmax(axis=-1), minlength=fam.n_components)
    empirical = argmax_counts / plan.n_reps
    tv = 0.5 * float(np.abs(empirical - q.q).sum())
    frac = fractions[str(n_max)]
    return _verdict({
        "experiment": "purification",
        "theta_star": plan.theta_star.tolist(),
        "n_grid": n_grid,
        "n_reps": plan.n_reps,
        "master_seed": plan.master_seed,
        "fraction_purified": fractions,
        "argmax_distribution": empirical.tolist(),
        "tv_distance_to_q": tv,
    }, [
        *_gates("purification.fraction_purified", frac, PURIFY_FRACTION, frac >= PURIFY_FRACTION),
        *_gates("purification.tv_distance_to_q", tv, PURIFY_TV_BOUND, tv <= PURIFY_TV_BOUND),
    ])
