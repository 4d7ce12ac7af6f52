"""Log-likelihood evaluation and maximum-likelihood estimation over the box.

The normalized mixture log-likelihood of an n-step record depends on the
record only through its outcome counts:

    ell_n(theta) = (1/n) ln sum_alpha q(alpha) exp(sum_j N_n(j) ln p_theta(j|alpha))

and is evaluated with a max-shifted log-sum so that exponentially collapsed
components cannot underflow the total.

loglik_rows evaluates it, its score and its curvature for many rows at once.
For D = 1, maximize_scalar fits the rows by a coarse scan, then bracketed
root-finding on the score; for D > 1, _maximize_box by projected Fisher scoring.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError
from .model import (
    MixtureWeights,
    ParametricFamily,
    fisher_information,
    kl_divergence,
    shannon_entropy,
)
from .simulate import CountVector

__all__ = [
    "LogLikelihood",
    "EstimationReport",
    "loglik",
    "loglik_component",
    "log_terms",
    "logsumexp",
    "limit_loglik",
    "log_sum_paths",
    "ScalarMaxima",
    "loglik_rows",
    "maximize_scalar",
    "mle",
]

COARSE_POINTS = 64
# loglik_rows evaluates at most this many count rows (scan) or trial points at
# once, so that every elementwise temporary of a block stays in cache.
ROW_BLOCK = 1024
TIE_TOL = 1e-12
# Below about -708 numpy's exp leaves its vectorized path; exp(-700) is 9.9e-305.
EXP_FLOOR = -700.0
# Refinement, for every D: a candidate stops once its last step (for D = 1, or
# its bracket) is below STEP_TOL; it is unconverged after MAX_STEPS steps.
STEP_TOL = 1e-8
MAX_STEPS = 60
# Multi-start projected Fisher scoring (D > 1); the pseudo-inverse's relative
# cutoff leaves out the near-flat directions of a rank-deficient information.
N_STARTS = 8
PINV_RCOND = 1e-8


@dataclass(frozen=True)
class LogLikelihood:
    """Normalized log-likelihood value plus its per-component log terms.

    per_component[alpha] = ln q(alpha) + sum_j N_n(j) ln p_theta(j|alpha),
    unnormalized; value = logsum(per_component) / n.
    """

    value: float
    n: int
    theta: np.ndarray
    per_component: np.ndarray


@dataclass
class EstimationReport:
    """MLE output: the mixture argmax, per-component argmaxes and diagnostics.
    converged is the mixture row's: for D = 1 every candidate stopped within
    MAX_STEPS steps, for D > 1 its winning end point did."""

    theta_hat: np.ndarray
    theta_hat_per_component: np.ndarray
    loglik_at_max: float
    n: int
    optimizer_trace: list
    fisher_at_hat: np.ndarray
    posterior_at_hat: np.ndarray
    converged: bool = True
    boundary: bool = False
    tie: bool = False

    def to_dict(self) -> dict:
        return {
            "theta_hat": [float(x) for x in np.atleast_1d(self.theta_hat)],
            "theta_hat_per_component": [
                [float(x) for x in np.atleast_1d(row)] for row in self.theta_hat_per_component
            ],
            "loglik_at_max": float(self.loglik_at_max),
            "n": int(self.n),
            "posterior_at_hat": [float(x) for x in self.posterior_at_hat],
            "fisher_at_hat": self.fisher_at_hat.tolist(),
            "converged": bool(self.converged),
            "boundary": bool(self.boundary),
            "tie": bool(self.tie),
        }

    def trace_to_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            dim = np.atleast_1d(self.theta_hat).size
            writer.writerow([f"theta_{k}" for k in range(dim)] + ["loglik"])
            for theta, value in self.optimizer_trace:
                row = [f"{x:.17g}" for x in np.atleast_1d(theta)]
                writer.writerow(row + [f"{value:.17g}"])


# ---------------------------------------------------------------------------
# Likelihood evaluation
# ---------------------------------------------------------------------------

def log_terms(fam: ParametricFamily, q: MixtureWeights, counts: np.ndarray, theta) -> np.ndarray:
    """Per-component log terms ln q(alpha) + sum_j N(j) ln p_theta(j|alpha) of
    every count row: counts of shape (..., l) give terms of shape (..., d)."""
    return q.log() + counts @ fam.log_prob_table(theta).T


def loglik(
    fam: ParametricFamily, q: MixtureWeights, counts: CountVector, theta
) -> LogLikelihood:
    """Normalized mixture log-likelihood at theta, from counts alone."""
    if counts.n < 1:
        raise DomainError("log-likelihood needs at least one observation")
    terms = log_terms(fam, q, counts.counts, theta)
    value = float(logsumexp(terms)) / counts.n
    return LogLikelihood(
        value=value,
        n=counts.n,
        theta=np.atleast_1d(np.asarray(theta, dtype=float)),
        per_component=terms,
    )


def loglik_component(
    fam: ParametricFamily, counts: CountVector, theta, gamma: int
) -> float:
    """Normalized per-component log-likelihood (1/n) sum_j N_n(j) ln p(j|gamma)."""
    if counts.n < 1:
        raise DomainError("log-likelihood needs at least one observation")
    logp = fam.log_prob_table(theta)[gamma]
    return float(logp @ counts.counts) / counts.n


def limit_loglik(fam: ParametricFamily, theta_star, gamma: int, theta) -> float:
    """Pointwise limit of ell_n(theta) along data from component gamma at theta_star:

        -S_{theta*}(gamma) - min_alpha KL(p_{theta*}(.|gamma) || p_theta(.|alpha))
    """
    divergences = kl_divergence(fam, theta_star, theta)[gamma]
    return -shannon_entropy(fam, theta_star, gamma) - float(divergences.min())


def log_sum_paths(ell_a: np.ndarray, ell_b: np.ndarray, n: int) -> np.ndarray:
    """Combine tabulated (1/n) ln a_n and (1/n) ln b_n into (1/n) ln(a_n + b_n).

    Computed stably as max + (1/n) ln(1 + exp(-n |difference|)); the result
    never exceeds max(ell_a, ell_b) + ln(2)/n.
    """
    if n < 1:
        raise DomainError("n must be a positive integer")
    a = np.asarray(ell_a, dtype=float)
    b = np.asarray(ell_b, dtype=float)
    if a.shape != b.shape:
        raise DomainError("the two tabulated paths must share a grid")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise DomainError("tabulated log values must be finite (inputs strictly positive)")
    hi = np.maximum(a, b)
    lo = np.minimum(a, b)
    return hi + np.log1p(np.exp(-n * (hi - lo))) / n


# ---------------------------------------------------------------------------
# Optimizers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalarMaxima:
    """Output of maximize_scalar: x, value, tie, boundary, evaluations and
    converged hold one entry per row; the scan and the refined candidates make
    up each row's trace."""

    x: np.ndarray
    value: np.ndarray
    tie: np.ndarray
    boundary: np.ndarray
    evaluations: np.ndarray
    converged: np.ndarray
    scan_x: np.ndarray
    scan_values: np.ndarray
    cand_rows: np.ndarray
    cand_x: np.ndarray
    cand_values: np.ndarray

    def trace(self, row: int) -> list:
        """(x, f(x)) of every scan point and every refined candidate of one row."""
        mine = self.cand_rows == row
        points = list(zip(self.scan_x.tolist(), self.scan_values[row].tolist()))
        return points + list(zip(self.cand_x[mine].tolist(), self.cand_values[mine].tolist()))


def maximize_scalar(f: Callable, lo: float, hi: float) -> ScalarMaxima:
    """Maximize R smooth scalar objectives ("rows") on [lo, hi] at once.

    ``f(x)`` evaluates every row at every point of the 1-D array x and returns
    an (R, len(x)) array (or a length-len(x) vector when R = 1);
    ``f(x, rows)`` evaluates row rows[i] at x[i] and returns three vectors:
    the values, the slopes and a negative curvature (an expected Hessian will
    do), which is used for the first step only.

    A shared scan of COARSE_POINTS points picks each row's candidates: the
    scan argmax and every strict local maximum.  Each candidate starts at its
    scan point, bracketed by the two scan neighbours, and steps towards a
    root of its slope: one Newton step with the supplied curvature, then
    secant steps.  The sign of the slope moves the bracket ends, and a step
    that would leave the bracket bisects it instead.  A candidate stops once
    its last step or its bracket is below STEP_TOL, so one whose slope points
    out of the box at a box edge stops on that edge.  All candidates of all
    rows advance together.  Per row, the best refined value wins; a runner-up
    from another candidate within TIE_TOL sets the tie flag, and ties resolve
    to the smaller x.  evaluations counts a row's refinement evaluations over
    all its candidates; a row is converged when every candidate stopped within
    MAX_STEPS steps.
    """
    xs = np.linspace(lo, hi, COARSE_POINTS)
    scan = np.atleast_2d(f(xs))
    padded = np.pad(scan, ((0, 0), (1, 1)), constant_values=-np.inf)
    peak = (scan > padded[:, :-2]) & (scan > padded[:, 2:])
    peak[np.arange(len(scan)), scan.argmax(axis=1)] = True
    rows, idx = np.nonzero(peak)

    x = xs[idx]
    a = xs[np.maximum(idx - 1, 0)]
    b = xs[np.minimum(idx + 1, COARSE_POINTS - 1)]
    value, slope, curvature = (np.array(v, dtype=float) for v in f(x, rows))
    evaluations = np.ones(rows.size, dtype=int)
    with np.errstate(divide="ignore", invalid="ignore"):
        step = -slope / curvature
    moved = np.full(rows.size, np.inf)
    act = np.arange(rows.size)
    for n_steps in range(MAX_STEPS + 1):
        # A positive slope moves the lower end up to x, a negative one the
        # upper end down; a zero slope closes the bracket.
        a[act] = np.where(slope[act] >= 0, x[act], a[act])
        b[act] = np.where(slope[act] <= 0, x[act], b[act])
        act = act[(b[act] - a[act] > STEP_TOL) & (moved[act] > STEP_TOL)]
        if act.size == 0 or n_steps == MAX_STEPS:
            break
        x_act, lo_act, hi_act = x[act], a[act], b[act]
        new = x_act + step[act]
        new = np.where((new > lo_act) & (new < hi_act), new, 0.5 * (lo_act + hi_act))
        v, s, _ = f(new, rows[act])
        with np.errstate(divide="ignore", invalid="ignore"):
            step[act] = s * (new - x_act) / (slope[act] - s)
        moved[act] = np.abs(new - x_act)
        x[act], value[act], slope[act] = new, v, s
        evaluations[act] += 1

    # Candidates ordered by row, then best value, then smaller x; the runner-up
    # is the next candidate when it belongs to the same row.
    order = np.lexsort((x, -value, rows))
    _, first = np.unique(rows[order], return_index=True)
    best, runner = order[first], order[np.minimum(first + 1, order.size - 1)]
    x_hat = x[best]
    return ScalarMaxima(
        x=x_hat,
        value=value[best],
        tie=(runner != best)
        & (rows[runner] == rows[best])
        & (value[best] - value[runner] <= TIE_TOL),
        boundary=(x_hat - lo <= STEP_TOL) | (hi - x_hat <= STEP_TOL),
        evaluations=np.bincount(rows, weights=evaluations, minlength=len(scan)).astype(int),
        converged=np.bincount(rows[act], minlength=len(scan)) == 0,
        scan_x=xs,
        scan_values=scan,
        cand_rows=rows,
        cand_x=x,
        cand_values=value,
    )


def loglik_rows(fam: ParametricFamily, logq: np.ndarray, counts: np.ndarray) -> Callable:
    """Objective of maximize_scalar and _maximize_box: row r's normalized
    log-likelihood

        (1/n_r) ln sum_alpha exp(logq[r, alpha] + sum_j counts[r, j] ln p_x(j|alpha)),

    with, at trial points x (k scalars or (k, D)), its slope (the mixture
    score over n_r), shaped like x, and the Fisher-scoring curvature
    -sum_alpha w_alpha I_alpha(x), shaped (k,) or (k, D, D), where w are the
    posterior component weights of the row at x.

    logq is (R, d) and counts (R, l); either may have a single row shared by
    all.  Log-weights 0 on one component and -inf elsewhere give that
    component's likelihood.  Each row is normalized by its own n_r, so rows
    of different record lengths share one objective.

    Both forms run in blocks of at most ROW_BLOCK count rows (the scan) or
    trial points.  A trial point's arithmetic does not depend on the blocks;
    a scan row's depends on them only through the rounding of the matrix
    product, which may vary with the row's place in it.
    """
    logq, counts = np.atleast_2d(logq), np.atleast_2d(counts).astype(float)
    n_rows = max(len(logq), len(counts))
    logq = np.broadcast_to(logq, (n_rows, logq.shape[1]))
    counts = np.broadcast_to(counts, (n_rows, counts.shape[1]))
    n = counts.sum(axis=1)

    def scan(x: np.ndarray) -> np.ndarray:
        # Component-major terms (d, m, rows): the sum over components runs
        # elementwise over d contiguous (m, rows) slabs.
        logp = np.swapaxes(fam.log_prob_table(x[:, None]), 0, 1)         # (d, m, l)
        d, m, l = logp.shape
        logp = logp.reshape(d * m, l)
        out = np.empty((n_rows, m))
        for b in _blocks(n_rows):
            terms = (logp @ counts[b].T).reshape(d, m, -1)
            terms += logq[b].T[:, None, :]
            out[b] = (logsumexp(terms, axis=0) / n[b]).T
        return out

    def at_points(x: np.ndarray, rows: np.ndarray) -> tuple:
        t = x.reshape(len(x), -1)
        p = fam.prob_table(t)                                            # (k, d, l)
        dp = fam.dprob_table(t)                                          # (k, D, d, l)
        c = counts[rows]
        terms = np.einsum("kdl,kl->kd", np.log(p), c) + logq[rows]
        total = logsumexp(terms, axis=-1)
        w = np.exp(terms - total[:, None])[:, None, :]
        score = dp / p[:, None]
        slope = np.sum(w * np.einsum("kidl,kl->kid", score, c), axis=-1) / n[rows, None]
        curvature = -np.sum(w[:, None] * np.einsum("kidl,kjdl->kijd", dp, score), axis=-1)
        return total / n[rows], slope.reshape(x.shape), curvature.reshape(x.shape + x.shape[1:])

    def f(x: np.ndarray, rows: Optional[np.ndarray] = None):
        if rows is None:
            return scan(x)
        parts = [at_points(x[b], rows[b]) for b in _blocks(len(x))]
        return tuple(np.concatenate(arrays) for arrays in zip(*parts))

    return f


def _blocks(size: int) -> list:
    """Consecutive slices of at most ROW_BLOCK entries covering range(size)."""
    return [slice(start, start + ROW_BLOCK) for start in range(0, size, ROW_BLOCK)]


def logsumexp(a: np.ndarray, axis: Optional[int] = None) -> np.ndarray:
    """ln sum exp(a) over one axis, or over all of them by default; a slice of
    -inf entries gives -inf.  As scipy.special.logsumexp does, the maxima are
    left out of the shifted sum and added back through log1p, so the two agree
    bit for bit unless the result lies within about 1e-280 of zero.

    Shifted entries at or below EXP_FLOOR count as 0, and exp is evaluated at
    the floor instead: each such entry would add less than 1e-304 to the sum,
    and exp's underflowing path is many times slower than its normal one."""
    a_max = a.max(axis=axis, keepdims=True)
    top = a == a_max
    ties = top.sum(axis=axis, keepdims=True).astype(float)
    e = np.subtract(a, np.maximum(a_max, -np.finfo(float).max))
    live = (e > EXP_FLOOR) & ~top
    np.maximum(e, EXP_FLOOR, out=e)
    np.exp(e, out=e)
    e *= live
    s = e.sum(axis=axis, keepdims=True)
    return np.squeeze(np.log1p(s / ties) + np.log(ties) + a_max, axis=axis)


def _halton(n: int, dim: int) -> np.ndarray:
    """First n points of the unscrambled Halton sequence in [0, 1)^dim: the
    radical inverses of 0, ..., n - 1 in the first dim prime bases."""
    primes, p = [], 2
    while len(primes) < dim:
        if all(p % k for k in primes):
            primes.append(p)
        p += 1
    points = np.zeros((n, dim))
    for k, base in enumerate(primes):
        for i in range(n):
            rest, scale = i, 1.0 / base
            while rest:
                points[i, k] += rest % base * scale
                rest, scale = rest // base, scale / base
    return points


def _maximize_box(f: Callable, n_rows: int, lower: np.ndarray, upper: np.ndarray) -> tuple:
    """Multi-start projected Fisher scoring (D > 1) on the rows of a
    loglik_rows objective, from N_STARTS Halton starts per row; all (row,
    start) pairs step together, and only pairs still stepping are evaluated.
    A pair steps by its curvature's pseudo-inverse times its slope, on the
    coordinates no outward slope holds at a box edge, clipped to the box and
    halved while the value does not rise; it stops once the step is below
    STEP_TOL, unconverged after MAX_STEPS steps.  Per row the smallest x
    within TIE_TOL of the best value wins, with its own converged flag.

    Returns per row x, value, tie, boundary and converged, then every pair's
    end points and values, shaped (n_rows, N_STARTS, ...).
    """
    dim = lower.size
    starts = lower + _halton(N_STARTS, dim) * (upper - lower)
    rows = np.repeat(np.arange(n_rows), N_STARTS)
    x = np.tile(starts, (n_rows, 1))
    fx, g, h = f(x, rows)
    scale = np.ones(rows.size)
    ok = np.zeros(rows.size, dtype=bool)
    act = np.arange(rows.size)
    for _ in range(MAX_STEPS):
        x_act, g_act = x[act], g[act]
        free = ~(((x_act - lower <= STEP_TOL) & (g_act < 0)) | ((upper - x_act <= STEP_TOL) & (g_act > 0)))
        info = -h[act] * (free[:, :, None] & free[:, None, :])
        step = np.einsum("kij,kj->ki", np.linalg.pinv(info, rcond=PINV_RCOND, hermitian=True), g_act * free)
        x_new = np.clip(x_act + scale[act, None] * step, lower, upper)
        moving = np.abs(x_new - x_act).max(axis=1) > STEP_TOL
        ok[act[~moving]] = True
        act, x_new = act[moving], x_new[moving]
        if act.size == 0:
            break
        f_new, g_new, h_new = f(x_new, rows[act])
        rise = f_new > fx[act]
        up = act[rise]
        x[up], fx[up], g[up], h[up] = x_new[rise], f_new[rise], g_new[rise], h_new[rise]
        scale[act] = np.where(rise, 1.0, 0.5 * scale[act])

    # The (lexicographically) smallest end point within TIE_TOL of its row's
    # best value wins; another such end point elsewhere sets the tie flag.
    near = fx >= np.repeat(fx.reshape(n_rows, N_STARTS).max(axis=1), N_STARTS) - TIE_TOL
    best = np.lexsort((*x.T[::-1], ~near, rows))[::N_STARTS]
    x_hat = x[best]
    apart = ~np.isclose(x, x_hat[rows], atol=STEP_TOL).all(axis=1)
    tie = (near & apart).reshape(n_rows, N_STARTS).any(axis=1)
    boundary = np.any(x_hat - lower <= STEP_TOL, axis=1) | np.any(upper - x_hat <= STEP_TOL, axis=1)
    ends = x.reshape(n_rows, N_STARTS, dim), fx.reshape(n_rows, N_STARTS)
    return x_hat, fx[best], tie, boundary, ok[best], *ends


def mle(
    fam: ParametricFamily, q: MixtureWeights, counts: CountVector, box=None
) -> EstimationReport:
    """Maximum-likelihood estimation of theta over the box (by default the
    family box; a sub-box may restrict the search, e.g. to an
    identifiability-valid neighborhood of the true parameter).

    The mixture likelihood and the d single-component likelihoods are the
    rows of one loglik_rows objective, maximized by maximize_scalar (D = 1) or
    _maximize_box (D > 1).  The report carries both argmaxes, the mixture
    row's tie, boundary and converged flags, the posterior component weights
    at the mixture argmax and the (d, D, D) stack of component Fisher matrices
    there.
    """
    if counts.n < 1:
        raise DomainError("MLE needs at least one observation")
    search = fam.box if box is None else box
    if not (fam.box.contains(search.lower, atol=1e-12) and fam.box.contains(search.upper, atol=1e-12)):
        raise DomainError("search box must lie inside the family box")
    lower, upper = search.lower, search.upper
    d = fam.n_components
    logq = np.vstack([q.log(), np.where(np.eye(d, dtype=bool), 0.0, -np.inf)])
    f = loglik_rows(fam, logq, counts.counts)

    if fam.dim == 1:
        res = maximize_scalar(f, float(lower[0]), float(upper[0]))
        x_hat, f_hat, tie, boundary, converged = (
            res.x[:, None], res.value, res.tie, res.boundary, res.converged
        )
        trace = [(np.array([x]), v) for x, v in res.trace(0)]
    else:
        x_hat, f_hat, tie, boundary, converged, x_end, f_end = _maximize_box(f, d + 1, lower, upper)
        trace = list(zip(x_end[0], f_end[0].tolist()))
    theta_hat = x_hat[0]

    terms = log_terms(fam, q, counts.counts, theta_hat)
    posterior = np.exp(terms - logsumexp(terms))
    return EstimationReport(
        theta_hat=theta_hat,
        theta_hat_per_component=x_hat[1:],
        loglik_at_max=float(f_hat[0]),
        n=counts.n,
        optimizer_trace=trace,
        fisher_at_hat=fisher_information(fam, theta_hat),
        posterior_at_hat=posterior,
        converged=bool(converged[0]),
        boundary=bool(boundary[0]),
        tie=bool(tie[0]),
    )
