"""Log-likelihood evaluation and maximum-likelihood estimation over the box.

The normalized mixture log-likelihood of an n-step record depends on the
record only through its outcome counts:

    ell_n(theta) = (1/n) ln sum_alpha q(alpha) exp(sum_j N_n(j) ln p_theta(j|alpha))

and is evaluated with a max-shifted log-sum so that exponentially collapsed
components cannot underflow the total.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.special import logsumexp
from scipy.stats import qmc

from .errors import DomainError
from .model import (
    InfoMatrix,
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
    "limit_loglik",
    "log_sum_paths",
    "ScalarMaxima",
    "loglik_rows",
    "maximize_scalar",
    "mle",
]

GOLDEN_TOL = 1e-8
COARSE_POINTS = 64
TIE_TOL = 1e-12
# Multi-start projected gradient ascent (D > 1).
N_STARTS = 8
GRAD_TOL = 1e-7
MAX_ITER = 500
INV_PHI = (np.sqrt(5.0) - 1.0) / 2.0


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
    """MLE output: the mixture argmax, per-component argmaxes and diagnostics."""

    theta_hat: np.ndarray
    theta_hat_per_component: np.ndarray
    loglik_at_max: float
    n: int
    optimizer_trace: list
    fisher_at_hat: list
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
            "fisher_at_hat": [
                [[float(x) for x in row] for row in im.m] for im in self.fisher_at_hat
            ],
            "converged": bool(self.converged),
            "boundary": bool(self.boundary),
            "tie": bool(self.tie),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

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
    divergences = [
        kl_divergence(fam, theta_star, theta, gamma, alpha)
        for alpha in range(fam.n_components)
    ]
    return -shannon_entropy(fam, theta_star, gamma) - min(divergences)


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
    """Output of maximize_scalar: x, value, tie and boundary hold one entry per
    row; the scan and the refined candidates make up each row's trace."""

    x: np.ndarray
    value: np.ndarray
    tie: np.ndarray
    boundary: np.ndarray
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
    """Maximize R scalar objectives ("rows") on [lo, hi] at once.

    ``f(x)`` evaluates every row at every point of the 1-D array x and returns
    an (R, len(x)) array (or a length-len(x) vector when R = 1);
    ``f(x, rows)`` evaluates row rows[i] at x[i] and returns a vector.

    A shared scan of COARSE_POINTS points is followed by golden-section
    refinement, down to a bracket of width GOLDEN_TOL, of the bracket around
    the scan argmax and around every strict local maximum of the scan; all
    brackets of all rows advance together.  Per row, the best refined value
    wins; a runner-up from another bracket within TIE_TOL sets the tie flag,
    and ties resolve to the smaller x.
    """
    xs = np.linspace(lo, hi, COARSE_POINTS)
    scan = np.atleast_2d(f(xs))
    padded = np.pad(scan, ((0, 0), (1, 1)), constant_values=-np.inf)
    peak = (scan > padded[:, :-2]) & (scan > padded[:, 2:])
    peak[np.arange(len(scan)), scan.argmax(axis=1)] = True
    rows, idx = np.nonzero(peak)

    a = xs[np.maximum(idx - 1, 0)]
    b = xs[np.minimum(idx + 1, COARSE_POINTS - 1)]
    c = b - INV_PHI * (b - a)
    d = a + INV_PHI * (b - a)
    fc = np.array(f(c, rows), dtype=float)
    fd = np.array(f(d, rows), dtype=float)
    while True:
        act = np.nonzero(b - a > GOLDEN_TOL)[0]
        if act.size == 0:
            break
        left = fc[act] > fd[act]
        # Keep [a, d] and probe a new c, or keep [c, b] and probe a new d.
        li, ri = act[left], act[~left]
        b[li], d[li], fd[li] = d[li], c[li], fc[li]
        c[li] = b[li] - INV_PHI * (b[li] - a[li])
        a[ri], c[ri], fc[ri] = c[ri], d[ri], fd[ri]
        d[ri] = a[ri] + INV_PHI * (b[ri] - a[ri])
        f_new = f(np.where(left, c[act], d[act]), rows[act])
        fc[li], fd[ri] = f_new[left], f_new[~left]
    cand_x = np.where(fc > fd, c, d)
    cand_f = np.maximum(fc, fd)

    # Candidates ordered by row, then best value, then smaller x; the runner-up
    # is the next candidate when it belongs to the same row.
    order = np.lexsort((cand_x, -cand_f, rows))
    _, first = np.unique(rows[order], return_index=True)
    best, runner = order[first], order[np.minimum(first + 1, order.size - 1)]
    x_hat = cand_x[best]
    return ScalarMaxima(
        x=x_hat,
        value=cand_f[best],
        tie=(runner != best)
        & (rows[runner] == rows[best])
        & (cand_f[best] - cand_f[runner] <= TIE_TOL),
        boundary=(x_hat - lo <= GOLDEN_TOL) | (hi - x_hat <= GOLDEN_TOL),
        scan_x=xs,
        scan_values=scan,
        cand_rows=rows,
        cand_x=cand_x,
        cand_values=cand_f,
    )


def loglik_rows(fam: ParametricFamily, logq: np.ndarray, counts: np.ndarray) -> Callable:
    """maximize_scalar objective (D = 1): row r's normalized log-likelihood

        (1/n_r) ln sum_alpha exp(logq[r, alpha] + sum_j counts[r, j] ln p_x(j|alpha)).

    logq is (R, d) and counts (R, l); either may have a single row shared by
    all.  Log-weights 0 on one component and -inf elsewhere give that
    component's likelihood.
    """
    logq, counts = np.atleast_2d(logq), np.atleast_2d(counts).astype(float)
    n_rows = max(len(logq), len(counts))
    logq = np.broadcast_to(logq, (n_rows, logq.shape[1]))
    counts = np.broadcast_to(counts, (n_rows, counts.shape[1]))
    n = counts.sum(axis=1)

    def f(x: np.ndarray, rows: Optional[np.ndarray] = None) -> np.ndarray:
        logp = fam.log_prob_table(x[:, None])                            # (m, d, l)
        if rows is None:
            terms = np.einsum("mdl,rl->rmd", logp, counts) + logq[:, None, :]
            return _logsumexp(terms) / n[:, None]
        terms = np.einsum("mdl,ml->md", logp, counts[rows]) + logq[rows]
        return _logsumexp(terms) / n[rows]

    return f


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """ln sum exp(a) over the last axis, for rows holding at least one finite
    entry.  As scipy.special.logsumexp does, the row maxima are left out of
    the shifted sum and added back through log1p, so the two agree bit for bit."""
    a_max = a.max(axis=-1, keepdims=True)
    top = a == a_max
    ties = top.sum(axis=-1, keepdims=True).astype(float)
    s = np.where(top, 0.0, np.exp(a - a_max)).sum(axis=-1, keepdims=True)
    return (np.log1p(s / ties) + np.log(ties) + a_max)[..., 0]


def _maximize_box(
    f: Callable[[np.ndarray], float],
    grad: Callable[[np.ndarray], np.ndarray],
    lower: np.ndarray,
    upper: np.ndarray,
) -> tuple[np.ndarray, float, list, bool, bool, bool]:
    """Multi-start projected gradient ascent with backtracking (D > 1).

    N_STARTS starts come from a Halton sequence over the box; the start order
    is fixed so the reduction is deterministic.
    """
    dim = lower.size
    halton = qmc.Halton(d=dim, scramble=False)
    starts = lower + halton.random(N_STARTS) * (upper - lower)
    trace = []
    results = []
    converged_any = False
    for x0 in starts:
        x = np.clip(x0, lower, upper)
        fx = f(x)
        ok = False
        for _ in range(MAX_ITER):
            g = grad(x)
            proj = np.clip(x + g, lower, upper) - x
            if np.linalg.norm(proj) <= GRAD_TOL:
                ok = True
                break
            step = 1.0
            while step > 1e-14:
                x_new = np.clip(x + step * g, lower, upper)
                f_new = f(x_new)
                if f_new > fx + 1e-4 * step * float(g @ (x_new - x)) or f_new > fx:
                    break
                step *= 0.5
            if step <= 1e-14:
                ok = np.linalg.norm(proj) <= 10 * GRAD_TOL
                break
            x, fx = x_new, f_new
        converged_any = converged_any or ok
        results.append((x, fx, ok))
        trace.append((x.copy(), float(fx)))
    results.sort(key=lambda r: (-r[1], tuple(r[0])))
    x_hat, f_hat, _ = results[0]
    tie = len(results) > 1 and abs(results[1][1] - f_hat) <= TIE_TOL and not np.allclose(
        results[1][0], x_hat, atol=1e-9
    )
    boundary = bool(np.any(x_hat - lower <= 1e-9) or np.any(upper - x_hat <= 1e-9))
    return x_hat, float(f_hat), trace, tie, boundary, converged_any


def _mixture_grad(
    fam: ParametricFamily, q: MixtureWeights, counts: CountVector
) -> Callable[[np.ndarray], np.ndarray]:
    def grad(theta: np.ndarray) -> np.ndarray:
        terms = log_terms(fam, q, counts.counts, theta)
        w = np.exp(terms - logsumexp(terms))          # posterior weights (d,)
        score = fam.score_table(theta)                # (D, d, l)
        per_comp = score @ counts.counts              # (D, d)
        return (per_comp @ w) / counts.n
    return grad


def mle(
    fam: ParametricFamily, q: MixtureWeights, counts: CountVector, box=None
) -> EstimationReport:
    """Maximum-likelihood estimation of theta over the box.

    D=1 uses maximize_scalar, with the mixture likelihood and the d
    single-component likelihoods as the rows of one call; D>1 multi-start
    projected gradient ascent.  The report carries the per-component MLEs (the
    same optimizer applied to each single-component likelihood), the posterior
    component weights at the argmax and each component's Fisher matrix there.
    Boundary maxima are legal but flagged.

    ``box`` restricts the search to a sub-box of the family box, e.g. to an
    identifiability-valid neighborhood of the true parameter.
    """
    if counts.n < 1:
        raise DomainError("MLE needs at least one observation")
    search = fam.box if box is None else box
    if not (fam.box.contains(search.lower, atol=1e-12) and fam.box.contains(search.upper, atol=1e-12)):
        raise DomainError("search box must lie inside the family box")
    lower, upper = search.lower, search.upper
    dim = fam.dim

    if dim == 1:
        d = fam.n_components
        logq = np.vstack([q.log(), np.where(np.eye(d, dtype=bool), 0.0, -np.inf)])
        f = loglik_rows(fam, logq, counts.counts)
        res = maximize_scalar(f, float(lower[0]), float(upper[0]))
        theta_hat, f_hat = res.x[:1], float(res.value[0])
        tie, boundary, converged = bool(res.tie[0]), bool(res.boundary[0]), True
        trace = [(np.array([x]), v) for x, v in res.trace(0)]
        per_comp_hats = res.x[1:, None]
    else:
        f_vec = lambda x: loglik(fam, q, counts, x).value
        theta_hat, f_hat, trace, tie, boundary, converged = _maximize_box(
            f_vec, _mixture_grad(fam, q, counts), lower, upper
        )
        per_comp_hats = np.empty((fam.n_components, dim))
        for g in range(fam.n_components):
            def fg(x, g=g):
                return loglik_component(fam, counts, x, g)

            def gradg(x, g=g):
                return (fam.score_table(x)[:, g, :] @ counts.counts) / counts.n

            xg, _, _, _, _, _ = _maximize_box(fg, gradg, lower, upper)
            per_comp_hats[g] = xg

    terms = log_terms(fam, q, counts.counts, theta_hat)
    posterior = np.exp(terms - logsumexp(terms))
    fishers = [fisher_information(fam, theta_hat, g) for g in range(fam.n_components)]
    return EstimationReport(
        theta_hat=theta_hat,
        theta_hat_per_component=per_comp_hats,
        loglik_at_max=float(f_hat),
        n=counts.n,
        optimizer_trace=trace,
        fisher_at_hat=fishers,
        posterior_at_hat=posterior,
        converged=converged,
        boundary=boundary,
        tie=tie,
    )
