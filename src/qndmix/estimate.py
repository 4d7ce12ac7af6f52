"""Log-likelihood evaluation and maximum-likelihood estimation over the box.

The normalized mixture log-likelihood of an n-step record depends on the
record only through its outcome counts:

    ell_n(theta) = (1/n) ln sum_alpha q(alpha) exp(sum_j N_n(j) ln p_theta(j|alpha))

and is evaluated with a max-shifted log-sum so that exponentially collapsed
components cannot underflow the total.  logsumexp is the package's one
log-sum; over a contiguous last axis of many rows it runs its elementwise
steps component-major, in contiguous slabs, and adds the slabs in the order
the row-wise path adds each row, so every result is the row-wise one bit for
bit.

loglik_rows evaluates it, its score and, on request, its curvature for many
rows at once.  Both maximizers seed each row's candidates from one shared
scan of the box, whose tables (ln p, p and its Jacobian) are built once per
family and box (keyed on the scan points' values); maximize_scalar (D = 1)
refines them by bracketed root-finding on the score, _maximize_box (D > 1)
by projected Fisher scoring.  The first trial batch, at scan points, gathers
p and its Jacobian from the scan's tables; every later one takes them from
one ParametricFamily.tables call, and mle takes the posterior and the Fisher
stack at theta_hat from one more.
"""

from __future__ import annotations

import functools
import itertools
import os
import weakref
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError
from .model import MixtureWeights, ParameterBox, ParametricFamily, _fisher_from_tables
from .simulate import CountVector

__all__ = [
    "LogLikelihood",
    "EstimationReport",
    "loglik",
    "loglik_component",
    "log_terms",
    "logsumexp",
    "Maxima",
    "loglik_rows",
    "maximize_scalar",
    "mle",
]

COARSE_POINTS = 64
# loglik_rows evaluates at most this many count rows (scan) or trial points at
# once, so that every elementwise temporary of a block stays in cache.
ROW_BLOCK = 1024
# logsumexp runs its elementwise steps component-major from this many rows
# on; below it the row-wise path is as fast (measured crossover: 64-128 rows).
SLAB_ROWS = 128
# numpy's pairwise sum adds a run of up to this many entries with eight
# running sums, and splits a longer run in two.
PAIRWISE_BLOCK = 128
TIE_TOL = 1e-12
# Below about -708 numpy's exp leaves its vectorized path; exp(-700) is 9.9e-305.
EXP_FLOOR = -700.0
# Refinement, for every D: a candidate stops once its last step (for D = 1, or
# its bracket) is below STEP_TOL; it is unconverged after MAX_STEPS steps.
STEP_TOL = 1e-8
MAX_STEPS = 60
# Projected Fisher scoring (D > 1): the pseudo-inverse's relative cutoff
# leaves out the near-flat directions of a rank-deficient information.
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

    theta_hat (D,), theta_hat_per_component (d, D), posterior_at_hat (d,) and
    fisher_at_hat (d, D, D) are float arrays.  optimizer_trace lists the
    mixture row's (theta, loglik) pairs, scan points first, theta as a list
    of D floats and loglik as a float.  converged is the mixture row's: every
    candidate stopped within MAX_STEPS steps."""

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
            "theta_hat": self.theta_hat.tolist(),
            "theta_hat_per_component": self.theta_hat_per_component.tolist(),
            "loglik_at_max": float(self.loglik_at_max),
            "n": int(self.n),
            "posterior_at_hat": self.posterior_at_hat.tolist(),
            "fisher_at_hat": self.fisher_at_hat.tolist(),
            "converged": bool(self.converged),
            "boundary": bool(self.boundary),
            "tie": bool(self.tie),
        }

    def trace_to_csv(self, path) -> None:
        """One CSV row per (theta, loglik) of optimizer_trace, in one write;
        theta may be a sequence of floats or an array."""
        header = [f"theta_{k}" for k in range(np.atleast_1d(self.theta_hat).size)] + ["loglik"]
        rows = [[*theta, value] for theta, value in self.optimizer_trace]
        _write_in_place(path, _csv_text(header, rows))


def _csv_text(header, rows) -> str:
    """RFC-4180-style CSV: '.' decimals, floats to 17 significant digits, CRLF line ends.

    The table's format string holds '%.17g' for each float cell (np.float64
    included) and '%s' for any other (str(x): ints, the header's names), and
    one % pass over all cells fills it."""
    table = [header, *rows]
    formats = [["%.17g" if isinstance(x, float) else "%s" for x in row] for row in table]
    return "\r\n".join(map(",".join, formats)) % tuple(itertools.chain.from_iterable(table)) + "\r\n"


def _write_in_place(path, text: str) -> None:
    """Write text to path, UTF-8 encoded, with the bytes and new-file mode of
    open(path, "w"), but without O_TRUNC: write, then truncate to the written
    length, keeping the inode.  A truncation to zero at open makes ext4 flush
    the file on close (auto_da_alloc).  Median cost per rewrite of a dirty
    ext4 file, 2-vCPU shared host: 290-630 us with O_TRUNC, 40-110 us in
    place, 90-180 us after an unlink, 430 us by temporary file and os.replace
    (a rename also triggers the flush)."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as f:
        f.write(text.encode())
        f.truncate()


# ---------------------------------------------------------------------------
# Likelihood evaluation
# ---------------------------------------------------------------------------

def log_terms(fam: ParametricFamily, q: MixtureWeights, counts: np.ndarray, theta) -> np.ndarray:
    """Per-component log terms ln q(alpha) + sum_j N(j) ln p_theta(j|alpha) of
    every count row: counts of shape (..., l) give terms of shape (..., d)."""
    return _log_terms(q, counts, fam.log_prob_table(theta))


def _log_terms(q: MixtureWeights, counts: np.ndarray, log_p: np.ndarray) -> np.ndarray:
    """log_terms from log_p, the (d, l) table ln p_theta(j|alpha) at theta."""
    return q.log() + counts @ log_p.T


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


# ---------------------------------------------------------------------------
# Optimizers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Maxima:
    """Output of maximize_scalar and _maximize_box: x (R, D), value, tie,
    boundary, evaluations and converged hold one entry per row; the scan and
    the refined candidates make up each row's trace."""

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
        """(x, f(x)) of every scan point and every refined candidate of one
        row, x as a list of D floats."""
        mine = self.cand_rows == row
        points = list(zip(self.scan_x.tolist(), self.scan_values[row].tolist()))
        return points + list(zip(self.cand_x[mine].tolist(), self.cand_values[mine].tolist()))


def maximize_scalar(f: Callable, lo: float, hi: float) -> Maxima:
    """Maximize R smooth scalar objectives ("rows") on [lo, hi] at once.

    ``f(x)`` evaluates every row at every point of the 1-D array x and returns
    an (R, len(x)) array (or a length-len(x) vector when R = 1);
    ``f(x, rows)`` evaluates row rows[i] at x[i] and returns two vectors, the
    values and the slopes; ``f(x, rows, curvature=True)`` adds a third, a
    negative curvature (an expected Hessian will do).  Only the first
    evaluation asks for the curvature, which sets the first step.  That
    evaluation is at scan points, the points of the f(x) call before it,
    which a loglik_rows objective does not evaluate again: it gathers their
    tables from its scan.

    A shared scan of COARSE_POINTS points picks each row's candidates: the
    scan argmax and every strict local maximum.  Each candidate starts at its
    scan point, bracketed by the two scan neighbours, and steps towards a
    root of its slope: one Newton step with the supplied curvature, then
    secant steps.  The sign of the slope moves the bracket ends, and a step
    that would leave the bracket, or that divides by zero, bisects it
    instead.  A candidate stops once
    its last step or its bracket is below STEP_TOL, so one whose slope points
    out of the box at a box edge stops on that edge.  The candidates of all
    rows still stepping advance together, held in compact arrays that drop
    each candidate as it stops, and _select picks each row's maximum.
    """
    xs = np.linspace(lo, hi, COARSE_POINTS)
    scan = np.atleast_2d(f(xs))
    peak = np.ones(scan.shape, dtype=bool)
    peak[:, 1:] = scan[:, 1:] > scan[:, :-1]
    peak[:, :-1] &= scan[:, :-1] > scan[:, 1:]
    peak[np.arange(len(scan)), scan.argmax(axis=1)] = True
    rows, idx = np.nonzero(peak)

    x = xs[idx]
    a = xs[np.maximum(idx - 1, 0)]
    b = xs[np.minimum(idx + 1, COARSE_POINTS - 1)]
    value, slope, curvature = (np.array(v, dtype=float) for v in f(x, rows, curvature=True))
    step = _divide(-slope, curvature)
    moved = np.full(rows.size, np.inf)
    # The loop holds the live candidates only, in candidate order: live[i] is
    # the candidate index of entry i.  A candidate's x, value and evaluation
    # count go to x_hat, value_hat and evaluations when it stops.
    live, live_rows = np.arange(rows.size), rows
    x_hat, value_hat = np.empty(rows.size), np.empty(rows.size)
    evaluations = np.empty(rows.size, dtype=int)
    for n_steps in range(MAX_STEPS + 1):
        # A positive slope moves the lower end up to x, a negative one the
        # upper end down; a zero slope closes the bracket.
        a = np.where(slope >= 0, x, a)
        b = np.where(slope <= 0, x, b)
        keep = (b - a > STEP_TOL) & (moved > STEP_TOL)
        if not keep.all():
            stop = ~keep
            done = live[stop]
            x_hat[done], value_hat[done], evaluations[done] = x[stop], value[stop], n_steps + 1
            live, live_rows, x, value, slope, step, a, b = (
                v[keep] for v in (live, live_rows, x, value, slope, step, a, b))
        if live.size == 0 or n_steps == MAX_STEPS:
            break
        new = x + step
        new = np.where((new > a) & (new < b), new, 0.5 * (a + b))
        v, s = f(new, live_rows)
        step = _divide(s * (new - x), slope - s)
        moved = np.abs(new - x)
        x, value, slope = new, v, s
    x_hat[live], value_hat[live], evaluations[live] = x, value, n_steps + 1
    return _select(xs[:, None], scan, rows, x_hat[:, None], value_hat, evaluations, live, lo, hi)


def _divide(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den without a warning: nan where den is 0, a step that the
    bracket test turns into a bisection."""
    if np.count_nonzero(den) < den.size:
        den = np.where(den == 0, np.nan, den)
    return num / den


def _select(scan_x, scan, rows, x, value, evaluations, unstopped, lower, upper) -> Maxima:
    """Each row's maximum among its refined candidates (rows in ascending
    order, x of shape (k, D)): the lexicographically smallest x within TIE_TOL
    of the row's best value wins, and another candidate within TIE_TOL that
    ends more than STEP_TOL away sets the tie flag.  evaluations counts a
    row's refinement evaluations over all its candidates; a row is converged
    when none of its candidates is among the unstopped ones."""
    n_rows = len(scan)
    first = np.searchsorted(rows, np.arange(n_rows))
    near = value >= np.maximum.reduceat(value, first)[rows] - TIE_TOL
    best = np.lexsort((*x.T[::-1], ~near, rows))[first]
    x_hat = x[best]
    apart = np.any(np.abs(x - x_hat[rows]) > STEP_TOL, axis=1)
    return Maxima(
        x=x_hat,
        value=value[best],
        tie=np.bincount(rows[near & apart], minlength=n_rows) > 0,
        boundary=np.any((x_hat - lower <= STEP_TOL) | (upper - x_hat <= STEP_TOL), axis=1),
        evaluations=np.bincount(rows, weights=evaluations, minlength=n_rows).astype(int),
        converged=np.bincount(rows[unstopped], minlength=n_rows) == 0,
        scan_x=scan_x,
        scan_values=scan,
        cand_rows=rows,
        cand_x=x,
        cand_values=value,
    )


def loglik_rows(fam: ParametricFamily, logq: np.ndarray, counts: np.ndarray) -> Callable:
    """Objective of maximize_scalar and _maximize_box: row r's normalized
    log-likelihood

        (1/n_r) ln sum_alpha exp(logq[r, alpha] + sum_j counts[r, j] ln p_x(j|alpha)),

    at scan points x (m scalars or (m, D)) for every row, or at trial points
    x (k scalars or (k, D)) with its slope (the mixture score over n_r),
    shaped like x, and, when called with curvature=True, the Fisher-scoring
    curvature -sum_alpha w_alpha I_alpha(x), shaped (k,) or (k, D, D), where
    w are the posterior component weights of the row at x.  maximize_scalar
    asks for the curvature at its first evaluation only, _maximize_box at
    every one.

    The objective remembers the _ScanTable of its last scan until its next
    trial call.  When every point of that call is a scan point (the first
    step of both maximizers), it gathers their p and Jacobian from that
    table, whose points the box check passed when it was built; any other
    trial call evaluates fam.tables, with its box check.

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
    # The scan table of the last scan, until the next trial call.
    scanned = None

    def scan(x: np.ndarray) -> np.ndarray:
        # Component-major terms (d, m, rows): the sum over components runs
        # elementwise over d contiguous (m, rows) slabs.
        nonlocal scanned
        scanned = _scan_table(fam, x)
        logp = scanned.logp
        d, m = fam.n_components, len(x)
        out = np.empty((n_rows, m))
        for b in _blocks(n_rows):
            terms = (logp @ counts[b].T).reshape(d, m, -1)
            terms += logq[b].T[:, None, :]
            out[b] = (logsumexp(terms, axis=0) / n[b]).T
        return out

    def at_points(x: np.ndarray, rows: np.ndarray, curvature: bool, p: np.ndarray, dp: np.ndarray) -> tuple:
        c = counts[rows]
        terms = np.einsum("kdl,kl->kd", np.log(p), c) + logq[rows]
        total = logsumexp(terms, axis=-1)
        w = np.exp(terms - total[:, None])[:, None, :]
        score = dp / p[:, None]
        slope = np.sum(w * np.einsum("kidl,kl->kid", score, c), axis=-1) / n[rows, None]
        value, slope = total / n[rows], slope.reshape(x.shape)
        if not curvature:
            return value, slope
        h = -np.sum(w[:, None] * np.einsum("kidl,kjdl->kijd", dp, score), axis=-1)
        return value, slope, h.reshape(x.shape + x.shape[1:])

    def f(x: np.ndarray, rows: Optional[np.ndarray] = None, curvature: bool = False):
        nonlocal scanned
        if rows is None:
            return scan(x)
        t = x.reshape(len(x), -1)
        table, scanned = scanned, None
        at = None if table is None else table.find(t)
        if len(x) <= ROW_BLOCK:
            tables = fam.tables(t) if at is None else (table.p[at], table.dp[at])
            return at_points(x, rows, curvature, *tables)
        parts = []
        for b in _blocks(len(x)):
            tables = fam.tables(t[b]) if at is None else (table.p[at[b]], table.dp[at[b]])
            parts.append(at_points(x[b], rows[b], curvature, *tables))
        return tuple(np.concatenate(arrays) for arrays in zip(*parts))

    return f


_SCAN_TABLES = weakref.WeakKeyDictionary()  # family -> {scan points: _ScanTable}


class _ScanTable:
    """A family's tables at m scan points, from one fam.tables call (so one
    box check), all read-only: the points x (m, D); logp, ln p as a
    component-major (d·m, l) table, C-contiguous, the layout that fixes how
    the scan's matrix product rounds each value; and p (m, d, l) and its
    Jacobian dp (m, D, d, l), which a trial call at scan points gathers in
    place of a second evaluation.  Both rules of every preset are pointwise,
    so a gathered table equals fam.tables at those points bit for bit."""

    def __init__(self, fam: ParametricFamily, x: np.ndarray):
        self.x = x
        self.p, self.dp = fam.tables(x)
        self.logp = np.swapaxes(np.log(self.p), 0, 1).reshape(-1, fam.n_outcomes)
        # Scan points in order of their first coordinate, for find.
        self._order = np.argsort(x[:, 0], kind="stable")
        self._first = x[self._order, 0]
        for a in (x, self.p, self.dp, self.logp):
            a.setflags(write=False)

    def find(self, t: np.ndarray) -> Optional[np.ndarray]:
        """The scan indices of the k points t (k, D) when every one is a scan
        point, else None (a NaN coordinate matches nothing): one searchsorted
        on the first coordinate, then one equality test on the whole points."""
        at = self._order[np.minimum(np.searchsorted(self._first, t[:, 0]), len(self.x) - 1)]
        return at if np.array_equal(self.x[at], t) else None


def _scan_table(fam: ParametricFamily, x: np.ndarray) -> _ScanTable:
    """The _ScanTable of fam at the m scan points x (m scalars or (m, D)),
    built on the first scan of x and kept for the family's lifetime."""
    tables = _SCAN_TABLES.setdefault(fam, {})
    key = (x.shape, x.tobytes())
    if key not in tables:
        tables[key] = _ScanTable(fam, x.reshape(len(x), -1).copy())
    return tables[key]


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
    and exp's underflowing path is many times slower than its normal one.

    A reduction over a contiguous last axis of at least SLAB_ROWS rows runs
    on one contiguous copy with that axis leading, so that the max, tie, floor
    and exp steps run elementwise over its d slabs instead of one short row at
    a time; those steps are exact in any order.  The sum is not: _slab_sum
    adds the slabs in the order numpy's row sum adds a row's entries (one
    after another below 8, eight running sums up to PAIRWISE_BLOCK, a
    row-major copy beyond), so the result is the row-wise one bit for bit.
    Fewer rows, and a last axis that is not the fastest one, take the
    row-wise path.
    """
    slabs = (
        axis is not None and a.ndim > 1 and axis % a.ndim == a.ndim - 1
        and a.strides[-1] == a.itemsize and a.size >= SLAB_ROWS * a.shape[-1]
    )
    if slabs:
        shape = a.shape[:-1]
        a, axis = np.ascontiguousarray(np.moveaxis(a, -1, 0)).reshape(a.shape[-1], -1), 0
    a_max = a.max(axis=axis, keepdims=True)
    top = a == a_max
    ties = top.sum(axis=axis, keepdims=True).astype(float)
    e = np.subtract(a, np.maximum(a_max, -np.finfo(float).max))
    live = (e > EXP_FLOOR) & ~top
    np.maximum(e, EXP_FLOOR, out=e)
    np.exp(e, out=e)
    e *= live
    s = _slab_sum(e)[None] if slabs else e.sum(axis=axis, keepdims=True)
    out = np.squeeze(np.log1p(s / ties) + np.log(ties) + a_max, axis=axis)
    return out.reshape(shape) if slabs else out


def _slab_sum(e: np.ndarray) -> np.ndarray:
    """The sums over the d slabs of e (d, rows), bit for bit numpy's sums of
    the rows of e.T: below 8 slabs one after another; up to PAIRWISE_BLOCK,
    slab j starts the j-th of eight running sums, which take every eighth
    slab after it and are combined ((s0+s1)+(s2+s3))+((s4+s5)+(s6+s7))
    before the remaining slabs are added in order; beyond it, where numpy
    splits a row, a row-major copy is summed.  Overwrites e.
    """
    d = len(e)
    if d > PAIRWISE_BLOCK:
        return np.ascontiguousarray(e.T).sum(axis=-1)
    tail = 1
    if d >= 8:
        tail = d - d % 8
        for start in range(8, tail, 8):
            e[:8] += e[start:start + 8]
        e[0:8:2] += e[1:8:2]
        e[0:8:4] += e[2:8:4]
        e[0] += e[4]
    for slab in e[tail:]:
        e[0] += slab
    return e[0]


@functools.cache
def _halton(n: int, dim: int) -> np.ndarray:
    """First n points of the unscrambled Halton sequence in [0, 1)^dim, read-only:
    the radical inverses of 0, ..., n - 1 in the first dim prime bases."""
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
    points.setflags(write=False)
    return points


@functools.cache
def _halton_neighbours(n: int, dim: int) -> np.ndarray:
    """The dim nearest others of each of the first n Halton points, nearest first, read-only."""
    unit = _halton(n, dim)
    neighbours = np.argsort(np.sum((unit[:, None] - unit) ** 2, axis=-1), axis=1, kind="stable")[:, 1:dim + 1]
    neighbours.setflags(write=False)
    return neighbours


def _maximize_box(f: Callable, lower: np.ndarray, upper: np.ndarray) -> Maxima:
    """Projected Fisher scoring (D > 1) on the rows of a loglik_rows
    objective, the D-dimensional twin of maximize_scalar.

    A shared scan of COARSE_POINTS Halton points of the box picks each row's
    candidates: the scan argmax and every scan point above its D nearest scan
    neighbours, distances scaled by the box.  All candidates of all rows step
    together, and only those still stepping are evaluated.  A candidate steps
    by its curvature's pseudo-inverse times its slope, on the coordinates no
    outward slope holds at a box edge, clipped to the box and halved while the
    value does not rise; it stops once the step is below STEP_TOL, unstopped
    after MAX_STEPS steps.  _select picks each row's maximum.
    """
    dim = lower.size
    unit = _halton(COARSE_POINTS, dim)
    xs = lower + unit * (upper - lower)
    scan = np.atleast_2d(f(xs))
    peak = np.all(scan[:, :, None] > scan[:, _halton_neighbours(COARSE_POINTS, dim)], axis=2)
    peak[np.arange(len(scan)), scan.argmax(axis=1)] = True
    rows, idx = np.nonzero(peak)

    x = xs[idx]
    fx, g, h = f(x, rows, curvature=True)
    evaluations = np.ones(rows.size, dtype=int)
    scale = np.ones(rows.size)
    act = np.arange(rows.size)
    for _ in range(MAX_STEPS):
        x_act, g_act = x[act], g[act]
        free = ~(((x_act - lower <= STEP_TOL) & (g_act < 0)) | ((upper - x_act <= STEP_TOL) & (g_act > 0)))
        info = -h[act] * (free[:, :, None] & free[:, None, :])
        step = np.einsum("kij,kj->ki", np.linalg.pinv(info, rcond=PINV_RCOND, hermitian=True), g_act * free)
        x_new = np.clip(x_act + scale[act, None] * step, lower, upper)
        moving = np.abs(x_new - x_act).max(axis=1) > STEP_TOL
        act, x_new = act[moving], x_new[moving]
        if act.size == 0:
            break
        f_new, g_new, h_new = f(x_new, rows[act], curvature=True)
        evaluations[act] += 1
        rise = f_new > fx[act]
        up = act[rise]
        x[up], fx[up], g[up], h[up] = x_new[rise], f_new[rise], g_new[rise], h_new[rise]
        scale[act] = np.where(rise, 1.0, 0.5 * scale[act])
    return _select(xs, scan, rows, x, fx, evaluations, act, lower, upper)


def _fit(fam: ParametricFamily, logq: np.ndarray, counts: np.ndarray, box: ParameterBox) -> Maxima:
    """The rows of loglik_rows(fam, logq, counts) maximized over box, by
    maximize_scalar (D = 1) or _maximize_box (D > 1)."""
    f = loglik_rows(fam, logq, counts)
    if fam.dim == 1:
        return maximize_scalar(f, float(box.lower[0]), float(box.upper[0]))
    return _maximize_box(f, box.lower, box.upper)


def mle(
    fam: ParametricFamily, q: MixtureWeights, counts: CountVector, box=None
) -> EstimationReport:
    """Maximum-likelihood estimation of theta over the box (by default the
    family box; a sub-box may restrict the search, e.g. to an
    identifiability-valid neighborhood of the true parameter).

    The mixture likelihood and the d single-component likelihoods are the
    rows of one loglik_rows objective, maximized by _fit.  The report carries
    both argmaxes, the mixture row's tie, boundary and converged flags, the
    posterior component weights at the mixture argmax and the (d, D, D)
    stack of component Fisher matrices there.
    """
    if counts.n < 1:
        raise DomainError("MLE needs at least one observation")
    search = fam.box if box is None else box
    if not (fam.box.contains(search.lower, atol=1e-12) and fam.box.contains(search.upper, atol=1e-12)):
        raise DomainError("search box must lie inside the family box")
    d = fam.n_components
    logq = np.vstack([q.log(), np.where(np.eye(d, dtype=bool), 0.0, -np.inf)])
    res = _fit(fam, logq, counts.counts, search)
    theta_hat = res.x[0]

    p, dp = fam.tables(theta_hat)
    terms = _log_terms(q, counts.counts, np.log(p))
    posterior = np.exp(terms - logsumexp(terms))
    return EstimationReport(
        theta_hat=theta_hat,
        theta_hat_per_component=res.x[1:],
        loglik_at_max=float(res.value[0]),
        n=counts.n,
        optimizer_trace=res.trace(0),
        fisher_at_hat=_fisher_from_tables(p, dp),
        posterior_at_hat=posterior,
        converged=bool(res.converged[0]),
        boundary=bool(res.boundary[0]),
        tie=bool(res.tie[0]),
    )
