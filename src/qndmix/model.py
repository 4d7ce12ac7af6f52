"""Parametric families of multinomials over a finite alphabet and their mixtures.

A family assigns to every parameter value theta (in a compact box) and every
hidden component alpha a probability distribution over outcomes 0..l-1; it is
its table p_theta(j|alpha), whose (d, l) shape gives the number of components
and of outcomes.  A family is built from one rule: a table rule, whose
Jacobian comes from finite differences, or a joint rule that gives the
table and its parameter Jacobian in one call.  Information functionals
(Kullback-Leibler divergence as one (d, d) matrix of every component pair,
and Fisher information as one (d, D, D) stack of every component's D x D
matrix) and a grid-based identifiability checker are provided on top.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConstructionError, DomainError

__all__ = [
    "ParameterBox",
    "ParametricFamily",
    "MixtureWeights",
    "IdentifiabilityReport",
    "kl_divergence",
    "fisher_information",
    "kl_matrix",
    "check_identifiability",
]

# Construction-time strict positivity margin for probabilities.
PROB_EPS = 1e-12

# Relative step for central finite differences when no analytic gradient is given.
FD_REL_STEP = 1e-5

# Evenly spaced points, edge to edge, per box axis of the construction checks.
VALIDATION_POINTS_PER_AXIS = 9


@dataclass(frozen=True)
class ParameterBox:
    """Compact axis-aligned parameter box with non-empty interior."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lower.ndim != 1 or lower.shape != upper.shape:
            raise ConstructionError("lower and upper must be 1-D arrays of equal length")
        if not np.all(lower < upper):
            raise ConstructionError("box needs lower < upper in every coordinate")
        lower.setflags(write=False)
        upper.setflags(write=False)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        # require's edges with its 1e-12 slack, computed once for every call.
        object.__setattr__(self, "_slack_edges", (lower - 1e-12, upper + 1e-12))

    @property
    def dimension(self) -> int:
        return self.lower.size

    def contains(self, theta, atol: float = 0.0) -> bool:
        t = np.atleast_1d(np.asarray(theta, dtype=float))
        if t.shape != self.lower.shape:
            return False
        return bool(((t >= self.lower - atol) & (t <= self.upper + atol)).all())

    def is_interior(self, theta) -> bool:
        t = np.atleast_1d(np.asarray(theta, dtype=float))
        return t.shape == self.lower.shape and bool(((t > self.lower) & (t < self.upper)).all())

    def require(self, theta) -> np.ndarray:
        """Return theta as an array of shape (..., D): one point, or a stack of
        points, checked against the box widened by 1e-12 in one comparison
        pass over the whole stack.  Only when that pass fails are the rows
        looked at one by one: DomainError names the first row outside the box
        (a NaN coordinate is outside)."""
        t = np.atleast_1d(np.asarray(theta, dtype=float))
        if t.shape[-1:] != self.lower.shape:
            raise DomainError(f"theta {t} outside parameter box [{self.lower}, {self.upper}]")
        lo, hi = self._slack_edges
        inside = (t >= lo) & (t <= hi)
        if not inside.all():
            row = tuple(np.argwhere(~inside.all(axis=-1))[0].tolist())
            where = f" at stack index {row}" if row else ""
            raise DomainError(
                f"theta {t[row]}{where} outside parameter box [{self.lower}, {self.upper}]"
            )
        return t


class ParametricFamily:
    """Map (theta, alpha) -> distribution over the outcomes 0..l-1.

    A family is built from exactly one rule.  A table rule ``probs(theta)``
    takes theta of shape (..., D) and returns an array of shape (..., d, l):
    row alpha of each table holds the outcome distribution p_theta(.|alpha).
    A single point, shape (D,), gives one (d, l) table; a stack of m points,
    shape (m, D), gives m tables in one call.  Its Jacobian comes from finite
    differences.  A joint rule ``tables(theta)`` returns the pair (p, dp) in
    one call: that table and its parameter Jacobian of shape (..., D, d, l),
    so that the rule can share its work (phases, unitaries) between the two;
    its table half alone serves prob_table.  Passing both rules or neither
    raises ConstructionError.

    The number of components d and of outcomes l are read off the table at
    the box center, as QndSystem reads its sizes off its generators; a table
    that is not 2-D, has no row or has a single outcome is refused.
    Every family is then checked once, at the box center and at 9 evenly
    spaced points from edge to edge along each axis through it: the rule is
    evaluated once at each point, alone, and once on their stack, and the
    checks run over the results.  Every table must have the center's shape,
    every row be a probability vector with entries strictly inside (0, 1),
    and the stacked call match the single-point ones within 1e-12, for a
    joint rule in both halves; a joint rule's Jacobian must also agree with
    one finite-difference pass over all points.  A violation raises
    ConstructionError naming the first offending theta; nothing is clamped.
    """

    def __init__(
        self,
        box: ParameterBox,
        probs: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        tables: Optional[Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]] = None,
    ):
        if (probs is None) == (tables is None):
            raise ConstructionError(
                "a family takes exactly one rule: probs(theta) -> p or tables(theta) -> (p, dp)"
            )
        self.box = box
        self._rule = "probs" if tables is None else "tables"
        self._probs = probs if tables is None else lambda t: tables(t)[0]
        self._tables = tables
        center = 0.5 * (box.lower + box.upper)
        shape = np.shape(self._probs(center))
        if len(shape) != 2 or shape[0] < 1 or shape[1] < 2:
            raise ConstructionError(
                f"{self._rule} returned shape {shape} at the box center theta={center}; "
                f"one point must give a (d, l) table with d >= 1 and l >= 2"
            )
        self.n_components, self.n_outcomes = shape
        self._validate()

    @property
    def dim(self) -> int:
        return self.box.dimension

    # -- evaluation ---------------------------------------------------------
    def prob_table(self, theta) -> np.ndarray:
        """All outcome distributions at theta: shape (d, l) for one point,
        (..., d, l) for a stack of points of shape (..., D)."""
        t = self.box.require(theta)
        return self._shaped(self._rule, self._probs(t), t)

    def log_prob_table(self, theta) -> np.ndarray:
        return np.log(self.prob_table(theta))

    def tables(self, theta) -> tuple[np.ndarray, np.ndarray]:
        """prob_table and its Jacobian d p_theta(j|alpha) / d theta_k at theta,
        after one box check: shapes (d, l) and (D, d, l) for one point,
        (..., d, l) and (..., D, d, l) for a stack of points of shape (..., D).

        Both come from one call of the joint rule; a table rule gives the
        table, and the Jacobian comes from finite differences (relative step
        1e-5).
        """
        t = self.box.require(theta)
        if self._tables is None:
            return self._shaped("probs", self._probs(t), t), self._fd_dprob_table(t)
        p, dp = self._tables(t)
        return self._shaped("tables", p, t), self._shaped("tables", dp, t, (self.dim,))

    def _shaped(self, name: str, value, t: np.ndarray, lead: tuple = ()) -> np.ndarray:
        """value, which name gave at the checked points t, as a float array of
        shape t.shape[:-1] + lead + (d, l)."""
        value = np.asarray(value, dtype=float)
        expected = t.shape[:-1] + lead + (self.n_components, self.n_outcomes)
        if value.shape != expected:
            raise ConstructionError(f"{name} returned shape {value.shape}, expected {expected}")
        return value

    def _fd_dprob_table(self, t: np.ndarray) -> np.ndarray:
        """Finite-difference Jacobian of probs, shape (..., D, d, l) for t of
        shape (..., D).  Each row takes a central difference where one step
        fits on both sides, a second-order one-sided stencil where only one
        side has room for two steps, and otherwise a central difference shrunk
        to the room it has."""
        jac = np.empty(t.shape + (self.n_components, self.n_outcomes))
        for k in range(self.dim):
            x = t[..., k]
            step = FD_REL_STEP * (1.0 + np.abs(x))
            room_lo, room_hi = x - self.box.lower[k], self.box.upper[k] - x
            central = (room_lo >= step) & (room_hi >= step)
            forward = ~central & (room_hi >= 2.0 * step)
            backward = ~central & ~forward & (room_lo >= 2.0 * step)
            one_sided = forward | backward
            h = np.where(
                central | one_sided, step, np.maximum(np.minimum(room_lo, room_hi), 1e-12)
            )
            sign = np.where(backward, -1.0, 1.0)

            def at(offset):
                p = t.copy()
                p[..., k] += offset
                return np.asarray(self._probs(p), dtype=float)

            near = at(sign * h)
            far = at(np.where(one_sided, 2.0 * sign * h, -h))
            diff = near - far
            if np.any(one_sided):
                side = sign[..., None, None] * (-3.0 * at(0.0) + 4.0 * near - far)
                diff = np.where(one_sided[..., None, None], side, diff)
            jac[..., k, :, :] = diff / (2.0 * h)[..., None, None]
        return jac

    # -- construction validation -------------------------------------------
    def _validation_points(self) -> np.ndarray:
        """The box center and, along each axis through it, the axis-wise
        linspace from lower to upper edge: 1 + 9 D points before duplicates go."""
        lo, hi = self.box.lower, self.box.upper
        center = 0.5 * (lo + hi)
        scan = np.tile(center, (self.dim, VALIDATION_POINTS_PER_AXIS, 1))
        for k in range(self.dim):
            scan[k, :, k] = np.linspace(lo[k], hi[k], VALIDATION_POINTS_PER_AXIS)
        return np.unique(np.vstack([center, scan.reshape(-1, self.dim)]), axis=0)

    def _validate(self):
        # np.nonzero(flags)[0][0] is the first point with a flagged entry.
        points = self._validation_points()
        rule = self._tables or (lambda t: (self._probs(t),))
        singles = [rule(t) for t in points]
        tables = self._singles(self._rule, [pair[0] for pair in singles], points, ())
        bad = ~np.isfinite(tables)
        if np.any(bad):
            i = np.nonzero(bad)[0][0]
            raise ConstructionError(f"non-finite probability at theta={points[i]}")
        margin = np.minimum(tables, 1.0 - tables)
        if np.any(margin <= PROB_EPS):
            i = np.nonzero(margin <= PROB_EPS)[0][0]
            a, j = np.unravel_index(int(np.argmin(margin[i])), margin.shape[1:])
            raise ConstructionError(
                f"probability p(j={j}|alpha={a}) = {tables[i, a, j]} at theta={points[i]} "
                f"violates the strict (0, 1) requirement"
            )
        row_err = np.abs(tables.sum(axis=2) - 1.0)
        if np.any(row_err > 1e-12):
            i = np.nonzero(row_err > 1e-12)[0][0]
            a = int(np.argmax(row_err[i]))
            raise ConstructionError(
                f"distribution for alpha={a} sums to {tables[i, a].sum()} at theta={points[i]}"
            )
        stacked = rule(points)
        self._check_stack(self._rule, "(..., d, l)", stacked[0], points, tables)
        if self._tables is not None:
            jacobians = self._singles("tables", [pair[1] for pair in singles], points, (self.dim,))
            self._check_stack("tables", "(..., D, d, l)", stacked[1], points, jacobians)
            err = np.abs(jacobians - self._fd_dprob_table(points))
            bad = err > 1e-6 * (1.0 + np.abs(jacobians))
            if np.any(bad):
                raise ConstructionError(f"analytic gradient inconsistent with finite differences "
                                        f"at theta={points[np.nonzero(bad)[0][0]]}")

    def _singles(self, name: str, values: list, points: np.ndarray, lead: tuple) -> np.ndarray:
        """values, name's results at each point alone, stacked; each must have
        shape lead + (d, l)."""
        expected = lead + (self.n_components, self.n_outcomes)
        singles = [np.asarray(value, dtype=float) for value in values]
        for t, value in zip(points, singles):
            if value.shape != expected:
                raise ConstructionError(
                    f"{name} returned shape {value.shape} at theta={t}, expected {expected} "
                    f"for the table shape {expected[-2:]} at the box center"
                )
        return np.array(singles)

    @staticmethod
    def _check_stack(name: str, shape: str, stacked, points: np.ndarray, singles: np.ndarray):
        """name's result on the stacked points must give, row by row, its
        single-point results within 1e-12."""
        stacked = np.asarray(stacked, dtype=float)
        if stacked.shape != singles.shape:
            raise ConstructionError(
                f"{name} returned shape {stacked.shape} for a stack of {len(points)} points; "
                f"a stack of shape (..., D) must give shape {shape}"
            )
        err = np.max(np.abs(stacked - singles).reshape(len(points), -1), axis=1)
        if np.any(err > 1e-12):
            raise ConstructionError(
                f"{name} on a stack of points differs by {err.max()} from {name} at "
                f"theta={points[int(np.argmax(err))]} alone"
            )


@dataclass(frozen=True)
class MixtureWeights:
    """Strictly positive weights on the component simplex.

    cdf, the normalized cumulative weights q.cumsum() / q.sum(), is computed
    once, at construction, and is read-only; draw samples components from it
    by inverse cdf."""

    q: np.ndarray

    def __post_init__(self):
        q = np.atleast_1d(np.asarray(self.q, dtype=float))
        if q.ndim != 1 or q.size < 1:
            raise ConstructionError("weights must form a non-empty vector")
        if not np.all(np.isfinite(q)):
            raise ConstructionError(f"weights {q} have non-finite entries")
        if np.any(q <= 0.0):
            raise ConstructionError("all mixture weights must be strictly positive")
        if abs(q.sum() - 1.0) > 1e-12:
            raise ConstructionError(f"weights sum to {q.sum()}, not 1")
        q.setflags(write=False)
        object.__setattr__(self, "q", q)
        cdf = q.cumsum()
        cdf /= cdf[-1]
        cdf.setflags(write=False)
        object.__setattr__(self, "cdf", cdf)

    def draw(self, rng: np.random.Generator, size: Optional[int] = None):
        """Component indices drawn from q on rng: one np.int64 for size None,
        an int64 array of that size otherwise.  The values, and rng's state
        after the draw, are those of rng.choice(self.size, size, p=self.q),
        which validates p and then takes this same inverse-cdf draw."""
        return self.cdf.searchsorted(rng.random(size), side="right")

    @classmethod
    def normalized(cls, weights: Sequence[float]) -> "MixtureWeights":
        w = np.asarray(weights, dtype=float)
        total = w.sum()
        if not np.isfinite(total) or total <= 0.0:
            raise ConstructionError(f"weights sum to {total}; cannot normalize")
        return cls(w / total)

    @property
    def size(self) -> int:
        return self.q.size

    def log(self) -> np.ndarray:
        return np.log(self.q)


# ---------------------------------------------------------------------------
# Information functionals
# ---------------------------------------------------------------------------

def kl_divergence(fam: ParametricFamily, theta, theta2) -> np.ndarray:
    """Matrix of divergences; entry (a, g) = KL(p_theta(.|a) || p_theta2(.|g))."""
    p = fam.prob_table(theta)
    return _kl(p, np.log(p), fam.log_prob_table(theta2))


def _kl(p: np.ndarray, log_p: np.ndarray, log_p2: np.ndarray) -> np.ndarray:
    return np.sum(p[:, None] * (log_p[:, None] - log_p2), axis=-1)


def kl_matrix(fam: ParametricFamily, theta) -> np.ndarray:
    """kl_divergence at theta2 = theta, from one table, with an exactly zero
    diagonal.

    Off-diagonal entries are strictly positive whenever the components are
    pairwise distinguishable at theta.
    """
    p = fam.prob_table(theta)
    log_p = np.log(p)
    out = _kl(p, log_p, log_p)
    np.fill_diagonal(out, 0.0)
    return out


def fisher_information(fam: ParametricFamily, theta) -> np.ndarray:
    """Fisher information sum_j p (grad ln p)(grad ln p)^T of every component
    at one point theta: shape (d, D, D), row alpha the D x D matrix of
    component alpha, symmetric and positive semi-definite.  A stack of points
    is refused with DomainError."""
    if np.ndim(theta) > 1:
        raise DomainError(f"fisher_information takes one parameter point, got theta of shape "
                          f"{np.shape(theta)}")
    return _fisher_from_tables(*fam.tables(theta))


def _fisher_from_tables(p: np.ndarray, dp: np.ndarray) -> np.ndarray:
    """fisher_information from one point's table p (d, l) and Jacobian dp (D, d, l)."""
    s = np.swapaxes(dp / p, 0, 1)  # score, (d, D, l)
    m = (s * p[:, None, :]) @ np.swapaxes(s, 1, 2)
    return 0.5 * (m + np.swapaxes(m, 1, 2))


# ---------------------------------------------------------------------------
# Identifiability
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdentifiabilityReport:
    """Result of the grid-based distinguishability scan.

    ``flagged`` lists pairs ((alpha, theta_index), (beta, theta2_index), margin)
    whose sup-distance over outcomes fell below the tolerance.  A clean scan is
    evidence for identifiability on the grid, not a proof over the continuum.
    """

    n_points: int
    n_pairs: int
    tol: float
    min_margin: float
    flagged: tuple

    @property
    def passed(self) -> bool:
        return len(self.flagged) == 0


def check_identifiability(
    fam: ParametricFamily,
    theta_grid: Sequence,
    tol: float = 1e-9,
) -> IdentifiabilityReport:
    """Scan all pairs (component, grid point) for indistinguishable distributions.

    For every pair of distinct (alpha, theta) items the margin is
    max_j |p_theta(j|alpha) - p_theta2(j|beta)|; pairs with margin < tol are
    flagged.
    """
    if len(theta_grid) == 0:
        raise DomainError("theta_grid must be non-empty")
    grid = np.asarray(theta_grid, dtype=float).reshape(len(theta_grid), -1)
    d = fam.n_components
    tables = fam.prob_table(grid)  # (G, d, l)
    flat = tables.reshape(len(grid) * d, fam.n_outcomes)
    idx = [(a, g) for g in range(len(grid)) for a in range(d)]
    n = flat.shape[0]
    flagged = []
    min_margin = np.inf
    for i in range(n - 1):
        margins = np.max(np.abs(flat[i + 1:] - flat[i]), axis=1)
        m = float(margins.min())
        if m < min_margin:
            min_margin = m
        below = np.nonzero(margins < tol)[0]
        for off in below:
            flagged.append((idx[i], idx[i + 1 + off], float(margins[off])))
    return IdentifiabilityReport(
        n_points=len(grid),
        n_pairs=n * (n - 1) // 2,
        tol=tol,
        min_margin=min_margin,
        flagged=tuple(flagged),
    )
