"""Parametric families of multinomials over a finite alphabet and their mixtures.

A family assigns to every parameter value theta (in a compact box) and every
hidden component alpha a probability distribution over a finite outcome
alphabet.  Information functionals (Shannon entropy, Kullback-Leibler
divergence, Fisher information) and a grid-based identifiability checker are
provided on top.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import CapabilityError, ConstructionError, DomainError

__all__ = [
    "Alphabet",
    "ComponentSet",
    "ParameterBox",
    "ParametricFamily",
    "MixtureWeights",
    "InfoMatrix",
    "IdentifiabilityReport",
    "shannon_entropy",
    "kl_divergence",
    "fisher_information",
    "kl_matrix",
    "check_identifiability",
]

# Construction-time strict positivity margin for probabilities.
PROB_EPS = 1e-12

# Relative step for central finite differences when no analytic gradient is given.
FD_REL_STEP = 1e-5


def _default_labels(prefix: str, size: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{i}" for i in range(size))


@dataclass(frozen=True)
class Alphabet:
    """Finite outcome alphabet; outcomes are indexed 0..size-1."""

    size: int
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        if self.size < 2:
            raise ConstructionError(f"alphabet needs at least 2 outcomes, got {self.size}")
        labels = self.labels or _default_labels("j", self.size)
        if len(labels) != self.size or len(set(labels)) != self.size:
            raise ConstructionError("alphabet labels must be distinct and match size")
        object.__setattr__(self, "labels", tuple(labels))


@dataclass(frozen=True)
class ComponentSet:
    """Hidden-component index set; components are indexed 0..size-1."""

    size: int
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        if self.size < 1:
            raise ConstructionError("component set must be non-empty")
        labels = self.labels or _default_labels("a", self.size)
        if len(labels) != self.size or len(set(labels)) != self.size:
            raise ConstructionError("component labels must be distinct and match size")
        object.__setattr__(self, "labels", tuple(labels))


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

    @property
    def dimension(self) -> int:
        return self.lower.size

    def contains(self, theta, atol: float = 0.0) -> bool:
        t = np.atleast_1d(np.asarray(theta, dtype=float))
        if t.shape != self.lower.shape:
            return False
        return bool(np.all(t >= self.lower - atol) & np.all(t <= self.upper + atol))

    def is_interior(self, theta, margin: float = 0.0) -> bool:
        t = np.atleast_1d(np.asarray(theta, dtype=float))
        return bool(np.all(t > self.lower + margin) and np.all(t < self.upper - margin))

    def require(self, theta) -> np.ndarray:
        """Return theta as an array of shape (..., D): one point, or a stack of
        points whose rows are checked one by one.  DomainError names the first
        row outside the box."""
        t = np.atleast_1d(np.asarray(theta, dtype=float))
        if t.shape[-1:] != self.lower.shape:
            raise DomainError(f"theta {t} outside parameter box [{self.lower}, {self.upper}]")
        inside = np.all((t >= self.lower - 1e-12) & (t <= self.upper + 1e-12), axis=-1)
        if not np.all(inside):
            row = tuple(np.argwhere(~inside)[0].tolist())
            where = f" at stack index {row}" if row else ""
            raise DomainError(
                f"theta {t[row]}{where} outside parameter box [{self.lower}, {self.upper}]"
            )
        return t

    def clip(self, theta) -> np.ndarray:
        t = np.atleast_1d(np.asarray(theta, dtype=float))
        return np.clip(t, self.lower, self.upper)

    def grid(self, num: int) -> np.ndarray:
        """Axis-wise linspace grid; shape (num, D).  Intended for D=1 scans."""
        return np.linspace(self.lower, self.upper, num)


class ParametricFamily:
    """Map (theta, alpha) -> distribution over the alphabet.

    The evaluation rule is supplied as a table function ``probs(theta)``
    taking theta of shape (..., D) and returning an array of shape (..., d, l):
    row alpha of each table holds the outcome distribution p_theta(.|alpha).
    A single point, shape (D,), gives one (d, l) table; a stack of m points,
    shape (m, D), gives m tables in one call.  An optional ``dprobs(theta)``
    returns the parameter Jacobian in the same way: shape (..., D, d, l) for
    theta of shape (..., D).

    Construction validates, on a sample of box points, that every row is a
    probability vector with entries strictly inside (0, 1), that the analytic
    Jacobian (when given) is consistent with finite differences, and that the
    tables and Jacobians of the stacked sample match those of its points one
    at a time.  Violations raise ConstructionError; nothing is clamped.
    """

    def __init__(
        self,
        alphabet: Alphabet,
        components: ComponentSet,
        box: ParameterBox,
        probs: Callable[[np.ndarray], np.ndarray],
        dprobs: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        regularity: str = "C1",
        validate: bool = True,
    ):
        if regularity not in ("continuous", "C1", "C2", "C3"):
            raise ConstructionError(f"unknown regularity tag {regularity!r}")
        self.alphabet = alphabet
        self.components = components
        self.box = box
        self._probs = probs
        self._dprobs = dprobs
        self.regularity = regularity
        if validate:
            self._validate()

    # -- basic shape aliases ------------------------------------------------
    @property
    def n_outcomes(self) -> int:
        return self.alphabet.size

    @property
    def n_components(self) -> int:
        return self.components.size

    @property
    def dim(self) -> int:
        return self.box.dimension

    # -- evaluation ---------------------------------------------------------
    def prob_table(self, theta) -> np.ndarray:
        """All outcome distributions at theta: shape (d, l) for one point,
        (..., d, l) for a stack of points of shape (..., D)."""
        t = self.box.require(theta)
        table = np.asarray(self._probs(t), dtype=float)
        expected = t.shape[:-1] + (self.n_components, self.n_outcomes)
        if table.shape != expected:
            raise ConstructionError(f"probs returned shape {table.shape}, expected {expected}")
        return table

    def log_prob_table(self, theta) -> np.ndarray:
        return np.log(self.prob_table(theta))

    def prob(self, theta, alpha: int, j: int) -> float:
        return float(self.prob_table(theta)[alpha, j])

    def dprob_table(self, theta) -> np.ndarray:
        """Jacobian d p_theta(j|alpha) / d theta_k: shape (D, d, l) for one
        point, (..., D, d, l) for a stack of points of shape (..., D).

        Falls back to finite differences (relative step 1e-5) when no analytic
        rule was supplied; a family declared merely ``continuous`` refuses
        with CapabilityError.
        """
        t = self.box.require(theta)
        if self._dprobs is None:
            if self.regularity == "continuous":
                raise CapabilityError("family declares no differentiability; derivatives unavailable")
            return self._fd_dprob_table(t)
        jac = np.asarray(self._dprobs(t), dtype=float)
        expected = t.shape[:-1] + (self.dim, self.n_components, self.n_outcomes)
        if jac.shape != expected:
            raise ConstructionError(f"dprobs returned shape {jac.shape}, expected {expected}")
        return jac

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

    def score_table(self, theta) -> np.ndarray:
        """Score d ln p / d theta_k, shape (..., D, d, l) like dprob_table."""
        return self.dprob_table(theta) / self.prob_table(theta)[..., None, :, :]

    def derivatives_are_numeric(self) -> bool:
        return self._dprobs is None

    # -- construction validation -------------------------------------------
    def _validation_points(self) -> np.ndarray:
        lo, hi = self.box.lower, self.box.upper
        center = 0.5 * (lo + hi)
        pts = [center]
        for k in range(self.dim):
            for frac in (0.05, 0.3, 0.7, 0.95):
                p = center.copy()
                p[k] = lo[k] + frac * (hi[k] - lo[k])
                pts.append(p)
        return np.unique(np.array(pts), axis=0)

    def _validate(self):
        points = self._validation_points()
        tables, jacobians = [], []
        for t in points:
            table = np.asarray(self._probs(t), dtype=float)
            if table.shape != (self.n_components, self.n_outcomes):
                raise ConstructionError(
                    f"probs returned shape {table.shape} at theta={t}"
                )
            if not np.all(np.isfinite(table)):
                raise ConstructionError(f"non-finite probability at theta={t}")
            if np.any(table <= PROB_EPS) or np.any(table >= 1.0 - PROB_EPS):
                a, j = np.unravel_index(
                    int(np.argmin(np.minimum(table, 1.0 - table))), table.shape
                )
                raise ConstructionError(
                    f"probability p(j={j}|alpha={a}) = {table[a, j]} at theta={t} "
                    f"violates the strict (0, 1) requirement"
                )
            row_err = np.abs(table.sum(axis=1) - 1.0)
            if np.any(row_err > 1e-12):
                a = int(np.argmax(row_err))
                raise ConstructionError(
                    f"distribution for alpha={a} sums to {table[a].sum()} at theta={t}"
                )
            tables.append(table)
            if self._dprobs is not None:
                analytic = np.asarray(self._dprobs(t), dtype=float)
                fd = self._fd_dprob_table(t)
                denom = 1.0 + np.abs(analytic)
                if np.any(np.abs(analytic - fd) > 1e-6 * denom):
                    raise ConstructionError(
                        f"analytic gradient inconsistent with finite differences at theta={t}"
                    )
                jacobians.append(analytic)
        self._check_stack("probs", "(..., d, l)", self._probs, points, tables)
        if self._dprobs is not None:
            self._check_stack("dprobs", "(..., D, d, l)", self._dprobs, points, jacobians)

    @staticmethod
    def _check_stack(name: str, shape: str, fn: Callable, points: np.ndarray, singles: list):
        """fn on the stacked points must give, row by row, its single-point
        results within 1e-12."""
        singles = np.array(singles)
        stacked = np.asarray(fn(points), dtype=float)
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
    """Strictly positive weights on the component simplex."""

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


@dataclass(frozen=True)
class InfoMatrix:
    """Fisher information matrix of one component at one parameter value."""

    m: np.ndarray
    component: int
    theta: np.ndarray

    def __post_init__(self):
        m = np.atleast_2d(np.asarray(self.m, dtype=float))
        theta = np.atleast_1d(np.asarray(self.theta, dtype=float))
        if m.shape[0] != m.shape[1] or m.shape[0] != theta.size:
            raise ConstructionError("information matrix must be square, D x D")
        if np.max(np.abs(m - m.T)) > 1e-10:
            raise ConstructionError("information matrix must be symmetric")
        if np.min(np.linalg.eigvalsh(0.5 * (m + m.T))) < -1e-10:
            raise ConstructionError("information matrix must be positive semi-definite")
        m.setflags(write=False)
        theta.setflags(write=False)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "theta", theta)

    def scalar(self) -> float:
        """The single entry of a 1-D information matrix."""
        if self.m.shape != (1, 1):
            raise ValueError("scalar() is only defined for D=1")
        return float(self.m[0, 0])


# ---------------------------------------------------------------------------
# Information functionals
# ---------------------------------------------------------------------------

def shannon_entropy(fam: ParametricFamily, theta, alpha: int) -> float:
    """Shannon entropy -sum_j p ln p of component alpha at theta (nats)."""
    p = fam.prob_table(theta)[alpha]
    return float(-np.sum(p * np.log(p)))


def kl_divergence(fam: ParametricFamily, theta, theta2, alpha: int, beta: int) -> float:
    """KL divergence of p_theta(.|alpha) from p_theta2(.|beta)."""
    p = fam.prob_table(theta)[alpha]
    r = fam.prob_table(theta2)[beta]
    return float(np.sum(p * (np.log(p) - np.log(r))))


def kl_matrix(fam: ParametricFamily, theta) -> np.ndarray:
    """Matrix of same-parameter divergences; entry (a, g) = KL(p(.|a) || p(.|g)).

    The diagonal is exactly zero.  Off-diagonal entries are strictly positive
    whenever the components are pairwise distinguishable at theta.
    """
    p = fam.prob_table(theta)
    logp = np.log(p)
    d = fam.n_components
    out = np.empty((d, d))
    for a in range(d):
        out[a] = np.sum(p[a] * (logp[a][None, :] - logp), axis=1)
        out[a, a] = 0.0
    return out


def fisher_information(fam: ParametricFamily, theta, alpha: int) -> InfoMatrix:
    """Fisher information sum_j p (grad ln p)(grad ln p)^T of one component."""
    if fam.regularity == "continuous":
        raise CapabilityError("Fisher information needs at least C1 regularity")
    p = fam.prob_table(theta)[alpha]
    score = fam.score_table(theta)[:, alpha, :]  # (D, l)
    m = (score * p[None, :]) @ score.T
    m = 0.5 * (m + m.T)
    return InfoMatrix(m=m, component=alpha, theta=np.atleast_1d(np.asarray(theta, float)))


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
