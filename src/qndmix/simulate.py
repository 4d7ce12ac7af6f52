"""Seeded generation of measurement records under the per-component and
mixture laws, plus outcome counting.

All randomness flows through numpy's PCG64 generator.  substream keys one
generator by (master_seed, stream tags...) via numpy's SeedSequence; a seeded
trajectory draws on substream(seed, 0) (its component) and substream(seed, 1)
(its outcomes), and sample_count_paths draws every record of a batch on the one
generator it is given, one multinomial over all records per grid gap, from one
outcome law per record or from one law shared by all of them.  A rerun with
the same seed repeats every draw bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConstructionError, DomainError, _integral
from .model import MixtureWeights, ParametricFamily

__all__ = [
    "Trajectory",
    "CountVector",
    "substream",
    "sample_component",
    "sample_trajectory",
    "sample_mixture_trajectory",
    "sample_count_paths",
    "counts",
]


def substream(seed: int, *indices: int) -> np.random.Generator:
    """Independent generator for (master seed, stream index...)."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=tuple(indices)))


@dataclass(frozen=True)
class Trajectory:
    """A finite outcome record plus the hidden component that generated it.

    gamma is the simulation truth: estimators never see it, diagnostics may.
    """

    outcomes: np.ndarray
    gamma: int

    def __post_init__(self):
        outcomes = np.asarray(self.outcomes, dtype=np.int64)
        outcomes.setflags(write=False)
        object.__setattr__(self, "outcomes", outcomes)

    def __len__(self) -> int:
        return self.outcomes.size


@dataclass(frozen=True)
class CountVector:
    """Occurrence counts N_n(j) of each outcome in a length-n prefix."""

    n: int
    counts: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.counts, dtype=np.int64)
        if c.ndim != 1 or np.any(c < 0):
            raise ConstructionError("counts must be a vector of non-negative integers")
        if int(c.sum()) != self.n:
            raise ConstructionError(f"counts sum to {int(c.sum())}, expected n={self.n}")
        c.setflags(write=False)
        object.__setattr__(self, "counts", c)


def sample_component(q: MixtureWeights, seed: int) -> int:
    """Draw the hidden component index from the mixture weights."""
    rng = substream(seed, 0)
    return int(rng.choice(q.size, p=q.q))


def sample_trajectory(
    fam: ParametricFamily,
    theta,
    gamma: int,
    n: int,
    seed: int,
) -> Trajectory:
    """n i.i.d. outcomes from p_theta(.|gamma); deterministic given the seed.

    n and gamma are integral (100.0 and np.int64(100) count as 100).  Each
    outcome is the number of inner CDF entries at or below its uniform draw,
    counted in the narrowest unsigned type that holds l - 1 (uint8 for up to
    256 outcomes); Trajectory holds the record as int64."""
    n = _integral(n, "trajectory length", DomainError)
    gamma = _integral(gamma, "component index", DomainError)
    if n < 0:
        raise DomainError("trajectory length must be non-negative")
    if not 0 <= gamma < fam.n_components:
        raise DomainError(f"component index {gamma} outside 0..{fam.n_components - 1}")
    # Inverse CDF, searchsorted(cdf, u, side="right"): a pass per inner entry.
    u = substream(seed, 1).random(n)
    cdf = np.cumsum(fam.prob_table(theta)[gamma][:-1]).tolist()
    outcomes = np.zeros(n, dtype=np.min_scalar_type(len(cdf)))
    for c in cdf:
        outcomes += u >= c
    return Trajectory(outcomes=outcomes, gamma=gamma)


def sample_mixture_trajectory(
    fam: ParametricFamily,
    theta,
    q: MixtureWeights,
    n: int,
    seed: int,
) -> Trajectory:
    """Draw gamma from q, then a per-component trajectory, on derived sub-seeds."""
    gamma = sample_component(q, seed)
    return sample_trajectory(fam, theta, gamma, n, seed)


def sample_count_paths(
    p, n_grid: Sequence[int], rng: np.random.Generator, size: Optional[int] = None
) -> np.ndarray:
    """Cumulative outcome counts of R i.i.d. records after each n of an
    ascending grid, shape (R, K, l).

    Record r has outcome law p[r] (p of shape (R, l)); with size=R, every
    record has the one law p (p of shape (l,)).  Laws are normalized here.
    All records are drawn on the one generator rng, gap-major: for each grid
    gap in order, one multinomial over all R rows.  The one-law form draws the
    same counts, and leaves rng in the same state, as the (R, l) form on R
    copies of that law.  This is the same in distribution as counting the
    prefixes of one sampled record.

    size and the grid entries are integral (100.0 counts as 100), and size
    is at least 0; DomainError names a value that is not.
    """
    p = np.asarray(p, dtype=float)
    if size is None and p.ndim != 2:
        raise DomainError(f"outcome laws must have shape (records, outcomes), not {p.shape}")
    if size is not None:
        size = _integral(size, "size", DomainError)
        if size < 0:
            raise DomainError(f"size {size} must be at least 0")
        if p.ndim != 1:
            raise DomainError(f"one outcome law for size={size} records must have shape (outcomes,), not {p.shape}")
    # The few grid gaps are Python ints: a numpy array costs more to set up
    # than the arithmetic on it.
    grid = [_integral(n, "record length", DomainError) for n in n_grid]
    gaps = [n - m for m, n in zip([0, *grid], grid)]
    if any(gap < 0 for gap in gaps):
        raise DomainError(f"record lengths {tuple(n_grid)} must be non-negative and ascending")
    p = p / p.sum(axis=-1, keepdims=True)
    out = np.empty((len(p) if size is None else size, len(gaps), p.shape[-1]), dtype=np.int64)
    for k, gap in enumerate(gaps):
        out[:, k] = rng.multinomial(gap, p, size=size)
        if k:
            out[:, k] += out[:, k - 1]
    return out


def counts(traj: Trajectory, n_prefix: Optional[int] = None, *, n_outcomes: int) -> CountVector:
    """Exact counts of outcomes 0..n_outcomes-1 in the first n_prefix steps
    of a trajectory (an integral n_prefix, 100.0 counting as 100); DomainError
    names the first other outcome there."""
    n = len(traj) if n_prefix is None else _integral(n_prefix, "prefix length", DomainError)
    if n < 0:
        raise DomainError(f"prefix length {n} must be at least 0")
    if n > len(traj):
        raise DomainError(f"prefix length {n} exceeds trajectory length {len(traj)}")
    prefix = traj.outcomes[:n]
    # The range test reads the prefix's extremes; the mask only finds the step.
    if n and (prefix.min() < 0 or prefix.max() >= n_outcomes):
        k = int(np.argmax((prefix < 0) | (prefix >= n_outcomes)))
        raise DomainError(f"outcome index {prefix[k]} at step {k + 1} outside 0..{n_outcomes - 1}")
    return CountVector(n=n, counts=np.bincount(prefix, minlength=n_outcomes))
