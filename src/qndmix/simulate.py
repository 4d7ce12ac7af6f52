"""Seeded generation of measurement records under the per-component and
mixture laws, plus outcome counting.

All randomness flows through numpy's PCG64 generator.  substream is the one
way to build one: it keys a generator by (master_seed, stream tags...) as
numpy's SeedSequence(entropy=master_seed, spawn_key=tags) does, from the
words that SeedSequence would assemble, and refuses a seed or tag that is not
an integer of at least 0.  A seeded trajectory draws on substream(seed, 0)
(its component) and substream(seed, 1) (its outcomes), and holds those
outcomes in the narrowest unsigned type that holds the alphabet, one byte
each for up to 256 outcomes; counts reads them as they are.
sample_count_paths draws a batch of records per generator, one multinomial
over all records of the batch per grid gap: one batch with one outcome law
per record, or, in its stacked form, one batch per row of a (d, l) law
table, each on its own generator and all of its records with that row's
law, the table checked once.  A rerun with the same seed repeats every draw
bit for bit.
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


# numpy's SeedSequence pads the seed's words to this many when a key follows.
_POOL_WORDS = 4

# The longest record sample_count_paths and ExperimentPlan take: 2**53 is the
# largest count that float64 holds exactly, and no int64 sum of counts wraps.
MAX_RECORD_LENGTH = 2**53


def substream(seed: int, *key: int) -> np.random.Generator:
    """The PCG64 generator that default_rng(SeedSequence(entropy=seed,
    spawn_key=key)) builds, bit for bit, seeded from the uint32 words that
    SeedSequence assembles: each value's 32-bit words, least significant
    first, the seed's zero-padded to _POOL_WORDS when a key follows.
    Assembling them here skips numpy's per-call coercion of the key.

    The seed and every key entry are integral (4.0 and np.int64(4) are 4)
    and at least 0; DomainError names any other value (None, which would
    draw from OS entropy, 2.5, -1), so no value can wrap into a word.
    """
    words = _words(_natural(seed, "seed"))
    if key:
        words += [0] * (_POOL_WORDS - len(words))
        for k in key:
            words += _words(_natural(k, "stream key"))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(np.array(words, dtype=np.uint32))))


def _natural(value, name: str) -> int:
    """value as a Python int at least 0 (_integral's rule); DomainError
    naming it otherwise."""
    n = _integral(value, name, DomainError)
    if n < 0:
        raise DomainError(f"{name} {n} must be at least 0")
    return n


def _words(n: int) -> list:
    """The 32-bit words of n >= 0, least significant first; 0 is one word."""
    words = [n & 0xFFFFFFFF]
    n >>= 32
    while n:
        words.append(n & 0xFFFFFFFF)
        n >>= 32
    return words


@dataclass(frozen=True)
class Trajectory:
    """A finite outcome record plus the hidden component that generated it.

    An unsigned array of outcomes that numpy indexes with as it is (uint8,
    uint16 or uint32), such as the sampler's byte-wide draw, is held as it
    is; anything else is read as int64, where a negative outcome stays
    negative for counts to name.  An array held without a copy is made
    read-only.

    gamma is the simulation truth: estimators never see it, diagnostics may.
    """

    outcomes: np.ndarray
    gamma: int

    def __post_init__(self):
        outcomes = self.outcomes
        if not (isinstance(outcomes, np.ndarray) and outcomes.dtype.kind == "u"
                and np.can_cast(outcomes.dtype, np.intp)):
            outcomes = np.asarray(outcomes, dtype=np.int64)
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
    """Draw the hidden component index from the mixture weights, by inverse
    cdf (MixtureWeights.draw) on substream(seed, 0)."""
    return int(q.draw(substream(seed, 0)))


def sample_trajectory(
    fam: ParametricFamily,
    theta,
    gamma: int,
    n: int,
    seed: int,
) -> Trajectory:
    """n i.i.d. outcomes from p_theta(.|gamma); deterministic given the seed.

    n, gamma and seed are integral (100.0 and np.int64(100) count as 100),
    and the seed is at least 0 (_natural).  The record is drawn from
    the family's table at theta by _draw_record."""
    n = _integral(n, "trajectory length", DomainError)
    gamma = _integral(gamma, "component index", DomainError)
    seed = _natural(seed, "seed")
    if n < 0:
        raise DomainError("trajectory length must be non-negative")
    if not 0 <= gamma < fam.n_components:
        raise DomainError(f"component index {gamma} outside 0..{fam.n_components - 1}")
    return _draw_record(fam.prob_table(theta), gamma, n, seed)


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


def _draw_record(p: np.ndarray, gamma: int, n: int, seed: int) -> Trajectory:
    """The record of n outcomes of component gamma that sample_trajectory
    draws on seed, from p, the family's (d, l) table at theta, for checked
    arguments.  Each outcome is the number of inner CDF entries at or below
    its uniform draw on substream(seed, 1), counted in the narrowest unsigned
    type that holds l - 1 (uint8 for up to 256 outcomes, uint16 from 257), the
    type the Trajectory keeps."""
    # Inverse CDF, searchsorted(cdf, u, side="right"): a pass per inner entry.
    u = substream(seed, 1).random(n)
    cdf = np.cumsum(p[gamma][:-1]).tolist()
    outcomes = np.zeros(n, dtype=np.min_scalar_type(len(cdf)))
    for c in cdf:
        outcomes += u >= c
    return Trajectory(outcomes=outcomes, gamma=gamma)


def sample_count_paths(
    p, n_grid: Sequence[int], rng: np.random.Generator | Sequence[np.random.Generator], size: Optional[int] = None
) -> np.ndarray:
    """Cumulative outcome counts of i.i.d. records after each n of an
    ascending grid, in one of two forms.

    Without size, record r has outcome law p[r] (p of shape (R, l)), and all
    R records are drawn on the one generator rng: shape (R, K, l).

    With size=R, the stacked form: p is a (d, l) table of d laws and rng a
    sequence of d generators, and block g holds R records of law p[g] drawn
    on rng[g]: shape (d, R, K, l).  Each block draws the same counts, and
    leaves its generator in the same state, as the first form on R copies
    of its law.

    Laws are checked and normalized once per call.  Each generator draws
    gap-major: for each grid gap in order, one multinomial over all R rows.
    This is the same in distribution as counting the prefixes of one
    sampled record.

    size and the grid entries are integral (100.0 counts as 100), size is
    at least 0 and no grid entry exceeds MAX_RECORD_LENGTH; DomainError
    names a value that is not.  Every law must be
    non-negative with a finite positive sum: DomainError names the first
    law that is not, and that law.  A valid law costs one test on the row
    sums the normalization computes (each in (0, inf)); a negative or NaN
    entry in a row of finite positive sum is found when the multinomial
    refuses it.
    """
    p = np.asarray(p, dtype=float)
    if size is None:
        if p.ndim != 2:
            raise DomainError(f"outcome laws must have shape (records, outcomes), not {p.shape}")
    else:
        size = _integral(size, "size", DomainError)
        if size < 0:
            raise DomainError(f"size {size} must be at least 0")
        rng = list(rng)
        if p.ndim != 2 or len(p) != len(rng):
            raise DomainError(f"{len(rng)} generators for size={size} records need outcome laws of shape "
                              f"({len(rng)}, outcomes), not {p.shape}")
    # The few grid gaps are Python ints: a numpy array costs more to set up
    # than the arithmetic on it.
    grid = [_integral(n, "record length", DomainError) for n in n_grid]
    gaps = [n - m for m, n in zip([0, *grid], grid)]
    if min(gaps, default=0) < 0:
        raise DomainError(f"record lengths {tuple(n_grid)} must be non-negative and ascending")
    if grid and grid[-1] > MAX_RECORD_LENGTH:
        raise DomainError(f"record length {grid[-1]} exceeds {MAX_RECORD_LENGTH}, the largest count float64 "
                          f"holds exactly")
    total = p.sum(axis=-1, keepdims=True)
    if total.size and not (0 < total.min() and total.max() < np.inf):
        _refuse_laws(p, size is None)
    laws = p / total
    try:
        # Blocks of rows, each with its generator: the one block of
        # per-record laws, or one block per law of the stacked table.
        blocks = [(rng, laws)] if size is None else list(zip(rng, laws))
        rows = len(p) if size is None else size
        out = np.empty((len(blocks), rows, len(gaps), p.shape[-1]), dtype=np.int64)
        for b, (stream, law) in enumerate(blocks):
            for k, gap in enumerate(gaps):
                out[b, :, k] = stream.multinomial(gap, law, size=size)
                if k:
                    out[b, :, k] += out[b, :, k - 1]
    except ValueError:
        _refuse_laws(p, size is None)
        raise
    return out[0] if size is None else out


def _refuse_laws(p: np.ndarray, per_record: bool) -> None:
    """DomainError naming the first law of p, the laws (R, l) of its records
    or the (d, l) table of the stacked form, that has a negative or NaN
    entry, or a sum that is not finite and positive, by its record when
    per_record; nothing when every law is valid."""
    total = p.sum(axis=-1)
    bad = ~(p >= 0).all(axis=-1) | ~((total > 0) & (total < np.inf))
    if bad.any():
        r = int(np.argmax(bad))
        where = f"the outcome law of record {r}" if per_record else "the outcome law"
        raise DomainError(f"{where}, {p[r]}, must be non-negative with a finite positive sum")


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
