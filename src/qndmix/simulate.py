"""Seeded generation of measurement records under the per-component and
mixture laws, plus outcome counting and trajectory export.

All randomness flows through numpy's PCG64 generator.  substream keys one
generator by (master_seed, stream tags...) via numpy's SeedSequence; a seeded
trajectory draws on substream(seed, 0) (its component) and substream(seed, 1)
(its outcomes), and sample_count_paths draws every record of a batch on the one
generator it is given.  A rerun with the same seed repeats every draw bit for
bit.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .errors import ConstructionError, DomainError
from .model import MixtureWeights, ParametricFamily

__all__ = [
    "Trajectory",
    "CountVector",
    "substream",
    "sample_component",
    "sample_trajectory",
    "sample_mixture_trajectory",
    "sample_count_paths",
    "sample_counts",
    "counts",
    "trajectory_to_csv",
    "trajectory_to_json",
    "trajectory_from_json",
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
    seed: int
    theta_true: np.ndarray

    def __post_init__(self):
        outcomes = np.asarray(self.outcomes, dtype=np.int64)
        theta = np.atleast_1d(np.asarray(self.theta_true, dtype=float))
        outcomes.setflags(write=False)
        theta.setflags(write=False)
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "theta_true", theta)

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
    """n i.i.d. outcomes from p_theta(.|gamma); deterministic given the seed."""
    if n < 0:
        raise DomainError("trajectory length must be non-negative")
    if not 0 <= gamma < fam.n_components:
        raise DomainError(f"component index {gamma} outside 0..{fam.n_components - 1}")
    t = fam.box.require(theta)
    # Inverse CDF over the alphabet.
    cdf = np.cumsum(fam.prob_table(t)[gamma])
    cdf[-1] = 1.0
    outcomes = np.searchsorted(cdf, substream(seed, 1).random(n), side="right")
    return Trajectory(outcomes=outcomes, gamma=gamma, seed=seed, theta_true=t)


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


def sample_count_paths(p, n_grid: Sequence[int], rng: np.random.Generator) -> np.ndarray:
    """Cumulative outcome counts of R i.i.d. records after each n of an
    ascending grid, shape (R, K, l).

    Record r has outcome law p[r] (p of shape (R, l)), normalized here.  All
    records are drawn on the one generator rng, gap-major: for each grid gap in
    order, one multinomial over all R rows.  This is the same in distribution
    as counting the prefixes of one sampled record.
    """
    p = np.asarray(p, dtype=float)
    if p.ndim != 2:
        raise DomainError(f"outcome laws must have shape (records, outcomes), not {p.shape}")
    gaps = np.diff(np.asarray(n_grid, dtype=np.int64), prepend=0)
    if np.any(gaps < 0):
        raise DomainError(f"record lengths {tuple(n_grid)} must be non-negative and ascending")
    p = p / p.sum(axis=1, keepdims=True)
    out = np.empty((len(p), gaps.size, p.shape[1]), dtype=np.int64)
    for k, gap in enumerate(gaps.tolist()):
        out[:, k] = rng.multinomial(gap, p)
    return np.cumsum(out, axis=1, out=out)


def sample_counts(
    fam: ParametricFamily,
    theta,
    gamma: int,
    n: int,
    rng_or_seed: Union[int, np.random.Generator],
) -> CountVector:
    """Outcome counts of an n-step per-component record, drawn directly by
    sample_count_paths; the generator form continues the given stream."""
    rng = rng_or_seed if isinstance(rng_or_seed, np.random.Generator) else substream(rng_or_seed, 1)
    c = sample_count_paths(fam.prob_table(theta)[[gamma]], (n,), rng)
    return CountVector(n=n, counts=c[0, 0])


def counts(traj: Trajectory, n_prefix: Optional[int] = None, n_outcomes: Optional[int] = None) -> CountVector:
    """Exact outcome counts of the first n_prefix steps of a trajectory."""
    n = len(traj) if n_prefix is None else int(n_prefix)
    if n > len(traj):
        raise DomainError(f"prefix length {n} exceeds trajectory length {len(traj)}")
    if n_outcomes is None:
        n_outcomes = int(traj.outcomes.max(initial=-1)) + 1 if len(traj) else 1
    c = np.bincount(traj.outcomes[:n], minlength=n_outcomes)
    return CountVector(n=n, counts=c)


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

def trajectory_to_csv(traj: Trajectory, path, labels: Optional[Sequence[str]] = None) -> None:
    """One row per step: step index and outcome label."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["step", "outcome"])
        for k, j in enumerate(traj.outcomes):
            label = labels[j] if labels is not None else int(j)
            writer.writerow([k, label])


def trajectory_to_json(traj: Trajectory, path=None) -> str:
    """Compact JSON record {seed, gamma, theta_true, outcomes}."""
    record = {
        "seed": int(traj.seed),
        "gamma": int(traj.gamma),
        "theta_true": [float(x) for x in traj.theta_true],
        "outcomes": [int(j) for j in traj.outcomes],
    }
    text = json.dumps(record)
    if path is not None:
        Path(path).write_text(text)
    return text


def trajectory_from_json(source) -> Trajectory:
    """Inverse of trajectory_to_json; accepts the JSON text (a string starting
    with '{') or a file path (str or Path)."""
    if isinstance(source, Path) or not source.lstrip().startswith("{"):
        source = Path(source).read_text()
    record = json.loads(source)
    return Trajectory(
        outcomes=np.asarray(record["outcomes"], dtype=np.int64),
        gamma=int(record["gamma"]),
        seed=int(record["seed"]),
        theta_true=np.asarray(record["theta_true"], dtype=float),
    )
