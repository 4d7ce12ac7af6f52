import math

import numpy as np
import pytest

from qndmix.model import (
    MixtureWeights,
    ParameterBox,
    ParametricFamily,
)
from qndmix.presets import qubit_rotation, toy_haroche
from qndmix.quantum import _unitaries
from qndmix.simulate import CountVector, sample_count_paths, substream


def make_bernoulli_pair(box=(0.2, 0.8)):
    """Two-outcome, two-component family used by the brute-force oracles.

    Component 0 emits outcome 0 with probability theta, component 1 with
    probability theta/2.  Everything about it is computable by hand.
    """

    def tables(t):
        x = t[..., 0, None, None] * np.array([[1.0], [0.5]])   # (..., 2, 1)
        jacobian = np.broadcast_to([[[1.0, -1.0], [0.5, -0.5]]], t.shape[:-1] + (1, 2, 2))
        return np.concatenate([x, 1.0 - x], axis=-1), jacobian

    return ParametricFamily(
        box=ParameterBox(np.array([box[0]]), np.array([box[1]])),
        tables=tables,
    )


def reference_quantum_jacobian(sys, t):
    """The Jacobian rule as_family had before its joint rule, kept as the
    reference the joint rule must reproduce bit for bit."""
    upsi = _unitaries(sys, t) @ sys.probe
    den = upsi[..., None, :, :]
    num = np.einsum("akij,...aj->...kai", sys.generators, upsi)
    return np.abs(den) ** 2 * (2.0 * np.imag(num / den))


def reference_logsumexp(a, axis=None):
    """estimate.logsumexp as it was before its component-major path: every
    reduction row by row, over the axis in place.  The reference for report
    bytes: an experiment's report must not change when its log-sums run
    through this instead of the component-major path."""
    a_max = a.max(axis=axis, keepdims=True)
    top = a == a_max
    ties = top.sum(axis=axis, keepdims=True).astype(float)
    e = np.subtract(a, np.maximum(a_max, -np.finfo(float).max))
    live = (e > -700.0) & ~top
    np.maximum(e, -700.0, out=e)
    np.exp(e, out=e)
    e *= live
    s = e.sum(axis=axis, keepdims=True)
    return np.squeeze(np.log1p(s / ties) + np.log(ties) + a_max, axis=axis)


def sample_counts(fam, theta, gamma, n, seed):
    """Outcome counts of an n-step record from component gamma at theta, drawn
    directly by sample_count_paths on substream(seed, 1)."""
    c = sample_count_paths(fam.prob_table(theta)[[gamma]], (n,), substream(seed, 1))
    return CountVector(n=n, counts=c[0, 0])


def make_random_family(rng):
    """Random softmax family with analytic gradient; strictly positive rows.

    Row alpha at theta is softmax of g_j(theta) = a_j + b_j sin(c_j theta + e_j),
    so dp_j = p_j (g'_j - sum_k p_k g'_k) in closed form.
    """
    d = int(rng.integers(1, 5))
    l = int(rng.integers(2, 6))
    a = rng.normal(size=(d, l))
    b = rng.normal(scale=0.5, size=(d, l))
    c = rng.uniform(0.5, 2.0, size=(d, l))
    e = rng.uniform(0.0, 2.0 * math.pi, size=(d, l))

    def table(x):
        g = a + b * np.sin(c * np.asarray(x)[..., None, None] + e)
        g = g - g.max(axis=-1, keepdims=True)
        p = np.exp(g)
        return p / p.sum(axis=-1, keepdims=True)

    def tables(t):
        x = t[..., 0, None, None]
        p = table(t[..., 0])
        gp = b * c * np.cos(c * x + e)
        return p, (p * (gp - np.sum(p * gp, axis=-1, keepdims=True)))[..., None, :, :]

    return ParametricFamily(
        box=ParameterBox(np.array([-1.0]), np.array([1.0])),
        tables=tables,
    )


def without_gates(report: dict) -> dict:
    """The report without its gates list: what a report held before the
    verdicts were named, for comparison with references that build none."""
    return {k: v for k, v in report.items() if k != "gates"}


def failed_gates_stderr(report: dict) -> str:
    """What the CLI writes to stderr after a run that wrote the report: the
    names of the failed gates on one line when it did not pass, else nothing."""
    failed = [gate["name"] for gate in report["gates"] if not gate["passed"]]
    return "" if report["passed"] else f"failed gates: {', '.join(failed)}\n"


@pytest.fixture(scope="session")
def toy():
    return toy_haroche()


@pytest.fixture(scope="session")
def qubit():
    return qubit_rotation()


@pytest.fixture(scope="session")
def bernoulli_pair():
    return make_bernoulli_pair()


@pytest.fixture
def uniform2():
    return MixtureWeights.normalized([1.0, 1.0])
