import math

import numpy as np
import pytest

from qndmix.model import (
    Alphabet,
    ComponentSet,
    MixtureWeights,
    ParameterBox,
    ParametricFamily,
)
from qndmix.presets import qubit_rotation, toy_haroche


def make_bernoulli_pair(box=(0.2, 0.8)):
    """Two-outcome, two-component family used by the brute-force oracles.

    Component 0 emits outcome 0 with probability theta, component 1 with
    probability theta/2.  Everything about it is computable by hand.
    """

    def probs(t):
        x = t[..., 0, None, None] * np.array([[1.0], [0.5]])   # (..., 2, 1)
        return np.concatenate([x, 1.0 - x], axis=-1)

    def dprobs(t):
        return np.broadcast_to([[[1.0, -1.0], [0.5, -0.5]]], t.shape[:-1] + (1, 2, 2))

    return ParametricFamily(
        alphabet=Alphabet(size=2),
        components=ComponentSet(size=2),
        box=ParameterBox(np.array([box[0]]), np.array([box[1]])),
        probs=probs,
        dprobs=dprobs,
        regularity="C2",
    )


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

    def probs(t):
        return table(t[..., 0])

    def dprobs(t):
        x = t[..., 0, None, None]
        p = table(t[..., 0])
        gp = b * c * np.cos(c * x + e)
        return (p * (gp - np.sum(p * gp, axis=-1, keepdims=True)))[..., None, :, :]

    return ParametricFamily(
        alphabet=Alphabet(size=l),
        components=ComponentSet(size=d),
        box=ParameterBox(np.array([-1.0]), np.array([1.0])),
        probs=probs,
        dprobs=dprobs,
        regularity="C2",
    )


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
