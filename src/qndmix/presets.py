"""Built-in closed-form model presets.

``toy_haroche`` is the photon-number toy model: 8 hidden components
(alpha = 1..8), outcomes indexed by (x, a) with x in {0,1} and a in {0..3},

    p_theta(x, a | alpha) = (1 + 0.674 cos(alpha*theta + (2-a)*pi/4 + x*pi)) / 8

on the box [pi/8, 3*pi/8], with the closed-form Fisher information

    I_theta(alpha) = sum_a alpha^2 (0.674^2/4) sin^2(phi_a) / (1 - 0.674^2 cos^2(phi_a)),
    phi_a = alpha*theta + (2-a)*pi/4.

``qubit_rotation`` exercises the full quantum path: a qubit probe rotated by
H_alpha = (alpha/2) sigma_x, giving p(0|alpha) = cos^2(theta*alpha/2) and
Fisher information alpha^2 independent of theta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError
from .model import Alphabet, ComponentSet, MixtureWeights, ParameterBox, ParametricFamily
from .quantum import QndSystem, as_family

__all__ = [
    "Preset",
    "toy_haroche",
    "toy_haroche_guerlin",
    "toy_haroche_full",
    "qubit_rotation",
    "poisson_like_weights",
    "get_preset",
    "PRESETS",
]

VISIBILITY = 0.674  # experimentally measured contrast of the toy model
PHOTON_COMPONENTS = 8
TOY_BOX = (math.pi / 8, 3 * math.pi / 8)

# The toy distributions depend on (theta, alpha) only through alpha*theta, so
# components alpha != alpha' collide exactly wherever alpha*theta = alpha'*theta'
# with both angles in the box.  On a box [c-r, c+r], collisions are impossible
# iff (c+r)/(c-r) stays below the smallest ratio of distinct alphas <= 8,
# which is 8/7.  r = 0.052 keeps a margin while leaving room for the
# estimator to move (sd ~ 0.02 at n = 1e4 for the weakest component).
TOY_ESTIMATION_RADIUS = 0.052


@dataclass(frozen=True)
class Preset:
    """A named model with simulation defaults.

    fisher_closed_form, when present, is an independent computation path for
    I_theta(alpha) used to cross-check the generic score-based Fisher.
    Component indices are 0-based; component_values maps them to the physical
    labels alpha (photon numbers, rotation multiples).
    """

    name: str
    family: ParametricFamily
    q: MixtureWeights
    theta_star: np.ndarray
    component_values: tuple
    fisher_closed_form: Optional[Callable[[float, int], float]] = None
    system: Optional[QndSystem] = None
    estimation_box: Optional[ParameterBox] = None

    def search_box(self) -> ParameterBox:
        """Box over which estimators maximize; defaults to the family box."""
        return self.estimation_box if self.estimation_box is not None else self.family.box


def poisson_like_weights(rate: float = 3.46, d: int = PHOTON_COMPONENTS) -> MixtureWeights:
    """Weights proportional to rate^alpha / alpha! over alpha = 1..d."""
    alphas = np.arange(1, d + 1)
    w = np.exp(alphas * math.log(rate) - [math.lgamma(a + 1) for a in alphas])
    return MixtureWeights.normalized(w)


def _toy_phases(alpha: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Phases alpha*theta + (2-a)*pi/4 as an (..., n_alpha, 4) array for theta
    of shape (...)."""
    a = np.arange(4)
    return theta[..., None, None] * alpha[:, None] + (2 - a) * math.pi / 4


def _toy_prob_table(alpha_values: np.ndarray, theta: np.ndarray) -> np.ndarray:
    phases = _toy_phases(alpha_values, theta[..., 0])           # (..., d, 4)
    cos = np.cos(phases)
    # x = 0 keeps the cosine sign, x = 1 flips it; columns follow j = 4x + a.
    return np.concatenate(
        [(1 + VISIBILITY * cos) / 8, (1 - VISIBILITY * cos) / 8], axis=-1
    )


def _toy_dprob_table(alpha_values: np.ndarray, theta: np.ndarray) -> np.ndarray:
    phases = _toy_phases(alpha_values, theta[..., 0])
    sin = np.sin(phases) * alpha_values[:, None]
    return np.concatenate(
        [-VISIBILITY * sin / 8, VISIBILITY * sin / 8], axis=-1
    )[..., None, :, :]


def _toy_fisher(theta: float, alpha: float) -> float:
    phases = alpha * theta + (2 - np.arange(4)) * math.pi / 4
    num = np.sin(phases) ** 2
    den = 1.0 - VISIBILITY**2 * np.cos(phases) ** 2
    return float(np.sum(alpha**2 * (VISIBILITY**2 / 4) * num / den))


def _toy_family(alpha_values: np.ndarray, box: ParameterBox, probs, dprobs) -> ParametricFamily:
    """The 8-outcome toy alphabet, with outcome bijection j = 4*x + a, and one
    component per photon number in alpha_values."""
    return ParametricFamily(
        alphabet=Alphabet(size=8, labels=tuple(f"x{x}a{a}" for x in (0, 1) for a in range(4))),
        components=ComponentSet(
            size=alpha_values.size,
            labels=tuple(f"n{int(a)}" for a in alpha_values),
        ),
        box=box,
        probs=probs,
        dprobs=dprobs,
        regularity="C3",
    )


def _toy_preset(
    name: str, alpha_values: np.ndarray, estimation_box: Optional[ParameterBox] = None
) -> Preset:
    """Single-parameter toy model on the box [pi/8, 3pi/8] with theta* = pi/4."""
    family = _toy_family(
        alpha_values,
        ParameterBox(np.array([TOY_BOX[0]]), np.array([TOY_BOX[1]])),
        probs=lambda t: _toy_prob_table(alpha_values, t),
        dprobs=lambda t: _toy_dprob_table(alpha_values, t),
    )
    return Preset(
        name=name,
        family=family,
        q=poisson_like_weights(),
        theta_star=np.array([math.pi / 4]),
        component_values=tuple(int(a) for a in alpha_values),
        fisher_closed_form=lambda theta, c: _toy_fisher(theta, alpha_values[c]),
        estimation_box=estimation_box,
    )


def toy_haroche() -> Preset:
    """Photon-number toy model with alpha in {1..8} and theta* = pi/4.

    The family is defined on the full display box [pi/8, 3pi/8]; estimation
    defaults to the identifiability-valid neighborhood pi/4 +/- 0.052 (on the
    full box, distinct components collide wherever alpha*theta matches, and
    the mixture MLE then latches onto the collision with the largest weight).
    """
    center = math.pi / 4
    return _toy_preset(
        "toy_haroche",
        np.arange(1, PHOTON_COMPONENTS + 1, dtype=float),
        estimation_box=ParameterBox(
            np.array([center - TOY_ESTIMATION_RADIUS]),
            np.array([center + TOY_ESTIMATION_RADIUS]),
        ),
    )


def toy_haroche_guerlin() -> Preset:
    """Variant with alpha in {0..7}: alpha = 0 is constant in theta, so the
    identifiability scan flags it.  Kept as a diagnostic preset."""
    return _toy_preset("toy_haroche_guerlin", np.arange(0, PHOTON_COMPONENTS, dtype=float))


def toy_haroche_full(ideal_visibility: bool = False) -> Preset:
    """Multi-parameter variant: theta = (theta4, phase_0..phase_3, visibility).

    Normalization over the alphabet forces the additive offset to 1 (the
    cosines cancel in pairs), so only 6 of the nominal 7 parameters are free.
    Defaults center the box at the measured visibility 0.674; with
    ideal_visibility=True the center moves to the ideal value, capped below 1
    to keep every probability strictly positive.
    """
    alpha_values = np.arange(1, PHOTON_COMPONENTS + 1, dtype=float)
    vis_center = 0.95 if ideal_visibility else VISIBILITY
    phase_center = (2 - np.arange(4)) * math.pi / 4
    lower = np.concatenate(([TOY_BOX[0]], phase_center - 0.3, [vis_center - 0.15]))
    upper = np.concatenate(([TOY_BOX[1]], phase_center + 0.3, [min(vis_center + 0.15, 0.99)]))

    def probs(t: np.ndarray) -> np.ndarray:
        theta4, phases, vis = t[..., 0, None, None], t[..., None, 1:5], t[..., 5, None, None]
        cos = np.cos(alpha_values[:, None] * theta4 + phases)   # (..., d, 4)
        return np.concatenate([(1 + vis * cos) / 8, (1 - vis * cos) / 8], axis=-1)

    def dprobs(t: np.ndarray) -> np.ndarray:
        theta4, phases, vis = t[..., 0, None, None], t[..., None, 1:5], t[..., 5, None, None]
        arg = alpha_values[:, None] * theta4 + phases           # (..., d, 4)
        d_phase = -vis * np.sin(arg) / 8                        # d p(x=0) / d phase_a
        # Rows theta4, phase_0..phase_3 and visibility; x = 1 flips the sign.
        half = np.stack(
            [d_phase * alpha_values[:, None]]
            + [d_phase * (np.arange(4) == a) for a in range(4)]
            + [np.cos(arg) / 8],
            axis=-3,
        )                                                       # (..., 6, d, 4)
        return np.concatenate([half, -half], axis=-1)

    family = _toy_family(alpha_values, ParameterBox(lower, upper), probs, dprobs)
    theta_star = np.concatenate(([math.pi / 4], phase_center, [vis_center]))
    return Preset(
        name="toy_haroche_full",
        family=family,
        q=poisson_like_weights(),
        theta_star=theta_star,
        component_values=tuple(int(a) for a in alpha_values),
    )


_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def qubit_rotation(d: int = 2, box: tuple[float, float] = (0.5, 0.95)) -> Preset:
    """Qubit-probe rotation model: H_alpha = (alpha/2) sigma_x, alpha = 1..d.

    The outcome law depends on (theta, alpha) only through alpha*theta, so the
    same collision argument as for the toy model applies: the default box
    keeps upper/lower below 2, which rules out cross-component twins for
    d = 2.  The box must also avoid the zeros of cos^2(theta*alpha/2); the
    positivity gate rejects invalid combinations (e.g. d = 4 with the default
    box).
    """
    sys = QndSystem(
        generators=((np.arange(d) + 1) / 2.0)[:, None, None, None] * _SIGMA_X,
        probe=np.array([1.0, 0.0], dtype=complex),
    )
    pbox = ParameterBox(np.array([box[0]]), np.array([box[1]]))
    family = as_family(
        sys,
        pbox,
        alphabet_labels=("up", "down"),
        component_labels=tuple(f"a{c + 1}" for c in range(d)),
    )
    theta_star = np.array([0.5 * (box[0] + box[1])])
    return Preset(
        name="qubit_rotation",
        family=family,
        q=MixtureWeights.normalized(np.ones(d)),
        theta_star=theta_star,
        component_values=tuple(range(1, d + 1)),
        fisher_closed_form=lambda theta, c: float((c + 1) ** 2),
        system=sys,
    )


PRESETS: dict[str, Callable[[], Preset]] = {
    "toy_haroche": toy_haroche,
    "toy_haroche_guerlin": toy_haroche_guerlin,
    "toy_haroche_full": toy_haroche_full,
    "qubit_rotation": qubit_rotation,
}


def get_preset(name: str) -> Preset:
    try:
        factory = PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        ) from None
    return factory()
