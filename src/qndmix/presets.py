"""Built-in closed-form model presets.

``toy_haroche`` is the photon-number toy model: 8 hidden components
(alpha = 1..8), outcomes indexed by (x, a) with x in {0,1} and a in {0..3},
in the order j = 4x + a,

    p_theta(x, a | alpha) = (1 + 0.674 cos(alpha*theta + (2-a)*pi/4 + x*pi)) / 8

on the box [pi/8, 3*pi/8], with the closed-form Fisher information

    I_theta(alpha) = sum_a alpha^2 (0.674^2/4) sin^2(phi_a) / (1 - 0.674^2 cos^2(phi_a)),
    phi_a = alpha*theta + (2-a)*pi/4.

``qubit_rotation`` exercises the full quantum path: a qubit probe rotated by
H_alpha = (alpha/2) sigma_x, giving p(0|alpha) = cos^2(theta*alpha/2) and
Fisher information alpha^2 independent of theta.

Each preset's family is built from one joint rule, which gives the table and
its Jacobian in one call (``as_family``'s for ``qubit_rotation``); its table
half alone serves ``prob_table``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError
from .model import MixtureWeights, ParameterBox, ParametricFamily
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
# The phase offsets (2-a)*pi/4 of the toy outcomes a = 0..3, read-only.
TOY_OFFSETS = (2 - np.arange(4)) * math.pi / 4
TOY_OFFSETS.setflags(write=False)

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

    def __post_init__(self):
        theta_star = np.array(self.theta_star, dtype=float)
        theta_star.setflags(write=False)
        object.__setattr__(self, "theta_star", theta_star)

    def search_box(self) -> ParameterBox:
        """Box over which estimators maximize; defaults to the family box."""
        return self.estimation_box if self.estimation_box is not None else self.family.box


def poisson_like_weights(rate: float = 3.46, d: int = PHOTON_COMPONENTS) -> MixtureWeights:
    """Weights proportional to rate^alpha / alpha! over alpha = 1..d."""
    alphas = np.arange(1, d + 1)
    w = np.exp(alphas * math.log(rate) - [math.lgamma(a + 1) for a in alphas])
    return MixtureWeights.normalized(w)


def _toy_table(vcos: np.ndarray) -> np.ndarray:
    """The table (1 +/- vcos) / 8 of shape (..., d, 8) from vcos = vis * cos
    of shape (..., d, 4): x = 0 keeps the cosine sign, x = 1 flips it;
    columns follow j = 4x + a.  One concatenate of the two signed halves,
    then in place: (-vcos) + 1 is 1 - vcos bit for bit."""
    p = np.concatenate([vcos, -vcos], axis=-1)
    p += 1
    p /= 8
    return p


def _toy_tables(alpha: np.ndarray, offsets: np.ndarray, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The toy table (..., d, 8) and its Jacobian (..., 1, d, 8) from one
    phase table alpha*theta + (2-a)*pi/4, with alpha and the offsets given as
    (d, 4) tables so that every step runs over whole contiguous rows.  The
    Jacobian's x = 0 half is -h and its x = 1 half h = vis * alpha * sin / 8,
    computed once in place: (-vis) * s / 8 is -(vis * s / 8) bit for bit."""
    phases = theta[..., 0, None, None] * alpha
    phases += offsets
    h = np.sin(phases)
    h *= alpha
    h *= VISIBILITY
    h /= 8
    return _toy_table(VISIBILITY * np.cos(phases)), np.concatenate([-h, h], axis=-1)[..., None, :, :]


def _toy_fisher(theta: float, alpha: float) -> float:
    phases = alpha * theta + TOY_OFFSETS
    num = np.sin(phases) ** 2
    den = 1.0 - VISIBILITY**2 * np.cos(phases) ** 2
    return float(np.sum(alpha**2 * (VISIBILITY**2 / 4) * num / den))


def _toy_preset(
    name: str, alpha_values: np.ndarray, estimation_box: Optional[ParameterBox] = None
) -> Preset:
    """Single-parameter toy model on the box [pi/8, 3pi/8] with theta* = pi/4."""
    alpha, offsets = (a.copy() for a in np.broadcast_arrays(alpha_values[:, None], TOY_OFFSETS))
    family = ParametricFamily(
        ParameterBox(np.array([TOY_BOX[0]]), np.array([TOY_BOX[1]])),
        tables=lambda t: _toy_tables(alpha, offsets, t),
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


def toy_haroche_full() -> Preset:
    """Multi-parameter variant: theta = (theta4, phase_0..phase_3, visibility).

    Normalization over the alphabet forces the additive offset to 1 (the
    cosines cancel in pairs), so only 6 of the nominal 7 parameters are free.
    The box is centered at the measured visibility 0.674.
    """
    alpha_values = np.arange(1, PHOTON_COMPONENTS + 1, dtype=float)
    lower = np.concatenate(([TOY_BOX[0]], TOY_OFFSETS - 0.3, [VISIBILITY - 0.15]))
    upper = np.concatenate(([TOY_BOX[1]], TOY_OFFSETS + 0.3, [VISIBILITY + 0.15]))

    def tables(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        theta4, phases, vis = t[..., 0, None, None], t[..., None, 1:5], t[..., 5, None, None]
        arg = alpha_values[:, None] * theta4 + phases           # (..., d, 4)
        cos = np.cos(arg)
        d_phase = -vis * np.sin(arg) / 8                        # d p(x=0) / d phase_a
        # Rows theta4, phase_0..phase_3 and visibility; x = 1 flips the sign.
        half = np.concatenate([
            (d_phase * alpha_values[:, None])[..., None, :, :],
            d_phase[..., None, :, :] * np.eye(4)[:, None, :],
            (cos / 8)[..., None, :, :],
        ], axis=-3)                                             # (..., 6, d, 4)
        return _toy_table(vis * cos), np.concatenate([half, -half], axis=-1)

    family = ParametricFamily(ParameterBox(lower, upper), tables=tables)
    theta_star = np.concatenate(([math.pi / 4], TOY_OFFSETS, [VISIBILITY]))
    return Preset(
        name="toy_haroche_full",
        family=family,
        q=poisson_like_weights(),
        theta_star=theta_star,
        component_values=tuple(int(a) for a in alpha_values),
    )


_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def qubit_rotation() -> Preset:
    """Qubit-probe rotation model: H_alpha = (alpha/2) sigma_x, alpha = 1, 2,
    on the box (0.5, 0.95).

    The outcome law depends on (theta, alpha) only through alpha*theta, so the
    same collision argument as for the toy model applies: upper/lower stays
    below 2, which rules out cross-component twins.  The closed box also
    avoids theta = k pi/alpha, where p(0|alpha) = cos^2(theta*alpha/2) or
    p(1|alpha) = sin^2(theta*alpha/2) is zero.
    """
    sys = QndSystem(
        generators=np.array([0.5, 1.0])[:, None, None, None] * _SIGMA_X,
        probe=np.array([1.0, 0.0], dtype=complex),
    )
    family = as_family(sys, ParameterBox(np.array([0.5]), np.array([0.95])))
    return Preset(
        name="qubit_rotation",
        family=family,
        q=MixtureWeights.normalized(np.ones(2)),
        theta_star=np.array([0.5 * (0.5 + 0.95)]),
        component_values=(1, 2),
        fisher_closed_form=lambda theta, c: float((c + 1) ** 2),
        system=sys,
    )


PRESETS: dict[str, Callable[[], Preset]] = {
    "toy_haroche": toy_haroche,
    "toy_haroche_guerlin": toy_haroche_guerlin,
    "toy_haroche_full": toy_haroche_full,
    "qubit_rotation": qubit_rotation,
}


@functools.cache
def get_preset(name: str) -> Preset:
    """The built-in preset `name`, built and validated once per process.

    Every call with one name returns the same, read-only instance; use
    `PRESETS[name]()` for a private copy built from scratch.
    """
    try:
        factory = PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        ) from None
    return factory()
