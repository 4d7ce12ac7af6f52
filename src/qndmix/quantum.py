"""Quantum non-demolition measurement layer.

A QndSystem couples a d-level system to an l-level probe through a
block-diagonal unitary sum_alpha |e_alpha><e_alpha| (x) U_alpha(theta), with
U_alpha(theta) = exp(-i sum_k theta_k G_{alpha,k}) for fixed Hermitian
generators G.  Measuring the probe in its canonical basis e_j yields outcome
distributions p_theta(j|alpha) that define a ParametricFamily, whose joint
rule builds U_alpha(theta) psi once for p and its Jacobian; the filter is
its log_terms kernel on cumulative outcome counts, plus summed probe phases.

Inner products are linear in the second argument throughout: <a, b> = a^dag b.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConstructionError, DomainError, InferenceError
from .estimate import logsumexp
from .model import ParameterBox, ParametricFamily

__all__ = [
    "QndSystem",
    "FilterState",
    "FilterPath",
    "hermitian_expm",
    "as_family",
    "filter_step",
    "filter_trajectory",
]

HERMITIAN_TOL = 1e-12


def _adjoint(m: np.ndarray) -> np.ndarray:
    return np.swapaxes(m.conj(), -1, -2)


def _require_hermitian(h: np.ndarray) -> np.ndarray:
    """h as a complex array of shape (..., l, l): one matrix or a stack of them.
    A stack that fails names the index of its first offending matrix."""
    h = np.asarray(h, dtype=complex)
    if h.ndim < 2 or h.shape[-1] != h.shape[-2]:
        raise ConstructionError(f"generator must be a square matrix, got shape {h.shape}")
    finite = np.all(np.isfinite(h.real) & np.isfinite(h.imag), axis=(-2, -1))
    hermitian = np.max(np.abs(h - _adjoint(h)), axis=(-2, -1)) <= HERMITIAN_TOL
    for ok, problem in ((finite, "has non-finite entries"),
                        (hermitian, f"is not Hermitian within {HERMITIAN_TOL}")):
        if not np.all(ok):
            at = tuple(np.argwhere(~ok)[0].tolist())
            raise ConstructionError(f"generator{f' at stack index {at}' if at else ''} {problem}")
    return h


def _expm_minus_i(h: np.ndarray) -> np.ndarray:
    """exp(-i H) of an unchecked Hermitian H or stack (..., l, l), by one eigh."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w)[..., None, :]) @ _adjoint(v)


def hermitian_expm(h: np.ndarray) -> np.ndarray:
    """exp(-i H) for Hermitian H via eigendecomposition, for one matrix or a
    stack of shape (..., l, l), once H is checked to be finite and Hermitian.

    This produces a unitary matrix up to rounding; the Hermitian structure
    makes the eigendecomposition route exact in the eigenbasis, which Pade
    scaling-and-squaring does not guarantee.
    """
    return _expm_minus_i(_require_hermitian(h))


@dataclass(frozen=True)
class QndSystem:
    """Quantum data inducing a mixture-of-multinomials model.

    generators has shape (d, D, l, l): generators[alpha, k] is the Hermitian
    matrix G_{alpha,k}, and H_alpha(theta) = sum_k theta_k G_{alpha,k}.  They
    are checked here and stored as (G + G^dag)/2, so every H_alpha(theta) is
    exactly Hermitian and no evaluation checks it again.  The probe is
    measured in its canonical basis: outcome j is e_j.  A measurement in
    another orthonormal basis B is the system (B^dag G B, B^dag psi).
    """

    generators: np.ndarray
    probe: np.ndarray

    def __post_init__(self):
        g = np.array(self.generators, dtype=complex)
        if g.ndim != 4 or min(g.shape[:2]) < 1 or g.shape[2] < 2:
            raise ConstructionError(f"generators must have shape (d, D, l, l) with d, D >= 1 "
                                    f"and l >= 2, got {g.shape}")
        _require_hermitian(g)
        g = 0.5 * (g + _adjoint(g))
        g.setflags(write=False)
        object.__setattr__(self, "generators", g)
        psi = np.asarray(self.probe, dtype=complex).reshape(-1)
        if psi.size != self.probe_dim:
            raise ConstructionError("probe vector has wrong dimension")
        if abs(np.linalg.norm(psi) - 1.0) > 1e-12:
            raise ConstructionError(f"probe vector has norm {np.linalg.norm(psi)}, not 1")
        psi.setflags(write=False)
        object.__setattr__(self, "probe", psi)

    @property
    def system_dim(self) -> int:
        return self.generators.shape[0]

    @property
    def dim(self) -> int:
        return self.generators.shape[1]

    @property
    def probe_dim(self) -> int:
        return self.generators.shape[2]


def _unitaries(sys: QndSystem, theta) -> np.ndarray:
    """U_alpha(theta) of every component, shape (..., d, l, l) for theta of
    shape (..., D): the Hamiltonians of all points and components are built
    by one einsum and exponentiated in one stacked call."""
    t = np.atleast_1d(np.asarray(theta, dtype=float))
    if t.shape[-1] != sys.dim:
        raise DomainError(f"theta of shape {t.shape} does not end in D = {sys.dim}")
    return _expm_minus_i(np.einsum("...k,akij->...aij", t, sys.generators))


def _amplitudes(sys: QndSystem, theta) -> np.ndarray:
    """Probe amplitudes <e_j, U_alpha psi> of every component alpha and
    outcome j, shape (..., d, l) for theta of shape (..., D)."""
    return _unitaries(sys, theta) @ sys.probe


def as_family(sys: QndSystem, box: ParameterBox) -> ParametricFamily:
    """Wrap the induced outcome distributions as a ParametricFamily, whose
    d components and l outcomes are the system's and the probe's levels.

    The family constructor's checks are the positivity gate: an outcome with
    probability 0 or 1 at one of its sample points names the offending
    (theta, alpha, j) in the error.  The family's one rule is a joint rule:
    it builds U_alpha(theta) psi once for the table p = |<e_j, U psi>|^2,
    which alone serves prob_table, and the Jacobian
    dp(j|alpha)/dtheta_k = p * 2 Im(<e_j, G_{alpha,k} U psi> / <e_j, U psi>),
    which holds when each H_alpha(theta) commutes with its generators, so
    that dU = -i G U; the family's finite-difference consistency check
    refuses generators that break this.
    """
    if box.dimension != sys.dim:
        raise ConstructionError(
            f"box has dimension {box.dimension}, but the generators take D = {sys.dim}"
        )

    def tables(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        amps = _amplitudes(sys, theta)                                          # (..., d, l)
        p = np.abs(amps) ** 2
        num = np.einsum("akij,...aj->...kai", sys.generators, amps)
        return p, p[..., None, :, :] * (2.0 * np.imag(num / amps[..., None, :, :]))

    return ParametricFamily(box, tables=tables)


# ---------------------------------------------------------------------------
# Conditional-state filter
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FilterState:
    """Conditional system state and posterior component weights after n steps.

    phi is optional: the classical filter tracks only the posterior q.  When
    phi is tracked, q must equal |<e_alpha, phi>|^2 componentwise.
    """

    q: np.ndarray
    step: int
    phi: Optional[np.ndarray] = None

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        if (q.ndim != 1 or not np.all(np.isfinite(q)) or np.any(q < 0.0)
                or abs(q.sum() - 1.0) > 1e-10):
            raise ConstructionError(f"posterior {q} is not on the simplex")
        q.setflags(write=False)
        object.__setattr__(self, "q", q)
        if self.phi is not None:
            phi = np.asarray(self.phi, dtype=complex).reshape(-1)
            if phi.size != q.size:
                raise ConstructionError("phi and q must have the same dimension")
            if not np.all(np.isfinite(phi)):
                raise ConstructionError(f"phi {phi} has non-finite entries")
            if abs(np.linalg.norm(phi) - 1.0) > 1e-10:
                raise ConstructionError(f"phi has norm {np.linalg.norm(phi)}, not 1")
            if np.max(np.abs(np.abs(phi) ** 2 - q)) > 1e-10:
                raise ConstructionError("q does not match |<e_alpha, phi>|^2")
            phi = canonical_phase(phi)
            phi.setflags(write=False)
            object.__setattr__(self, "phi", phi)

    @classmethod
    def from_phi(cls, phi: Sequence[complex]) -> "FilterState":
        phi = np.asarray(phi, dtype=complex).reshape(-1)
        norm = np.linalg.norm(phi)
        if not 0.0 < norm < np.inf:
            raise ConstructionError(f"phi has norm {norm}; cannot normalize")
        phi = phi / norm
        return cls(q=np.abs(phi) ** 2, step=0, phi=phi)

    @classmethod
    def from_weights(cls, q: Sequence[float]) -> "FilterState":
        q = np.asarray(q, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            total = q.sum()  # an overflow gives inf, inf - inf gives nan: both refused
        if not 0.0 < total < np.inf:
            raise ConstructionError(f"weights {q} have sum {total}; cannot normalize")
        return cls(q=q / total, step=0)


def canonical_phase(phi: np.ndarray) -> np.ndarray:
    """Fix the global phase of each state phi[..., :] so that its first
    amplitude above 1e-14 in modulus is real positive (a state with none is
    left as it is).  States differing by a phase are physically identical;
    the canonical representative makes state equality testable."""
    nonzero = np.abs(phi) > 1e-14
    lead = np.take_along_axis(phi, nonzero.argmax(axis=-1)[..., None], axis=-1)
    lead = np.where(nonzero.any(axis=-1, keepdims=True), lead, 1.0)
    return phi * (np.conj(lead) / np.abs(lead))


@dataclass(frozen=True)
class FilterPath(Sequence):
    """The n + 1 states of a filter over n outcomes, as arrays of shape
    (n + 1, d): q, and phi or None.  Entry k, the state after k outcomes, is
    built as the FilterState at step first_step + k; a slice gives a list."""

    q: np.ndarray
    phi: Optional[np.ndarray]
    first_step: int

    def __len__(self) -> int:
        return len(self.q)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(len(self))[k]]
        return FilterState(q=self.q[k], step=self.first_step + k % len(self),
                           phi=None if self.phi is None else self.phi[k])


def filter_step(model: QndSystem | ParametricFamily, state: FilterState, theta,
                outcome: int) -> FilterState:
    """One Bayes update of the posterior (and of phi in quantum mode): the
    last state of filter_trajectory over the single outcome."""
    return filter_trajectory(model, state, theta, [outcome])[-1]


def filter_trajectory(model: QndSystem | ParametricFamily, initial: FilterState, theta,
                      outcomes: Sequence[int]) -> FilterPath:
    """Bayes filter along outcomes o_1..o_n at one parameter point: all n + 1
    states.  By exchangeability the posterior after k outcomes is the softmax
    of ln q_0(alpha) + sum_{i<=k} ln p(o_i|alpha), the log_terms kernel on
    cumulative counts, here one cumsum of log-likelihood ratios to the
    component most probable at the end: small sums, so a loop's precision.
    A tracked phi (QndSystem only) has modulus sqrt(q) and the phase of phi_0
    times the running product of the unit phasors of <e_{o_i}, U_alpha psi>.
    An outcome outside the alphabet (DomainError) or impossible under the
    current posterior (InferenceError) is refused with its step."""
    if np.ndim(theta) > 1:
        raise DomainError(f"the filter takes one parameter point, got theta of shape "
                          f"{np.shape(theta)}")
    if isinstance(model, QndSystem):
        amps = _amplitudes(model, theta)
        p = np.abs(amps) ** 2
    elif initial.phi is not None:
        raise DomainError("phi tracking requires a QndSystem, not a bare family")
    else:
        p = model.prob_table(theta)
    o = np.asarray(outcomes, dtype=int).reshape(-1)
    outside = np.flatnonzero((o < 0) | (o >= p.shape[1]))
    if outside.size:
        raise DomainError(f"outcome index {o[outside[0]]} at step {initial.step + 1 + outside[0]} "
                          f"outside alphabet of size {p.shape[1]}")
    with np.errstate(divide="ignore"):
        logp = np.log(np.vstack([initial.q, p[:, o].T]))                # (n + 1, d)
    ref = logp.sum(axis=0).argmax()
    if np.isneginf(logp[:, ref]).any():                 # every component ruled out
        k = int(np.isneginf(np.cumsum(logp, axis=0).max(axis=1)).argmax())
        raise InferenceError(f"outcome {o[k - 1]} at step {initial.step + k} has "
                             f"probability 0 under the current posterior")
    terms = np.cumsum(logp - logp[:, [ref]], axis=0)
    q = np.exp(terms - logsumexp(terms, axis=1)[:, None])
    q.setflags(write=False)
    phi = None
    if initial.phi is not None:
        turns = np.exp(1j * np.angle(np.vstack([initial.phi, amps[:, o].T])))
        phi = canonical_phase(np.sqrt(q) * np.cumprod(turns, axis=0))
        phi.setflags(write=False)
    return FilterPath(q=q, phi=phi, first_step=initial.step)
