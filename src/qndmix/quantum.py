"""Quantum non-demolition measurement layer.

A QndSystem couples a d-level system to an l-level probe through a
block-diagonal unitary sum_alpha |e_alpha><e_alpha| (x) U_alpha(theta), with
U_alpha(theta) = exp(-i sum_k theta_k G_{alpha,k}) for fixed Hermitian
generators G.  Measuring the probe in a fixed orthonormal basis yields outcome
distributions p_theta(j|alpha) that define a ParametricFamily, and Bayes' rule
drives the conditional-state filter.

Inner products are linear in the second argument throughout: <a, b> = a^dag b.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .errors import ConstructionError, DomainError, InferenceError
from .model import Alphabet, ComponentSet, ParameterBox, ParametricFamily

__all__ = [
    "QndSystem",
    "FilterState",
    "hermitian_expm",
    "unitary",
    "outcome_probs",
    "as_family",
    "filter_step",
    "filter_trajectory",
]

HERMITIAN_TOL = 1e-12
UNITARY_TOL = 1e-10

# Posterior entries below this are flushed to zero before renormalization;
# underflow of a collapsing component is expected, not an error.
POSTERIOR_FLOOR = 1e-300


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
    exactly Hermitian and no evaluation checks it again.  probe_basis stores
    the measurement basis as columns; the default is the canonical basis.
    """

    generators: np.ndarray
    probe: np.ndarray
    probe_basis: Optional[np.ndarray] = None

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
        basis = self.probe_basis
        if basis is None:
            basis = np.eye(self.probe_dim, dtype=complex)
        else:
            basis = np.asarray(basis, dtype=complex)
            if basis.shape != (self.probe_dim, self.probe_dim):
                raise ConstructionError("probe_basis must be l x l with basis vectors as columns")
            if np.max(np.abs(basis.conj().T @ basis - np.eye(self.probe_dim))) > 1e-12:
                raise ConstructionError("probe_basis is not orthonormal within 1e-12")
        basis.setflags(write=False)
        object.__setattr__(self, "probe_basis", basis)

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


def _component(sys: QndSystem, alpha: int) -> int:
    if not 0 <= alpha < sys.system_dim:
        raise DomainError(f"component index {alpha} outside 0..{sys.system_dim - 1}")
    return alpha


def unitary(sys: QndSystem, theta, alpha: int) -> np.ndarray:
    """Interaction unitary U_alpha(theta) = exp(-i H_alpha(theta))."""
    alpha = _component(sys, alpha)
    return _unitaries(sys, theta)[..., alpha, :, :]


def _amplitudes(sys: QndSystem, theta) -> np.ndarray:
    """Probe amplitudes <psi_j, U_alpha psi> of every component alpha and
    outcome j, shape (..., d, l) for theta of shape (..., D)."""
    return (_unitaries(sys, theta) @ sys.probe) @ sys.probe_basis.conj()


def outcome_probs(sys: QndSystem, theta, alpha: int) -> np.ndarray:
    """Outcome distribution p(j|alpha) = |<psi_j, U_alpha(theta) psi>|^2."""
    alpha = _component(sys, alpha)
    return np.abs(_amplitudes(sys, theta)[..., alpha, :]) ** 2


def as_family(
    sys: QndSystem,
    box: ParameterBox,
    alphabet_labels: Sequence[str] = (),
    component_labels: Sequence[str] = (),
) -> ParametricFamily:
    """Wrap the induced outcome distributions as a ParametricFamily.

    The family constructor's checks are the positivity gate: an outcome with
    probability 0 or 1 at one of its sample points names the offending
    (theta, alpha, j) in the error.  The Jacobian is
    dp(j|alpha)/dtheta_k = p * 2 Im(<psi_j, G_{alpha,k} U psi> / <psi_j, U psi>),
    which holds when each H_alpha(theta) commutes with its generators, so
    that dU = -i G U; the family's finite-difference consistency check
    refuses generators that break this.
    """
    if box.dimension != sys.dim:
        raise ConstructionError(
            f"box has dimension {box.dimension}, but the generators take D = {sys.dim}"
        )
    alphabet = Alphabet(size=sys.probe_dim, labels=tuple(alphabet_labels))
    components = ComponentSet(size=sys.system_dim, labels=tuple(component_labels))

    def probs(theta: np.ndarray) -> np.ndarray:
        return np.abs(_amplitudes(sys, theta)) ** 2

    def dprobs(theta: np.ndarray) -> np.ndarray:
        upsi = _unitaries(sys, theta) @ sys.probe                               # (..., d, l)
        den = (upsi @ sys.probe_basis.conj())[..., None, :, :]                  # <psi_j, U psi>
        num = np.einsum("akij,...aj->...kai", sys.generators, upsi) @ sys.probe_basis.conj()
        return np.abs(den) ** 2 * (2.0 * np.imag(num / den))                    # (..., D, d, l)

    return ParametricFamily(
        alphabet=alphabet,
        components=components,
        box=box,
        probs=probs,
        dprobs=dprobs,
        regularity="C2",
    )


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
        return cls(q=q / q.sum(), step=0)


def canonical_phase(phi: np.ndarray) -> np.ndarray:
    """Fix the global phase so the first nonzero amplitude is real positive.

    States differing by a phase are physically identical; the canonical
    representative makes state equality testable.
    """
    idx = np.nonzero(np.abs(phi) > 1e-14)[0]
    if idx.size == 0:
        return phi
    lead = phi[idx[0]]
    return phi * (np.conj(lead) / np.abs(lead))


ModelLike = Union[QndSystem, ParametricFamily]


def filter_step(model: ModelLike, state: FilterState, theta, outcome: int) -> FilterState:
    """One Bayes update of the posterior (and of phi in quantum mode): the
    last state of filter_trajectory over the single outcome."""
    return filter_trajectory(model, state, theta, [outcome])[-1]


def filter_trajectory(
    model: ModelLike,
    initial: FilterState,
    theta,
    outcomes: Sequence[int],
) -> list[FilterState]:
    """Bayes updates along an outcome sequence; returns the full state path.

    q'(alpha) = q(alpha) p_theta(outcome|alpha) / pi(outcome) with
    pi(outcome) = sum_alpha q(alpha) p_theta(outcome|alpha), from one table
    p_theta (and, when quantum, one set of probe amplitudes) at one parameter
    point.  A zero-probability outcome is an impossible observation under the
    model and raises InferenceError.
    """
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
    path = [initial]
    state = initial
    for outcome in outcomes:
        outcome = int(outcome)
        if not 0 <= outcome < p.shape[1]:
            raise DomainError(f"outcome index {outcome} outside alphabet of size {p.shape[1]}")
        pj = p[:, outcome]
        pi = float(np.dot(state.q, pj))
        if pi <= 0.0:
            raise InferenceError(
                f"outcome {outcome} has probability 0 under the current posterior"
            )
        q = state.q * pj / pi
        q = np.where(q < POSTERIOR_FLOOR, 0.0, q)
        q = q / q.sum()
        phi = None
        if state.phi is not None:
            phi = state.phi * amps[:, outcome]
            phi = phi / np.linalg.norm(phi)
        state = FilterState(q=q, step=state.step + 1, phi=phi)
        path.append(state)
    return path
