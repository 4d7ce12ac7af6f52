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
# Points per parameter axis of as_family's positivity scan.
POSITIVITY_SCAN_POINTS = 9

# Posterior entries below this are flushed to zero before renormalization;
# underflow of a collapsing component is expected, not an error.
POSTERIOR_FLOOR = 1e-300


def _adjoint(m: np.ndarray) -> np.ndarray:
    return np.swapaxes(m.conj(), -1, -2)


def _require_hermitian(h: np.ndarray, what: str = "generator") -> np.ndarray:
    """h as a complex array of shape (..., l, l): one matrix or a stack of them.
    A stack that fails names the index of its first offending matrix."""
    h = np.asarray(h, dtype=complex)
    if h.ndim < 2 or h.shape[-1] != h.shape[-2]:
        raise ConstructionError(f"{what} must be a square matrix, got shape {h.shape}")
    finite = np.all(np.isfinite(h.real) & np.isfinite(h.imag), axis=(-2, -1))
    hermitian = np.max(np.abs(h - _adjoint(h)), axis=(-2, -1)) <= HERMITIAN_TOL
    for ok, problem in ((finite, "has non-finite entries"),
                        (hermitian, f"is not Hermitian within {HERMITIAN_TOL}")):
        if not np.all(ok):
            at = tuple(np.argwhere(~ok)[0].tolist())
            raise ConstructionError(f"{what}{f' at stack index {at}' if at else ''} {problem}")
    return h


def hermitian_expm(h: np.ndarray, scale: complex = -1j) -> np.ndarray:
    """exp(scale * H) for Hermitian H via eigendecomposition, for one matrix
    or a stack of shape (..., l, l) (one batched eigh).

    With scale = -i this produces a unitary matrix up to rounding; the
    Hermitian structure makes the eigendecomposition route exact in the
    eigenbasis, which Pade scaling-and-squaring does not guarantee.
    """
    h = _require_hermitian(h)
    w, v = np.linalg.eigh(h)
    return (v * np.exp(scale * w)[..., None, :]) @ _adjoint(v)


@dataclass(frozen=True)
class QndSystem:
    """Quantum data inducing a mixture-of-multinomials model.

    generators has shape (d, D, l, l): generators[alpha, k] is the Hermitian
    matrix G_{alpha,k}, and H_alpha(theta) = sum_k theta_k G_{alpha,k}.
    probe_basis stores the measurement basis as columns; the default is the
    canonical basis.
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
    return hermitian_expm(np.einsum("...k,akij->...aij", t, sys.generators))


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

    The positivity gate is enforced by the family constructor on its sampled
    grid plus an extra axis-wise scan here; an outcome with probability 0 or 1
    anywhere on the scan names the offending (theta, alpha, j) in the error.
    The Jacobian is dp(j|alpha)/dtheta_k = p * 2 Im(<psi_j, G_{alpha,k} U psi> /
    <psi_j, U psi>), which holds when each H_alpha(theta) commutes with its
    generators, so that dU = -i G U; the family's finite-difference
    consistency check refuses generators that break this.
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

    # Axis-wise positivity scan with named diagnostics before handing off to
    # the generic construction checks: scan[k, i] moves axis k to its i-th point.
    scan = np.tile(0.5 * (box.lower + box.upper), (box.dimension, POSITIVITY_SCAN_POINTS, 1))
    for k in range(box.dimension):
        scan[k, :, k] = np.linspace(box.lower[k], box.upper[k], POSITIVITY_SCAN_POINTS)
    p = probs(scan)                                                     # (D, points, d, l)
    bad = np.argwhere((p <= 1e-12) | (p >= 1.0 - 1e-12))
    if bad.size:
        k, i, a, j = bad[0]
        raise ConstructionError(
            f"outcome probability p(j={j}|alpha={a}) = {p[k, i, a, j]} at "
            f"theta={scan[k, i]} is not strictly inside (0, 1)"
        )

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


def _outcome_matrix(model: ModelLike, theta) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Probabilities p(j|alpha) as (d, l) plus probe amplitudes when quantum,
    at one parameter point; a stack of points is refused."""
    if np.ndim(theta) > 1:
        raise DomainError(f"the filter takes one parameter point, got theta of shape "
                          f"{np.shape(theta)}")
    if isinstance(model, QndSystem):
        amps = _amplitudes(model, theta)
        return np.abs(amps) ** 2, amps
    return model.prob_table(theta), None


def filter_step(model: ModelLike, state: FilterState, theta, outcome: int) -> FilterState:
    """One Bayes update of the posterior (and of phi in quantum mode).

    q'(alpha) = q(alpha) p_theta(outcome|alpha) / pi(outcome) with
    pi(outcome) = sum_alpha q(alpha) p_theta(outcome|alpha).  A zero-probability
    outcome is an impossible observation under the model and raises
    InferenceError.
    """
    p, amps = _outcome_matrix(model, theta)
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
        if amps is None:
            raise DomainError("phi tracking requires a QndSystem, not a bare family")
        phi = state.phi * amps[:, outcome]
        phi = phi / np.linalg.norm(phi)
    return FilterState(q=q, step=state.step + 1, phi=phi)


def filter_trajectory(
    model: ModelLike,
    initial: FilterState,
    theta,
    outcomes: Sequence[int],
) -> list[FilterState]:
    """Fold filter_step over an outcome sequence; returns the full state path."""
    path = [initial]
    state = initial
    for j in outcomes:
        state = filter_step(model, state, theta, int(j))
        path.append(state)
    return path
