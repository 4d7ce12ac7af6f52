"""Quantum non-demolition measurement layer.

A QndSystem couples a d-level system to an l-level probe through a
block-diagonal unitary sum_alpha |e_alpha><e_alpha| (x) U_alpha(theta), with
U_alpha(theta) = exp(-i H_alpha(theta)).  Measuring the probe in a fixed
orthonormal basis yields outcome distributions p_theta(j|alpha) that define a
ParametricFamily, and Bayes' rule drives the conditional-state filter.

Inner products are linear in the second argument throughout: <a, b> = a^dag b.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

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

    hamiltonians(theta, alpha) must return the Hermitian l x l generator
    H_alpha(theta); hamiltonian_grads(theta, alpha, k), when given, its
    partial derivative in theta_k.  probe_basis stores the measurement basis
    as columns; the default is the canonical basis.
    """

    system_dim: int
    probe_dim: int
    hamiltonians: Callable[[np.ndarray, int], np.ndarray]
    probe: np.ndarray
    hamiltonian_grads: Optional[Callable[[np.ndarray, int, int], np.ndarray]] = None
    probe_basis: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.system_dim < 1 or self.probe_dim < 2:
            raise ConstructionError("need system_dim >= 1 and probe_dim >= 2")
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


def unitary(sys: QndSystem, theta, alpha: int) -> np.ndarray:
    """Interaction unitary U_alpha(theta) = exp(-i H_alpha(theta))."""
    t = np.atleast_1d(np.asarray(theta, dtype=float))
    h = _require_hermitian(sys.hamiltonians(t, alpha), what=f"H_{alpha}(theta)")
    return hermitian_expm(h)


def _amplitudes(sys: QndSystem, theta) -> np.ndarray:
    """Probe amplitudes <psi_j, U_alpha psi> of every component alpha and
    outcome j, shape (..., d, l) for theta of shape (..., D): the generators
    of all points and components are exponentiated in one stacked call."""
    t = np.atleast_1d(np.asarray(theta, dtype=float))
    h = np.array([
        [sys.hamiltonians(p, a) for a in range(sys.system_dim)]
        for p in t.reshape(-1, t.shape[-1])
    ], dtype=complex)
    u = hermitian_expm(h)                              # (m, d, l, l)
    amps = (u @ sys.probe) @ sys.probe_basis.conj()
    return amps.reshape(t.shape[:-1] + amps.shape[1:])


def outcome_probs(sys: QndSystem, theta, alpha: int) -> np.ndarray:
    """Outcome distribution p(j|alpha) = |<psi_j, U_alpha(theta) psi>|^2."""
    return np.abs(_amplitudes(sys, theta)[..., alpha, :]) ** 2


def _score_row(sys: QndSystem, theta, alpha: int, k: int) -> np.ndarray:
    """Analytic score d ln p(j|alpha) / d theta_k = 2 Im(<psi_j, dH U psi> / <psi_j, U psi>).

    Valid when H_alpha(theta) commutes with its theta_k-derivative (e.g. any
    linear parameterization H_alpha(theta) = theta_k-weighted fixed generators),
    so that dU = -i dH U.  The family's finite-difference consistency check
    rejects generators that break this.
    """
    t = np.atleast_1d(np.asarray(theta, dtype=float))
    u = unitary(sys, t, alpha)
    dh = _require_hermitian(sys.hamiltonian_grads(t, alpha, k), what="dH")
    upsi = u @ sys.probe
    num = sys.probe_basis.conj().T @ (dh @ upsi)   # <psi_j, dH U psi>
    den = sys.probe_basis.conj().T @ upsi          # <psi_j, U psi>
    return 2.0 * np.imag(num / den)


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
    When hamiltonian_grads is present the analytic score formula supplies the
    gradient; otherwise the family falls back to finite differences.
    """
    d, l = sys.system_dim, sys.probe_dim
    alphabet = Alphabet(size=l, labels=tuple(alphabet_labels))
    components = ComponentSet(size=d, labels=tuple(component_labels))

    def probs(theta: np.ndarray) -> np.ndarray:
        return np.abs(_amplitudes(sys, theta)) ** 2

    dprobs = None
    if sys.hamiltonian_grads is not None:
        def dprobs(theta: np.ndarray) -> np.ndarray:
            table = probs(theta)
            jac = np.empty((box.dimension, d, l))
            for k in range(box.dimension):
                for a in range(d):
                    jac[k, a] = table[a] * _score_row(sys, theta, a, k)
            return jac

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
        regularity="C2" if sys.hamiltonian_grads is not None else "C1",
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
        if q.ndim != 1 or np.any(q < 0.0) or abs(q.sum() - 1.0) > 1e-10:
            raise ConstructionError(f"posterior {q} is not on the simplex")
        q.setflags(write=False)
        object.__setattr__(self, "q", q)
        if self.phi is not None:
            phi = np.asarray(self.phi, dtype=complex).reshape(-1)
            if phi.size != q.size:
                raise ConstructionError("phi and q must have the same dimension")
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
        phi = phi / np.linalg.norm(phi)
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
    """Probabilities p(j|alpha) as (d, l) plus probe amplitudes when quantum."""
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
