import numpy as np
import pytest
from scipy.linalg import expm

from qndmix.errors import ConstructionError, DomainError, InferenceError
from qndmix.model import ParameterBox
from qndmix.quantum import (
    FilterState,
    QndSystem,
    as_family,
    canonical_phase,
    filter_step,
    filter_trajectory,
    hermitian_expm,
    outcome_probs,
    unitary,
)
from qndmix.presets import qubit_rotation
from qndmix.simulate import sample_trajectory

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def random_hermitian(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (a + a.conj().T)


# ---------------------------------------------------------------------------
# Matrix exponential and unitaries
# ---------------------------------------------------------------------------

def test_hermitian_expm_matches_scipy():
    rng = np.random.default_rng(7)
    for n in (2, 3, 5):
        h = random_hermitian(rng, n)
        np.testing.assert_allclose(hermitian_expm(h), expm(-1j * h), atol=1e-12)


def test_hermitian_expm_is_unitary():
    rng = np.random.default_rng(11)
    for _ in range(20):
        u = hermitian_expm(random_hermitian(rng, 4))
        np.testing.assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-10)


def test_hermitian_expm_rejects_non_hermitian():
    with pytest.raises(ConstructionError):
        hermitian_expm(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ConstructionError):
        hermitian_expm(np.ones((2, 3)))
    with pytest.raises(ConstructionError):
        hermitian_expm(np.array([[np.nan, 0.0], [0.0, 0.0]]))


def test_hermitian_expm_on_a_stack():
    """A stack is exponentiated matrix by matrix; a bad matrix is located."""
    rng = np.random.default_rng(4)
    stack = np.stack([[random_hermitian(rng, 3) for _ in range(2)] for _ in range(4)])
    out = hermitian_expm(stack)
    assert out.shape == (4, 2, 3, 3)
    for i in range(4):
        for a in range(2):
            np.testing.assert_allclose(out[i, a], hermitian_expm(stack[i, a]), atol=1e-14)
    stack[2, 1, 0, 1] += 1.0
    with pytest.raises(ConstructionError, match=r"at stack index \(2, 1\)"):
        hermitian_expm(stack)


def test_qubit_probabilities_are_cos_squared():
    pre = qubit_rotation()
    theta = 0.8
    for c, alpha in enumerate(pre.component_values):
        p = outcome_probs(pre.system, [theta], c)
        assert p[0] == pytest.approx(np.cos(theta * alpha / 2) ** 2, abs=1e-12)
        assert p[1] == pytest.approx(np.sin(theta * alpha / 2) ** 2, abs=1e-12)


def test_unitary_of_sigma_z_is_diagonal_phase():
    sys = QndSystem(generators=SIGMA_Z[None, None], probe=np.array([1.0, 0.0]))
    u = unitary(sys, [0.4], 0)
    np.testing.assert_allclose(u, np.diag([np.exp(-0.4j), np.exp(0.4j)]), atol=1e-12)


# ---------------------------------------------------------------------------
# System construction and family wrapping
# ---------------------------------------------------------------------------

def test_system_rejects_unnormalized_probe():
    with pytest.raises(ConstructionError):
        QndSystem(generators=SIGMA_X[None, None], probe=np.array([1.0, 1.0]))


def test_system_rejects_non_orthonormal_basis():
    with pytest.raises(ConstructionError):
        QndSystem(
            generators=SIGMA_X[None, None],
            probe=np.array([1.0, 0.0]),
            probe_basis=np.array([[1.0, 1.0], [0.0, 1.0]]),
        )


def test_system_dimensions_come_from_generators():
    gens = np.stack([np.stack([SIGMA_X, SIGMA_Z])] * 3)            # (d, D, l, l) = (3, 2, 2, 2)
    sys = QndSystem(generators=gens, probe=np.array([1.0, 0.0]))
    assert (sys.system_dim, sys.dim, sys.probe_dim) == (3, 2, 2)
    assert not sys.generators.flags.writeable
    gens[1, 0, 0, 1] += 1.0
    with pytest.raises(ConstructionError, match=r"at stack index \(1, 0\)"):
        QndSystem(generators=gens, probe=np.array([1.0, 0.0]))
    with pytest.raises(ConstructionError, match=r"shape \(d, D, l, l\)"):
        QndSystem(generators=SIGMA_X[None], probe=np.array([1.0, 0.0]))


def test_component_index_outside_range_is_refused(qubit):
    with pytest.raises(DomainError, match="component index 7"):
        unitary(qubit.system, [0.8], 7)
    for alpha in (-1, 2):
        with pytest.raises(DomainError, match="component index"):
            outcome_probs(qubit.system, [0.8], alpha)


def test_as_family_refuses_box_of_wrong_dimension(qubit):
    box = ParameterBox(np.array([0.5, 0.5]), np.array([0.95, 0.95]))
    with pytest.raises(ConstructionError, match="box has dimension 2"):
        as_family(qubit.system, box)


def _two_generator_family(second):
    """d = 2, D = 2: G_{alpha,0} = (alpha/2) sigma_x and G_{alpha,1} = alpha * second."""
    gens = np.stack([a * np.stack([0.5 * SIGMA_X, second]) for a in (1.0, 2.0)])
    sys = QndSystem(generators=gens, probe=np.array([1.0, 0.0]))
    return as_family(sys, ParameterBox(np.array([0.3, 0.2]), np.array([0.6, 0.6])))


def test_commuting_two_parameter_family():
    """With commuting generators the stacked tables equal the pointwise ones
    and the analytic Jacobian agrees with central differences."""
    fam = _two_generator_family(0.25 * SIGMA_X)
    assert fam.dim == 2 and not fam.derivatives_are_numeric()
    rng = np.random.default_rng(3)
    points = rng.uniform([0.32, 0.22], [0.58, 0.58], size=(16, 2))
    stacked = fam.prob_table(points)
    for t, table in zip(points, stacked):
        np.testing.assert_array_equal(table, fam.prob_table(t))
        # p(0|alpha) = cos^2(alpha (theta_0/2 + theta_1/4)).
        np.testing.assert_allclose(
            table[:, 0], np.cos(np.array([1.0, 2.0]) * (t[0] / 2 + t[1] / 4)) ** 2, atol=1e-14
        )
        step = 1e-6
        for k in range(2):
            e = np.eye(2)[k] * step
            fd = (fam.prob_table(t + e) - fam.prob_table(t - e)) / (2 * step)
            np.testing.assert_allclose(fam.dprob_table(t)[k], fd, atol=1e-8)


def test_non_commuting_generators_are_refused():
    """sigma_x and sigma_z do not commute, so dU != -i G U; the family's
    finite-difference check catches the wrong analytic Jacobian."""
    with pytest.raises(ConstructionError, match="inconsistent with finite differences"):
        _two_generator_family(SIGMA_Z)


def test_as_family_analytic_score_matches_fd():
    """The quantum score formula must agree with numeric differentiation."""
    pre = qubit_rotation()
    fam = pre.family
    theta = [0.7]
    analytic = fam.dprob_table(theta)
    step = 1e-6
    fd = (fam.prob_table([theta[0] + step]) - fam.prob_table([theta[0] - step])) / (2 * step)
    np.testing.assert_allclose(analytic[0], fd, atol=1e-7)


def test_as_family_positivity_gate_names_offender():
    # A box centered on pi/2 drives p(0|alpha=2) = cos^2(theta) through zero;
    # the gate must refuse with a located diagnostic.
    with pytest.raises(ConstructionError, match=r"p\(j="):
        qubit_rotation(d=2, box=(np.pi / 2 - 0.2, np.pi / 2 + 0.2))


def test_qubit_d3_valid_on_smaller_box():
    pre = qubit_rotation(d=3, box=(0.3, 1.0))
    assert pre.family.n_components == 3


def test_custom_probe_basis_changes_statistics():
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    sys = QndSystem(
        generators=0.5 * SIGMA_X[None, None],
        probe=np.array([1.0, 0.0]),
        probe_basis=hadamard.astype(complex),
    )
    p = outcome_probs(sys, [0.8], 0)
    # In the Hadamard basis the outcome law is (1 +/- cos) ... derived directly:
    u = hermitian_expm(0.8 * 0.5 * SIGMA_X)
    amp = hadamard.conj().T @ (u @ np.array([1.0, 0.0]))
    np.testing.assert_allclose(p, np.abs(amp) ** 2, atol=1e-14)
    assert p.sum() == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Filter
# ---------------------------------------------------------------------------

def test_filter_state_validation():
    with pytest.raises(ConstructionError):
        FilterState(q=np.array([0.5, 0.6]), step=0)
    with pytest.raises(ConstructionError):
        FilterState(q=np.array([0.5, 0.5]), step=0, phi=np.array([1.0, 0.0]))
    state = FilterState.from_weights([2.0, 2.0])
    np.testing.assert_allclose(state.q, [0.5, 0.5])


@pytest.mark.parametrize("make", [
    lambda: FilterState(q=np.array([np.nan, np.nan]), step=0),
    lambda: FilterState(q=np.array([0.5, 0.5]), step=0, phi=np.array([np.nan, np.nan])),
    lambda: FilterState.from_phi([0.0, 0.0]),
], ids=["nan_q", "nan_phi", "zero_phi"])
def test_filter_state_refuses_non_finite_input(make):
    with pytest.raises(ConstructionError):
        make()


def test_filter_step_refuses_theta_of_wrong_length(qubit):
    state = FilterState.from_weights(qubit.q.q)
    with pytest.raises(DomainError, match="does not end in D = 1"):
        filter_step(qubit.system, state, [0.8, 123.0], 0)


@pytest.mark.parametrize("form", ["system", "family"])
def test_filter_step_refuses_a_stacked_theta(qubit, form):
    state = FilterState.from_weights(qubit.q.q)
    with pytest.raises(DomainError, match=r"one parameter point, got theta of shape \(2, 1\)"):
        filter_step(getattr(qubit, form), state, [[0.8], [0.9]], 1)


def test_filter_step_bayes_oracle(bernoulli_pair, uniform2):
    # [DERIVED] theta = 0.5: p(0|.) = (0.5, 0.25); uniform prior and outcome 0
    # give posterior (0.5*0.5, 0.5*0.25)/0.375 = (2/3, 1/3).
    state = FilterState.from_weights(uniform2.q)
    new = filter_step(bernoulli_pair, state, [0.5], 0)
    np.testing.assert_allclose(new.q, [2.0 / 3.0, 1.0 / 3.0], atol=1e-14)
    assert new.step == 1


def test_filter_step_rejects_bad_outcome(bernoulli_pair, uniform2):
    state = FilterState.from_weights(uniform2.q)
    with pytest.raises(DomainError):
        filter_step(bernoulli_pair, state, [0.5], 5)


def test_filter_step_zero_probability_outcome():
    from qndmix.model import Alphabet, ComponentSet, ParametricFamily

    fam = ParametricFamily(
        Alphabet(size=2), ComponentSet(size=1),
        ParameterBox(np.array([0.0]), np.array([1.0])),
        probs=lambda t: np.array([[1.0, 0.0]]),
        regularity="C1",
        validate=False,  # deliberately degenerate
    )
    state = FilterState.from_weights([1.0])
    with pytest.raises(InferenceError):
        filter_step(fam, state, [0.5], 1)


def test_filter_trajectory_simplex_and_purity(qubit):
    traj = sample_trajectory(qubit.family, qubit.theta_star, 1, 400, seed=5)
    states = filter_trajectory(
        qubit.family, FilterState.from_weights(qubit.q.q), qubit.theta_star, traj.outcomes
    )
    assert len(states) == len(traj) + 1
    for s in states:
        assert abs(s.q.sum() - 1.0) <= 1e-10
        assert np.all(s.q >= 0.0)
    # With 400 observations the posterior should have found the component.
    assert np.argmax(states[-1].q) == 1


def test_phi_tracking_matches_classical_posterior(qubit):
    """|<e_alpha, phi_n>|^2 must equal the Bayes posterior at every step."""
    sys = qubit.system
    d = sys.system_dim
    traj = sample_trajectory(qubit.family, qubit.theta_star, 0, 120, seed=9)
    phi0 = np.sqrt(qubit.q.q).astype(complex)
    quantum = filter_trajectory(sys, FilterState.from_phi(phi0), qubit.theta_star, traj.outcomes)
    classical = filter_trajectory(
        qubit.family, FilterState.from_weights(qubit.q.q), qubit.theta_star, traj.outcomes
    )
    for sq, sc in zip(quantum, classical):
        np.testing.assert_allclose(np.abs(sq.phi) ** 2, sq.q, atol=1e-10)
        np.testing.assert_allclose(sq.q, sc.q, atol=1e-10)
    assert quantum[-1].step == 120


def test_phi_requires_quantum_model(qubit):
    state = FilterState.from_phi(np.sqrt(qubit.q.q))
    with pytest.raises(DomainError):
        filter_step(qubit.family, state, qubit.theta_star, 0)


def test_canonical_phase():
    phi = np.array([0.0, 1j, 1.0]) / np.sqrt(2.0)
    fixed = canonical_phase(phi)
    assert fixed[1].imag == pytest.approx(0.0, abs=1e-15)
    assert fixed[1].real > 0
    np.testing.assert_allclose(np.abs(fixed), np.abs(phi))
    # A zero vector passes through unchanged.
    np.testing.assert_allclose(canonical_phase(np.zeros(3, dtype=complex)), np.zeros(3))


def test_identical_components_learn_nothing(uniform2):
    """If every component shares one Hamiltonian, the posterior never moves."""
    sys = QndSystem(generators=np.stack([0.5 * SIGMA_X[None]] * 2), probe=np.array([1.0, 0.0]))
    state = FilterState.from_weights(uniform2.q)
    for j in (0, 1, 0, 0, 1):
        state = filter_step(sys, state, [0.8], j)
        np.testing.assert_allclose(state.q, [0.5, 0.5], atol=1e-12)


def test_quantum_filter_path_matches_per_component_unitaries(qubit):
    """100 steps of the phi-tracking filter, whose amplitudes come from one
    stacked exponential per step, equal a filter built from one unitary per
    component; the last state is pinned to its recorded value."""
    sys = qubit.system
    traj = sample_trajectory(qubit.family, qubit.theta_star, 0, 100, seed=11)
    phi0 = np.sqrt(qubit.q.q).astype(complex)
    path = filter_trajectory(sys, FilterState.from_phi(phi0), qubit.theta_star, traj.outcomes)
    amps = np.stack([
        sys.probe_basis.conj().T @ (unitary(sys, qubit.theta_star, a) @ sys.probe)
        for a in range(sys.system_dim)
    ])
    phi = phi0
    for state, j in zip(path[1:], traj.outcomes):
        phi = canonical_phase(phi * amps[:, j] / np.linalg.norm(phi * amps[:, j]))
        np.testing.assert_allclose(state.phi, phi, rtol=0, atol=1e-12)
        np.testing.assert_allclose(state.q, np.abs(phi) ** 2, rtol=0, atol=1e-12)
    np.testing.assert_allclose(path[-1].q, [0.9999999998200845, 1.799155645065299e-10],
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(
        path[-1].phi, [0.9999999999100423 - 3.0814879110195774e-33j,
                       1.3413260770839028e-05 + 7.657896860601099e-21j],
        rtol=0, atol=1e-12,
    )
