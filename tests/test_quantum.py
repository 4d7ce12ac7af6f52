import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from qndmix.errors import ConstructionError, DomainError, InferenceError
from qndmix import quantum
from qndmix.model import ParameterBox, ParametricFamily
from qndmix.quantum import (
    HERMITIAN_TOL,
    FilterPath,
    FilterState,
    QndSystem,
    as_family,
    canonical_phase,
    filter_step,
    filter_trajectory,
    hermitian_expm,
)
from qndmix.presets import qubit_rotation
from qndmix.simulate import sample_trajectory

from conftest import reference_quantum_jacobian

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
    for p, alpha in zip(pre.family.prob_table([theta]), pre.component_values):
        assert p[0] == pytest.approx(np.cos(theta * alpha / 2) ** 2, abs=1e-12)
        assert p[1] == pytest.approx(np.sin(theta * alpha / 2) ** 2, abs=1e-12)


def test_unitary_of_sigma_z_is_diagonal_phase():
    sys = QndSystem(generators=SIGMA_Z[None, None], probe=np.array([1.0, 0.0]))
    u = quantum._unitaries(sys, [0.4])[0]
    np.testing.assert_allclose(u, np.diag([np.exp(-0.4j), np.exp(0.4j)]), atol=1e-12)


# ---------------------------------------------------------------------------
# System construction and family wrapping
# ---------------------------------------------------------------------------

def test_system_rejects_unnormalized_probe():
    with pytest.raises(ConstructionError):
        QndSystem(generators=SIGMA_X[None, None], probe=np.array([1.0, 1.0]))
    with pytest.raises(ConstructionError, match="probe vector has wrong dimension"):
        QndSystem(generators=SIGMA_X[None, None], probe=np.array([1.0, 0.0, 0.0]))


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
    assert fam.dim == 2
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
            np.testing.assert_allclose(fam.tables(t)[1][k], fd, atol=1e-8)


@pytest.mark.parametrize("case", ["weak_generic", "commuting_two_parameter"])
def test_as_family_joint_rule_equals_probs_and_the_reference_jacobian(case):
    """as_family's joint rule gives probs' table and the reference Jacobian
    bit for bit, at one point and on a stack, on a 3-level system of complex
    amplitudes and on a D = 2 family."""
    if case == "weak_generic":
        sys = _weak_generic_system()[0]
        fam = as_family(sys, ParameterBox(np.array([0.5]), np.array([0.9])))
    else:
        fam = _two_generator_family(0.25 * SIGMA_X)
        sys = QndSystem(generators=np.stack([a * np.stack([0.5 * SIGMA_X, 0.25 * SIGMA_X])
                                             for a in (1.0, 2.0)]), probe=np.array([1.0, 0.0]))
    stack = np.linspace(fam.box.lower, fam.box.upper, 12)
    for t in (stack[5], stack, stack.reshape(3, 4, fam.dim)):
        p, dp = fam._tables(t)
        reference = reference_quantum_jacobian(sys, t)
        assert p.tobytes() == fam._probs(t).tobytes()
        assert dp.shape == reference.shape and dp.tobytes() == reference.tobytes()


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
    analytic = fam.tables(theta)[1]
    step = 1e-6
    fd = (fam.prob_table([theta[0] + step]) - fam.prob_table([theta[0] - step])) / (2 * step)
    np.testing.assert_allclose(analytic[0], fd, atol=1e-7)


def test_as_family_positivity_gate_names_offender(qubit):
    # A box centered on pi/2 drives p(0|alpha=2) = cos^2(theta) through zero;
    # the gate must refuse with a located diagnostic.
    with pytest.raises(ConstructionError, match=r"p\(j="):
        as_family(qubit.system, ParameterBox(np.array([np.pi / 2 - 0.2]), np.array([np.pi / 2 + 0.2])))


def test_nearly_hermitian_generators_are_checked_once():
    """Generators Hermitian only within HERMITIAN_TOL are accepted and stored
    symmetrized, so a large theta, which scales their asymmetry, is not
    refused later by a per-call check."""
    skew = 0.8 * HERMITIAN_TOL * np.array([[0.0, 1.0], [0.0, 0.0]])
    gens = np.stack([a * 0.5 * SIGMA_X + skew for a in (1.0, 2.0)])[:, None]
    sys = QndSystem(generators=gens, probe=np.array([1.0, 0.0]))
    assert np.array_equal(sys.generators, np.swapaxes(sys.generators.conj(), -1, -2))
    u = quantum._unitaries(sys, [3.0])
    np.testing.assert_allclose(u[1] @ u[1].conj().T, np.eye(2), atol=1e-12)
    p = np.abs(u[0] @ sys.probe) ** 2
    np.testing.assert_allclose(p, [np.cos(1.5) ** 2, np.sin(1.5) ** 2], atol=1e-10)
    state = filter_step(sys, FilterState.from_phi([1.0, 1.0]), [3.0], 0)
    assert state.step == 1 and np.all(np.isfinite(state.phi))


def test_exactly_hermitian_generators_are_stored_unchanged():
    gens = ((np.arange(3) + 1) / 2.0)[:, None, None, None] * SIGMA_X
    assert QndSystem(generators=gens, probe=np.array([1.0, 0.0])).generators.tobytes() == gens.tobytes()


def test_custom_probe_basis_changes_statistics():
    """Measuring in an orthonormal basis B, here the Hadamard basis, is the
    system (B^dag G B, B^dag psi) measured in the canonical basis: its table
    is |B^dag U psi|^2 within 1e-12, its Jacobian the central difference of
    that table within 1e-8, and it differs from the canonical measurement of
    (G, psi)."""
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    gens, psi = 0.5 * SIGMA_X[None, None], np.array([1.0, 0.0])
    sys = QndSystem(generators=hadamard.T @ gens @ hadamard, probe=hadamard.T @ psi)
    fam = as_family(sys, ParameterBox(np.array([0.5]), np.array([1.0])))
    p, dp = fam.tables([0.8])
    amp = lambda theta: hadamard.T @ (hermitian_expm(theta * gens[0, 0]) @ psi)
    np.testing.assert_allclose(p[0], np.abs(amp(0.8)) ** 2, rtol=0, atol=1e-12)
    fd = (np.abs(amp(0.8 + 1e-6)) ** 2 - np.abs(amp(0.8 - 1e-6)) ** 2) / 2e-6
    np.testing.assert_allclose(dp[0, 0], fd, rtol=0, atol=1e-8)
    canonical = np.abs(hermitian_expm(0.8 * gens[0, 0]) @ psi) ** 2
    assert np.abs(p[0] - canonical).max() > 0.1


# ---------------------------------------------------------------------------
# Filter
# ---------------------------------------------------------------------------

def test_filter_state_validation():
    with pytest.raises(ConstructionError):
        FilterState(q=np.array([0.5, 0.6]), step=0)
    with pytest.raises(ConstructionError):
        FilterState(q=np.array([0.5, 0.5]), step=0, phi=np.array([1.0, 0.0]))
    with pytest.raises(ConstructionError, match="phi and q must have the same dimension"):
        FilterState(q=np.array([0.5, 0.5]), step=0, phi=np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ConstructionError, match="phi has norm 1.414"):
        FilterState(q=np.array([0.5, 0.5]), step=0, phi=np.array([1.0, 1.0]))
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


@pytest.mark.parametrize("weights", [[-1.0, -1.0], [0.0, 0.0], [1.0, -1.0], [np.inf, 1.0],
                                     [np.inf, -np.inf], [1e308, 1e308]])
def test_from_weights_refuses_a_sum_that_is_not_positive_and_finite(weights):
    """As from_phi refuses such a norm: no weights become the uniform
    posterior, and no warning escapes."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConstructionError, match="cannot normalize"):
            FilterState.from_weights(weights)


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


def _degenerate_family(monkeypatch, table):
    """A family built on a valid uniform table of table's shape, whose probs
    is then swapped for the constant, deliberately degenerate, table."""
    fam = ParametricFamily(
        ParameterBox(np.array([0.0]), np.array([1.0])),
        probs=lambda t: np.full(t.shape[:-1] + table.shape, 1.0 / table.shape[1]),
    )
    monkeypatch.setattr(fam, "_probs", lambda t: table)
    return fam


def test_filter_step_zero_probability_outcome(monkeypatch):
    fam = _degenerate_family(monkeypatch, np.array([[1.0, 0.0]]))
    state = FilterState.from_weights([1.0])
    with pytest.raises(InferenceError):
        filter_step(fam, state, [0.5], 1)


def reference_filter(model, initial, theta, outcomes):
    """The step-by-step Bayes filter, one outcome at a time:
    q' = q p(o|.) / sum_alpha q(alpha) p(o|alpha), and in quantum mode
    phi' = phi <psi_o, U_alpha psi> / norm.  Returns the q and phi paths."""
    if isinstance(model, QndSystem):
        amps = quantum._amplitudes(model, theta)
        p = np.abs(amps) ** 2
    else:
        p = model.prob_table(theta)
    q, phi = initial.q, initial.phi
    qs, phis = [q], [phi]
    for o in outcomes:
        q = q * p[:, o] / np.dot(q, p[:, o])
        q = q / q.sum()
        if phi is not None:
            phi = phi * amps[:, o]
            phi = canonical_phase(phi / np.linalg.norm(phi))
        qs.append(q)
        phis.append(phi)
    return np.array(qs), None if phi is None else np.array(phis)


def _weak_generic_system():
    """d = 3, l = 3, generators 0.01 (A + A^dag) for a random complex A and a
    random probe: outcome amplitudes of distinct phases, and a posterior still
    mixed after 3000 steps, so the whole path tests phi's phases and q's
    precision."""
    rng = np.random.default_rng(12)
    a = rng.normal(size=(3, 1, 3, 3)) + 1j * rng.normal(size=(3, 1, 3, 3))
    probe = rng.normal(size=3) + 1j * rng.normal(size=3)
    sys = QndSystem(generators=0.01 * (a + np.swapaxes(a.conj(), -1, -2)),
                    probe=probe / np.linalg.norm(probe))
    p = np.abs(quantum._amplitudes(sys, [0.7])[0]) ** 2
    return sys, FilterState.from_phi([1.0, 1j, -1.0]), [0.7], rng.choice(3, size=3000, p=p)


@pytest.mark.parametrize("case", ["toy_family", "qubit_system", "generic_system"])
def test_filter_path_equals_the_step_by_step_filter(case, request):
    """3000 steps from one cumulative sum equal the per-step Bayes loop at
    every step, q and (for a QndSystem) phi alike."""
    if case == "generic_system":
        model, initial, theta, outcomes = _weak_generic_system()
    else:
        pre = request.getfixturevalue(case.split("_")[0])
        theta = pre.theta_star
        outcomes = sample_trajectory(pre.family, theta, 1, 3000, seed=21).outcomes
        if case == "qubit_system":
            model, initial = pre.system, FilterState.from_phi(np.sqrt(pre.q.q).astype(complex))
        else:
            model, initial = pre.family, FilterState.from_weights(pre.q.q)
    path = filter_trajectory(model, initial, theta, outcomes)
    q, phi = reference_filter(model, initial, theta, outcomes)
    assert path.q.shape == q.shape == (3001, len(initial.q))
    np.testing.assert_allclose(path.q, q, rtol=0, atol=1e-12)
    if phi is None:
        assert path.phi is None
    else:
        np.testing.assert_allclose(path.phi, phi, rtol=0, atol=1e-12)


def test_filter_refuses_an_impossible_outcome_at_its_step(monkeypatch):
    """Outcome 1 rules out component 1, so outcome 2, possible only under
    component 1, is impossible at step 3, the first step it occurs."""
    fam = _degenerate_family(monkeypatch, np.array([[0.5, 0.5, 0.0], [0.5, 0.0, 0.5]]))
    initial = FilterState.from_weights([0.5, 0.5])
    path = filter_trajectory(fam, initial, [0.5], [0, 1, 1])
    np.testing.assert_array_equal(path.q[-1], [1.0, 0.0])
    with pytest.raises(InferenceError, match="outcome 2 at step 3 has probability 0"):
        filter_trajectory(fam, initial, [0.5], [0, 1, 2, 0])


def test_filter_refuses_an_outcome_outside_the_alphabet_at_its_step(bernoulli_pair, uniform2):
    initial = FilterState.from_weights(uniform2.q)
    for bad in (2, -1):
        with pytest.raises(DomainError, match=f"outcome index {bad} at step 4 outside"):
            filter_trajectory(bernoulli_pair, initial, [0.5], [0, 1, 0, bad, 1])


def test_filter_path_indexes_as_states(bernoulli_pair):
    """Entry k of a path from a state at step 5 is the state at step 5 + k;
    negative indices count from the end, a slice gives a list of states, and
    the arrays are read-only."""
    initial = FilterState(q=np.array([0.25, 0.75]), step=5)
    path = filter_trajectory(bernoulli_pair, initial, [0.5], [0, 1, 1])
    assert isinstance(path, FilterPath) and len(path) == 4 and path.first_step == 5
    assert [s.step for s in path] == [5, 6, 7, 8]
    assert path[-1].step == 8 and path[-4].step == 5
    np.testing.assert_array_equal(path[-1].q, path.q[3])
    np.testing.assert_array_equal(path[0].q, initial.q)
    assert [s.step for s in path[1:]] == [6, 7, 8]
    assert [s.step for s in path[::-2]] == [8, 6]
    for k in (4, -5):
        with pytest.raises(IndexError):
            path[k]
    assert path.phi is None and path[2].phi is None
    assert not path.q.flags.writeable
    assert filter_step(bernoulli_pair, initial, [0.5], 0).step == 6


@pytest.mark.parametrize("form", ["system", "family"])
def test_filter_trajectory_builds_no_state_per_step(qubit, form, monkeypatch):
    """The path is computed as arrays; FilterStates are built only when it is
    indexed."""
    traj = sample_trajectory(qubit.family, qubit.theta_star, 1, 3000, seed=5)
    if form == "system":
        initial = FilterState.from_phi(np.sqrt(qubit.q.q).astype(complex))
    else:
        initial = FilterState.from_weights(qubit.q.q)
    built = []
    original = FilterState.__post_init__
    monkeypatch.setattr(FilterState, "__post_init__",
                        lambda self: built.append(1) or original(self))
    path = filter_trajectory(getattr(qubit, form), initial, qubit.theta_star, traj.outcomes)
    assert len(path) == 3001 and built == []
    assert path[-1].step == 3000 and len(built) == 1


def test_canonical_phase_works_row_by_row():
    """A stack of states is canonicalized state by state."""
    rng = np.random.default_rng(8)
    stack = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
    stack[1, 0] = 0.0
    stack[2] = 0.0
    fixed = canonical_phase(stack)
    for row, got in zip(stack, fixed):
        np.testing.assert_array_equal(got, canonical_phase(row))
    np.testing.assert_array_equal(fixed[2], np.zeros(3))
    assert fixed[1, 1].imag == pytest.approx(0.0, abs=1e-15) and fixed[1, 1].real > 0


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


@pytest.mark.parametrize("form", ["system", "family"])
def test_filter_trajectory_evaluates_the_outcome_table_once(qubit, form, monkeypatch):
    """A 100-step path reads one outcome table at theta, not one per step."""
    traj = sample_trajectory(qubit.family, qubit.theta_star, 1, 100, seed=5)
    calls = []
    counted = {"system": (quantum, "_amplitudes"), "family": (ParametricFamily, "prob_table")}
    owner, name = counted[form]
    original = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *a: calls.append(1) or original(*a))
    path = filter_trajectory(
        getattr(qubit, form), FilterState.from_weights(qubit.q.q), qubit.theta_star, traj.outcomes
    )
    assert len(path) == 101 and len(calls) == 1


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
        quantum._unitaries(sys, qubit.theta_star)[a] @ sys.probe
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
