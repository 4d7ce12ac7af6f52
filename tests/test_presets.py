import math

import numpy as np
import pytest

from qndmix.errors import ConfigError, ConstructionError, DomainError
from qndmix.model import ParameterBox, ParametricFamily, check_identifiability, fisher_information, kl_matrix
from qndmix.presets import (
    PRESETS,
    VISIBILITY,
    Preset,
    get_preset,
    poisson_like_weights,
    qubit_rotation,
    toy_haroche,
    toy_haroche_full,
    toy_haroche_guerlin,
)
from qndmix.quantum import QndSystem, _amplitudes, as_family

from conftest import reference_quantum_jacobian


def test_registry_contents():
    assert set(PRESETS) == {
        "toy_haroche", "toy_haroche_guerlin", "toy_haroche_full", "qubit_rotation",
    }
    for name in PRESETS:
        assert get_preset(name).name == name
    with pytest.raises(ConfigError):
        get_preset("nope")


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_get_preset_returns_one_shared_read_only_instance(name):
    """get_preset builds each preset once per process; PRESETS[name]() builds
    a private one.  No array of the shared instance can be written."""
    shared = get_preset(name)
    assert get_preset(name) is shared
    private = PRESETS[name]()
    assert private is not shared and private.family is not shared.family
    np.testing.assert_array_equal(private.theta_star, shared.theta_star)
    with pytest.raises(ValueError, match="read-only"):
        shared.theta_star[0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        private.theta_star[0] = 0.0
    for array in (shared.q.q, shared.family.box.lower, shared.family.box.upper):
        assert not array.flags.writeable


def test_preset_copies_its_theta_star():
    """A Preset holds a read-only copy, so the caller's array stays writable."""
    pre = get_preset("toy_haroche")
    theta = np.array([0.8])
    copy = Preset(pre.name, pre.family, pre.q, theta, pre.component_values)
    theta[0] = 0.7
    assert copy.theta_star[0] == 0.8 and not copy.theta_star.flags.writeable


def test_poisson_like_weights_frozen():
    q = poisson_like_weights()
    # [DERIVED] rate^alpha/alpha! over alpha = 1..8, normalized; mode at alpha=3.
    np.testing.assert_allclose(
        q.q,
        [
            0.11335437590797363, 0.1961030703207944, 0.22617220776998287,
            0.1956389597210352, 0.13538216012695634, 0.07807037900654483,
            0.038589073051806436, 0.016689774094906285,
        ],
        atol=1e-15,
    )
    assert np.argmax(q.q) == 2
    assert q.q.sum() == pytest.approx(1.0, abs=1e-12)


def test_toy_table_frozen_row(toy):
    table = toy.family.prob_table(toy.theta_star)
    assert table.shape == (8, 8)
    np.testing.assert_allclose(table.sum(axis=1), np.ones(8), atol=1e-12)
    # [DERIVED] row alpha=3 at theta*=pi/4 from the cosine formula by hand.
    np.testing.assert_allclose(
        table[2],
        [
            0.06542625368503335, 0.040749999999999995, 0.06542625368503338, 0.125,
            0.18457374631496665, 0.20925, 0.18457374631496662, 0.125,
        ],
        atol=1e-14,
    )


def test_toy_fisher_closed_form_samples(toy):
    # Full-grid agreement is the acceptance cross-check; spot-check here.
    for theta in (math.pi / 8, math.pi / 4, 3 * math.pi / 8):
        for c in (0, 3, 7):
            generic = fisher_information(toy.family, [theta])[c, 0, 0]
            closed = toy.fisher_closed_form(theta, c)
            assert generic == pytest.approx(closed, abs=1e-10)


def test_toy_fisher_frozen_at_theta_star(toy):
    got = [toy.fisher_closed_form(math.pi / 4, c) for c in range(8)]
    np.testing.assert_allclose(
        got,
        [
            0.26051502658689396, 1.0420601063475758, 2.344635239282045,
            4.168240425390303, 6.5128756646723485, 9.378540957128182,
            12.765236302757803, 16.672961701561213,
        ],
        atol=1e-12,
    )


def test_toy_min_kl_frozen(toy):
    kl = kl_matrix(toy.family, toy.theta_star)
    off = kl[~np.eye(8, dtype=bool)]
    assert float(off.min()) == pytest.approx(0.07656525272849174, abs=1e-12)
    assert np.all(off > 0)


def test_toy_identifiability_split(toy):
    """The full display box contains exact component collisions; the default
    estimation box does not."""
    box, est_box = toy.family.box, toy.estimation_box
    full = check_identifiability(toy.family, np.linspace(box.lower, box.upper, 257), tol=1e-9)
    assert not full.passed
    est = check_identifiability(toy.family, np.linspace(est_box.lower, est_box.upper, 257), tol=1e-9)
    assert est.passed
    assert toy.search_box() is toy.estimation_box
    # theta* sits strictly inside the estimation box.
    assert toy.estimation_box.is_interior(toy.theta_star)


def test_toy_collision_is_exact(toy):
    """alpha*theta = alpha'*theta' produces identical outcome rows."""
    t1, t2 = math.pi / 4, math.pi / 8  # 2*t2 = t1: components 2k and k collide
    row_a = toy.family.prob_table([t2])[3]   # alpha = 4 at pi/8
    row_b = toy.family.prob_table([t1])[1]   # alpha = 2 at pi/4
    np.testing.assert_allclose(row_a, row_b, atol=1e-15)


def test_guerlin_variant_flags_alpha_zero():
    pre = toy_haroche_guerlin()
    assert pre.component_values[0] == 0
    box = pre.family.box
    report = check_identifiability(pre.family, np.linspace(box.lower, box.upper, 33), tol=1e-9)
    assert not report.passed
    # alpha = 0 is constant in theta, so it collides with itself across points.
    zero_pairs = [f for f in report.flagged if f[0][0] == 0 and f[1][0] == 0]
    assert zero_pairs


def test_qubit_preset(qubit):
    assert qubit.family.n_components == 2
    assert qubit.component_values == (1, 2)
    for theta in (0.55, 0.725, 0.9):
        for c in range(2):
            got = fisher_information(qubit.family, [theta])[c, 0, 0]
            assert got == pytest.approx((c + 1) ** 2, abs=1e-9)
    assert qubit.system is not None
    assert qubit.estimation_box is None
    assert qubit.search_box() is qubit.family.box


def test_qubit_custom_box():
    """The preset's rotation system with d = 3 on the box (0.3, 1.0), which
    holds no zero of the law, has Fisher information alpha^2 there too."""
    sys = QndSystem(generators=np.array([0.5, 1.0, 1.5])[:, None, None, None] * np.array([[0, 1], [1, 0]]),
                    probe=np.array([1.0, 0.0]))
    fam = as_family(sys, ParameterBox(np.array([0.3]), np.array([1.0])))
    assert fam.n_components == 3
    assert fisher_information(fam, [0.65])[2, 0, 0] == pytest.approx(9.0, abs=1e-9)


def test_full_variant_consistent_with_toy(toy):
    pre = toy_haroche_full()
    assert pre.family.dim == 6
    table_full = pre.family.prob_table(pre.theta_star)
    table_toy = toy.family.prob_table(toy.theta_star)
    np.testing.assert_allclose(table_full, table_toy, atol=1e-14)


# ---------------------------------------------------------------------------
# Stacked-theta tables: probs maps (..., D) to (..., d, l)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(PRESETS))
def test_stacked_tables_equal_single_point_tables(name):
    fam = get_preset(name).family
    for stack in (fam._validation_points(), np.linspace(fam.box.lower, fam.box.upper, 64)):
        tables = fam.prob_table(stack)
        assert tables.shape == (len(stack), fam.n_components, fam.n_outcomes)
        for t, table in zip(stack, tables):
            assert table.tobytes() == fam.prob_table(t).tobytes()


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_stacked_tables_refuse_a_row_outside_the_box(name):
    fam = get_preset(name).family
    stack = np.linspace(fam.box.lower, fam.box.upper, 5)
    stack[3] = fam.box.upper + 0.01
    with pytest.raises(DomainError, match=r"at stack index \(3,\)"):
        fam.prob_table(stack)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_probs_ignoring_the_stack_is_refused(name, monkeypatch):
    """A probs that returns one table for a whole stack has the wrong shape,
    at construction and, swapped into a built family, at evaluation; one whose
    stacked rows differ from its single-point tables is refused too."""
    fam = get_preset(name).family
    parts = (fam.box,)
    first_only = lambda t: fam.prob_table(t.reshape(-1, fam.dim)[0])
    with pytest.raises(ConstructionError, match="shape"):
        ParametricFamily(*parts, probs=first_only)
    swapped = PRESETS[name]().family
    monkeypatch.setattr(swapped, "_probs", first_only)
    with pytest.raises(ConstructionError, match="shape"):
        swapped.prob_table(np.linspace(fam.box.lower, fam.box.upper, 3))
    reversed_rows = lambda t: fam.prob_table(t) if t.ndim == 1 else fam.prob_table(t)[::-1]
    with pytest.raises(ConstructionError, match="differs"):
        ParametricFamily(*parts, probs=reversed_rows)


@pytest.mark.parametrize("name, n_probs", [
    ("qubit_rotation", 14), ("toy_haroche", 14), ("toy_haroche_guerlin", 14),
    ("toy_haroche_full", 69),
])
def test_construction_evaluates_probs_once_per_point(name, n_probs, monkeypatch):
    """Building a preset calls its one rule, the joint tables rule, once at
    the box center, once at each of the 9 (D = 1) or 49 (D = 6) validation
    points and once on their stack, then runs one finite-difference pass over
    the stack: 3 stacked calls per axis, as the box edges need a one-sided
    stencil."""
    calls = {"tables": 0, "fd": 0}
    init, fd = ParametricFamily.__init__, ParametricFamily._fd_dprob_table

    def counting_init(self, box, probs=None, tables=None):
        assert probs is None

        def counted(t):
            calls["tables"] += 1
            return tables(t)

        init(self, box, tables=counted)

    def counting_fd(self, t):
        calls["fd"] += 1
        return fd(self, t)

    monkeypatch.setattr(ParametricFamily, "__init__", counting_init)
    monkeypatch.setattr(ParametricFamily, "_fd_dprob_table", counting_fd)
    PRESETS[name]()
    assert calls == {"tables": n_probs, "fd": 1}


# ---------------------------------------------------------------------------
# Joint rules: tables maps (..., D) to (..., d, l) and (..., D, d, l)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(PRESETS))
def test_stacked_jacobians_equal_single_point_jacobians(name):
    fam = get_preset(name).family
    for stack in (fam._validation_points(), np.linspace(fam.box.lower, fam.box.upper, 64)):
        jacs = fam.tables(stack)[1]
        assert jacs.shape == (len(stack), fam.dim, fam.n_components, fam.n_outcomes)
        for t, jac in zip(stack, jacs):
            assert jac.tobytes() == fam.tables(t)[1].tobytes()


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_tables_ignoring_the_stack_is_refused(name, monkeypatch):
    """A joint rule that returns one pair for a whole stack has the wrong
    shape, at construction and, swapped into a built family, at evaluation;
    one whose stacked table or stacked Jacobian differs row by row from its
    single-point ones is refused too."""
    fam = get_preset(name).family
    parts = (fam.box,)
    first_only = lambda t: fam.tables(t.reshape(-1, fam.dim)[0])
    with pytest.raises(ConstructionError, match="tables returned shape"):
        ParametricFamily(*parts, tables=first_only)
    swapped = PRESETS[name]().family
    monkeypatch.setattr(swapped, "_tables", first_only)
    with pytest.raises(ConstructionError, match="tables returned shape"):
        swapped.tables(np.linspace(fam.box.lower, fam.box.upper, 3))
    for half in (0, 1):
        def reversed_rows(t, half=half):
            pair = list(fam.tables(t))
            if t.ndim > 1:
                pair[half] = pair[half][::-1]
            return tuple(pair)

        with pytest.raises(ConstructionError, match="tables on a stack of points differs"):
            ParametricFamily(*parts, tables=reversed_rows)


# The table and Jacobian rules the presets had before their joint rules,
# kept as the references their joint rules must reproduce bit for bit.

def reference_toy_table(alpha_values, t):
    phases = t[..., 0, None, None] * alpha_values[:, None] + (2 - np.arange(4)) * math.pi / 4
    cos = np.cos(phases)
    return np.concatenate([(1 + VISIBILITY * cos) / 8, (1 - VISIBILITY * cos) / 8], axis=-1)


def reference_toy_jacobian(alpha_values, t):
    phases = t[..., 0, None, None] * alpha_values[:, None] + (2 - np.arange(4)) * math.pi / 4
    sin = np.sin(phases) * alpha_values[:, None]
    return np.concatenate([-VISIBILITY * sin / 8, VISIBILITY * sin / 8], axis=-1)[..., None, :, :]


def reference_full_table(alpha_values, t):
    theta4, phases, vis = t[..., 0, None, None], t[..., None, 1:5], t[..., 5, None, None]
    cos = np.cos(alpha_values[:, None] * theta4 + phases)
    return np.concatenate([(1 + vis * cos) / 8, (1 - vis * cos) / 8], axis=-1)


def reference_full_jacobian(alpha_values, t):
    theta4, phases, vis = t[..., 0, None, None], t[..., None, 1:5], t[..., 5, None, None]
    arg = alpha_values[:, None] * theta4 + phases
    d_phase = -vis * np.sin(arg) / 8
    half = np.concatenate([
        (d_phase * alpha_values[:, None])[..., None, :, :],
        d_phase[..., None, :, :] * np.eye(4)[:, None, :],
        (np.cos(arg) / 8)[..., None, :, :],
    ], axis=-3)
    return np.concatenate([half, -half], axis=-1)


REFERENCE_RULES = {
    "toy_haroche": lambda pre, t: (reference_toy_table(np.arange(1.0, 9.0), t),
                                   reference_toy_jacobian(np.arange(1.0, 9.0), t)),
    "toy_haroche_guerlin": lambda pre, t: (reference_toy_table(np.arange(0.0, 8.0), t),
                                           reference_toy_jacobian(np.arange(0.0, 8.0), t)),
    "toy_haroche_full": lambda pre, t: (reference_full_table(np.arange(1.0, 9.0), t),
                                        reference_full_jacobian(np.arange(1.0, 9.0), t)),
    "qubit_rotation": lambda pre, t: (np.abs(_amplitudes(pre.system, t)) ** 2,
                                      reference_quantum_jacobian(pre.system, t)),
}


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_joint_rule_equals_probs_and_the_reference_jacobian(name):
    """Each built-in joint rule gives the reference probs table and Jacobian
    bit for bit, at one point and on stacks of one and two axes, and
    prob_table gives its table half."""
    pre = get_preset(name)
    fam = pre.family
    center = 0.5 * (fam.box.lower + fam.box.upper)
    stack = np.linspace(fam.box.lower, fam.box.upper, 24)
    for t in (center, fam.box.upper, stack[:1], stack, stack.reshape(4, 6, fam.dim)):
        p, dp = fam._tables(t)
        table, jacobian = REFERENCE_RULES[name](pre, t)
        assert p.shape == t.shape[:-1] + (fam.n_components, fam.n_outcomes)
        assert p.dtype == dp.dtype == table.dtype == jacobian.dtype == np.float64
        assert p.tobytes() == table.tobytes() == fam.prob_table(t).tobytes()
        assert dp.shape == jacobian.shape and dp.tobytes() == jacobian.tobytes()
