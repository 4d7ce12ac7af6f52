import math

import numpy as np
import pytest

from qndmix.errors import ConfigError, ConstructionError, DomainError
from qndmix.model import ParametricFamily, check_identifiability, fisher_information, kl_matrix
from qndmix.presets import (
    PRESETS,
    get_preset,
    poisson_like_weights,
    qubit_rotation,
    toy_haroche,
    toy_haroche_full,
    toy_haroche_guerlin,
)


def test_registry_contents():
    assert set(PRESETS) == {
        "toy_haroche", "toy_haroche_guerlin", "toy_haroche_full", "qubit_rotation",
    }
    for name in PRESETS:
        assert get_preset(name).name == name
    with pytest.raises(ConfigError):
        get_preset("nope")


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
    assert toy.family.alphabet.labels[:4] == ("x0a0", "x0a1", "x0a2", "x0a3")


def test_toy_fisher_closed_form_samples(toy):
    # Full-grid agreement is the acceptance cross-check; spot-check here.
    for theta in (math.pi / 8, math.pi / 4, 3 * math.pi / 8):
        for c in (0, 3, 7):
            generic = fisher_information(toy.family, [theta], c).scalar()
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
    full = check_identifiability(toy.family, toy.family.box.grid(257), tol=1e-9)
    assert not full.passed
    est = check_identifiability(toy.family, toy.estimation_box.grid(257), tol=1e-9)
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
    report = check_identifiability(pre.family, pre.family.box.grid(33), tol=1e-9)
    assert not report.passed
    # alpha = 0 is constant in theta, so it collides with itself across points.
    zero_pairs = [f for f in report.flagged if f[0][0] == 0 and f[1][0] == 0]
    assert zero_pairs


def test_qubit_preset(qubit):
    assert qubit.family.n_components == 2
    assert qubit.component_values == (1, 2)
    for theta in (0.55, 0.725, 0.9):
        for c in range(2):
            got = fisher_information(qubit.family, [theta], c).scalar()
            assert got == pytest.approx((c + 1) ** 2, abs=1e-9)
    assert qubit.system is not None
    assert qubit.estimation_box is None
    assert qubit.search_box() is qubit.family.box


def test_qubit_custom_box():
    pre = qubit_rotation(d=3, box=(0.3, 1.0))
    assert pre.theta_star[0] == pytest.approx(0.65)
    assert fisher_information(pre.family, [0.65], 2).scalar() == pytest.approx(9.0, abs=1e-9)


def test_full_variant_consistent_with_toy(toy):
    pre = toy_haroche_full()
    assert pre.family.dim == 6
    table_full = pre.family.prob_table(pre.theta_star)
    table_toy = toy.family.prob_table(toy.theta_star)
    np.testing.assert_allclose(table_full, table_toy, atol=1e-14)


def test_full_variant_ideal_visibility_stays_valid():
    pre = toy_haroche_full(ideal_visibility=True)
    assert pre.family.box.upper[-1] <= 0.99
    table = pre.family.prob_table(pre.theta_star)
    assert np.all(table > 0) and np.all(table < 1)


# ---------------------------------------------------------------------------
# Stacked-theta tables: probs maps (..., D) to (..., d, l)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(PRESETS))
def test_stacked_tables_equal_single_point_tables(name):
    fam = get_preset(name).family
    for stack in (fam._validation_points(), fam.box.grid(64)):
        tables = fam.prob_table(stack)
        assert tables.shape == (len(stack), fam.n_components, fam.n_outcomes)
        for t, table in zip(stack, tables):
            assert table.tobytes() == fam.prob_table(t).tobytes()


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_stacked_tables_refuse_a_row_outside_the_box(name):
    fam = get_preset(name).family
    stack = fam.box.grid(5)
    stack[3] = fam.box.upper + 0.01
    with pytest.raises(DomainError, match=r"at stack index \(3,\)"):
        fam.prob_table(stack)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_probs_ignoring_the_stack_is_refused(name):
    """A probs that returns one table for a whole stack has the wrong shape;
    one whose stacked rows differ from its single-point tables is refused too."""
    fam = get_preset(name).family
    parts = (fam.alphabet, fam.components, fam.box)
    first_only = lambda t: fam.prob_table(t.reshape(-1, fam.dim)[0])
    with pytest.raises(ConstructionError, match="shape"):
        ParametricFamily(*parts, probs=first_only)
    with pytest.raises(ConstructionError, match="shape"):
        ParametricFamily(*parts, probs=first_only, validate=False).prob_table(fam.box.grid(3))
    reversed_rows = lambda t: fam.prob_table(t) if t.ndim == 1 else fam.prob_table(t)[::-1]
    with pytest.raises(ConstructionError, match="differs"):
        ParametricFamily(*parts, probs=reversed_rows)


# ---------------------------------------------------------------------------
# Stacked-theta Jacobians: dprobs maps (..., D) to (..., D, d, l)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(PRESETS))
def test_stacked_jacobians_equal_single_point_jacobians(name):
    fam = get_preset(name).family
    for stack in (fam._validation_points(), fam.box.grid(64)):
        jacs = fam.dprob_table(stack)
        assert jacs.shape == (len(stack), fam.dim, fam.n_components, fam.n_outcomes)
        for t, jac in zip(stack, jacs):
            assert jac.tobytes() == fam.dprob_table(t).tobytes()


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_dprobs_ignoring_the_stack_is_refused(name):
    """A dprobs that returns one Jacobian for a whole stack has the wrong shape;
    one whose stacked rows differ from its single-point Jacobians is refused too."""
    fam = get_preset(name).family
    parts = (fam.alphabet, fam.components, fam.box)
    first_only = lambda t: fam.dprob_table(t.reshape(-1, fam.dim)[0])
    with pytest.raises(ConstructionError, match="dprobs returned shape"):
        ParametricFamily(*parts, probs=fam.prob_table, dprobs=first_only)
    with pytest.raises(ConstructionError, match="dprobs returned shape"):
        ParametricFamily(
            *parts, probs=fam.prob_table, dprobs=first_only, validate=False
        ).dprob_table(fam.box.grid(3))
    reversed_rows = lambda t: fam.dprob_table(t) if t.ndim == 1 else fam.dprob_table(t)[::-1]
    with pytest.raises(ConstructionError, match="dprobs on a stack of points differs"):
        ParametricFamily(*parts, probs=fam.prob_table, dprobs=reversed_rows)
