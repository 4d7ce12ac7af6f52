import math

import numpy as np
import pytest

from qndmix.errors import CapabilityError, ConstructionError, DomainError
from qndmix.model import (
    Alphabet,
    ComponentSet,
    InfoMatrix,
    MixtureWeights,
    ParameterBox,
    ParametricFamily,
    check_identifiability,
    fisher_information,
    kl_divergence,
    kl_matrix,
    shannon_entropy,
)


# ---------------------------------------------------------------------------
# Containers
# ---------------------------------------------------------------------------

def test_alphabet_requires_two_outcomes():
    with pytest.raises(ConstructionError):
        Alphabet(size=1)


def test_alphabet_default_and_custom_labels():
    assert Alphabet(size=3).labels == ("j0", "j1", "j2")
    assert Alphabet(size=2, labels=("up", "down")).labels == ("up", "down")
    with pytest.raises(ConstructionError):
        Alphabet(size=2, labels=("same", "same"))


def test_component_set_nonempty():
    with pytest.raises(ConstructionError):
        ComponentSet(size=0)
    assert ComponentSet(size=2).labels == ("a0", "a1")


def test_box_validation():
    with pytest.raises(ConstructionError):
        ParameterBox(np.array([1.0]), np.array([1.0]))
    with pytest.raises(ConstructionError):
        ParameterBox(np.array([0.0, 0.0]), np.array([1.0]))


def test_box_membership_and_clip():
    box = ParameterBox(np.array([0.0]), np.array([1.0]))
    assert box.contains([0.5])
    assert box.contains([1.0])
    assert not box.contains([1.1])
    assert box.is_interior([0.5])
    assert not box.is_interior([0.0])
    assert box.clip([2.0]) == pytest.approx([1.0])
    with pytest.raises(DomainError):
        box.require([1.5])
    grid = box.grid(5)
    assert grid.shape == (5, 1)
    assert grid[0, 0] == 0.0 and grid[-1, 0] == 1.0


def test_box_require_checks_every_row_of_a_stack():
    box = ParameterBox(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
    stack = np.full((2, 3, 2), 0.5)
    assert box.require(stack).shape == (2, 3, 2)
    stack[1, 0, 1] = 1.5
    stack[1, 2, 0] = -1.0
    with pytest.raises(DomainError, match=r"theta \[0.5 1.5\] at stack index \(1, 0\)"):
        box.require(stack)
    with pytest.raises(DomainError):
        box.require(np.full((3, 1), 0.5))   # rows must end in the box dimension


def test_weights_validation():
    with pytest.raises(ConstructionError):
        MixtureWeights(np.array([0.5, 0.5, 0.1]))
    with pytest.raises(ConstructionError):
        MixtureWeights(np.array([1.2, -0.2]))
    q = MixtureWeights.normalized([2.0, 6.0])
    assert q.q == pytest.approx([0.25, 0.75])
    assert q.log() == pytest.approx(np.log([0.25, 0.75]))


def test_weights_refuse_nan():
    with pytest.raises(ConstructionError, match="non-finite"):
        MixtureWeights(np.array([np.nan, np.nan]))


def test_weights_are_immutable():
    q = MixtureWeights.normalized([1.0, 1.0])
    with pytest.raises(ValueError):
        q.q[0] = 0.9


# ---------------------------------------------------------------------------
# Family construction gates
# ---------------------------------------------------------------------------

def _simple_parts():
    return Alphabet(size=2), ComponentSet(size=1), ParameterBox(np.array([0.2]), np.array([0.8]))


def test_family_rejects_bad_row_sum():
    alphabet, components, box = _simple_parts()
    with pytest.raises(ConstructionError, match="sums to"):
        ParametricFamily(alphabet, components, box, probs=lambda t: np.array([[0.5, 0.4]]))


def test_family_rejects_boundary_probabilities():
    alphabet, components, box = _simple_parts()
    with pytest.raises(ConstructionError, match="strict"):
        ParametricFamily(alphabet, components, box, probs=lambda t: np.array([[0.0, 1.0]]))


def test_family_rejects_inconsistent_gradient():
    alphabet, components, box = _simple_parts()
    with pytest.raises(ConstructionError, match="finite differences"):
        ParametricFamily(
            alphabet,
            components,
            box,
            probs=lambda t: np.array([[t[0], 1.0 - t[0]]]),
            dprobs=lambda t: np.array([[[2.0, -2.0]]]),  # off by a factor of 2
        )


def test_family_rejects_bad_shape():
    alphabet, components, box = _simple_parts()
    with pytest.raises(ConstructionError, match="shape"):
        ParametricFamily(alphabet, components, box, probs=lambda t: np.array([0.5, 0.5]))


def test_family_unknown_regularity():
    alphabet, components, box = _simple_parts()
    with pytest.raises(ConstructionError):
        ParametricFamily(
            alphabet, components, box,
            probs=lambda t: np.array([[t[0], 1.0 - t[0]]]),
            regularity="smooth-ish",
        )


def test_continuous_family_refuses_derivatives():
    alphabet, components, box = _simple_parts()
    fam = ParametricFamily(
        alphabet, components, box,
        probs=lambda t: np.stack([t, 1.0 - t], axis=-1),
        regularity="continuous",
    )
    with pytest.raises(CapabilityError):
        fam.dprob_table([0.5])
    with pytest.raises(CapabilityError):
        fisher_information(fam, [0.5], 0)


def _fd_bernoulli_pair():
    return ParametricFamily(
        Alphabet(size=2), ComponentSet(size=2),
        ParameterBox(np.array([0.2]), np.array([0.8])),
        probs=lambda t: np.concatenate(
            [t[..., None] * [[1.0], [0.5]], 1.0 - t[..., None] * [[1.0], [0.5]]], axis=-1
        ),
        regularity="C1",
    )


def test_fd_fallback_matches_analytic(bernoulli_pair):
    """Without dprobs the family falls back to finite differences."""
    fd_fam = _fd_bernoulli_pair()
    theta = [0.37]
    assert fd_fam.derivatives_are_numeric()
    assert not bernoulli_pair.derivatives_are_numeric()
    np.testing.assert_allclose(
        fd_fam.dprob_table(theta), bernoulli_pair.dprob_table(theta), atol=1e-9
    )


def test_fd_step_shrinks_at_boundary(bernoulli_pair):
    # Both stencil points must stay inside the box even at its edge.
    jac = _fd_bernoulli_pair().dprob_table([0.8])
    np.testing.assert_allclose(jac, bernoulli_pair.dprob_table([0.8]), atol=1e-6)


def test_fd_fallback_on_a_stack_equals_the_single_point_fallback():
    """Rows within one step of either box edge take the one-sided stencils."""
    fam = _fd_bernoulli_pair()
    step = 1e-5 * 1.8
    stack = np.array([[0.2], [0.2 + 0.5 * step], [0.37], [0.8 - 0.5 * step], [0.8]])
    jacs = fam.dprob_table(stack)
    assert jacs.shape == (5, 1, 2, 2)
    for t, jac in zip(stack, jacs):
        np.testing.assert_array_equal(jac, fam.dprob_table(t))
    np.testing.assert_allclose(jacs, np.broadcast_to([[[1.0, -1.0], [0.5, -0.5]]], jacs.shape),
                               atol=1e-9)


def test_fd_fallback_on_a_two_parameter_stack():
    """D = 2: each axis picks its own stencil per row, and the stacked fallback
    equals the single-point one row by row."""
    box = ParameterBox(np.array([0.1, 0.1]), np.array([0.4, 0.4]))

    def probs(t):
        a, b = t[..., 0], t[..., 1]
        row = np.stack([a * b, a * (1.0 - b), 1.0 - a], axis=-1)
        return np.stack([row, row[..., ::-1]], axis=-2)

    fam = ParametricFamily(Alphabet(size=3), ComponentSet(size=2), box, probs=probs)
    stack = np.array([[0.1, 0.4], [0.25, 0.1 + 1e-6], [0.4 - 1e-6, 0.3]])
    jacs = fam.dprob_table(stack)
    for t, jac in zip(stack, jacs):
        np.testing.assert_array_equal(jac, fam.dprob_table(t))
        a, b = t
        da = np.array([b, 1.0 - b, -1.0])
        db = np.array([a, -a, 0.0])
        np.testing.assert_allclose(jac[0], [da, da[::-1]], atol=1e-9)
        np.testing.assert_allclose(jac[1], [db, db[::-1]], atol=1e-9)


def test_prob_accessors(bernoulli_pair):
    table = bernoulli_pair.prob_table([0.4])
    np.testing.assert_allclose(table, [[0.4, 0.6], [0.2, 0.8]])
    assert bernoulli_pair.prob([0.4], 1, 0) == pytest.approx(0.2)
    np.testing.assert_allclose(bernoulli_pair.log_prob_table([0.4]), np.log(table))
    with pytest.raises(DomainError):
        bernoulli_pair.prob_table([0.9])


# ---------------------------------------------------------------------------
# Information functionals
# ---------------------------------------------------------------------------

def test_entropy_uniform_and_frozen_value(bernoulli_pair):
    # [DERIVED] H(0.6, 0.4) computed by hand from -sum p ln p.
    assert shannon_entropy(bernoulli_pair, [0.6], 0) == pytest.approx(
        0.6730116670092565, abs=1e-14
    )
    # Uniform distribution over l outcomes has entropy ln l.
    assert shannon_entropy(bernoulli_pair, [0.5], 0) == pytest.approx(math.log(2))


def test_kl_frozen_value(bernoulli_pair):
    # [DERIVED] KL((0.6,0.4) || (0.5,0.5)) = 0.6 ln(6/5) + 0.4 ln(4/5).
    got = kl_divergence(bernoulli_pair, [0.6], [0.5], 0, 0)
    assert got == pytest.approx(0.020135513550688863, abs=1e-14)


def test_kl_zero_iff_equal(bernoulli_pair):
    assert kl_divergence(bernoulli_pair, [0.6], [0.6], 0, 0) == 0.0
    # Component 1 at 2*theta emits the same distribution as component 0 at theta.
    assert kl_divergence(bernoulli_pair, [0.3], [0.6], 0, 1) == pytest.approx(0.0, abs=1e-15)
    assert kl_divergence(bernoulli_pair, [0.3], [0.5], 0, 1) > 0.0


def test_kl_nonnegative_grid(bernoulli_pair):
    for t1 in (0.25, 0.5, 0.75):
        for t2 in (0.25, 0.5, 0.75):
            for a in (0, 1):
                for b in (0, 1):
                    v = kl_divergence(bernoulli_pair, [t1], [t2], a, b)
                    assert v >= -1e-15
                    if a == b and t1 == t2:
                        assert v == 0.0


def test_kl_matrix_matches_pairwise(bernoulli_pair):
    m = kl_matrix(bernoulli_pair, [0.6])
    assert m.shape == (2, 2)
    assert m[0, 0] == 0.0 and m[1, 1] == 0.0
    assert m[0, 1] == pytest.approx(kl_divergence(bernoulli_pair, [0.6], [0.6], 0, 1))
    assert m[1, 0] == pytest.approx(kl_divergence(bernoulli_pair, [0.6], [0.6], 1, 0))
    assert m[0, 1] > 0 and m[1, 0] > 0


def test_fisher_bernoulli_closed_form(bernoulli_pair):
    # Component 0 is Bernoulli(theta): I = 1/(theta(1-theta)).
    for theta in (0.3, 0.5, 0.7):
        got = fisher_information(bernoulli_pair, [theta], 0).scalar()
        assert got == pytest.approx(1.0 / (theta * (1 - theta)), rel=1e-12)
    # Component 1 is Bernoulli(theta/2) with dp/dtheta = 1/2.
    theta = 0.6
    p = theta / 2
    expect = 0.25 / (p * (1 - p))
    assert fisher_information(bernoulli_pair, [theta], 1).scalar() == pytest.approx(
        expect, rel=1e-12
    )


def test_info_matrix_validation():
    with pytest.raises(ConstructionError):
        InfoMatrix(m=np.array([[1.0, 0.5], [0.0, 1.0]]), component=0, theta=np.zeros(2))
    with pytest.raises(ConstructionError):
        InfoMatrix(m=np.array([[-1.0]]), component=0, theta=np.zeros(1))
    im = InfoMatrix(m=np.array([[2.0]]), component=0, theta=np.zeros(1))
    assert im.scalar() == 2.0
    with pytest.raises(ValueError):
        InfoMatrix(m=np.eye(2), component=0, theta=np.zeros(2)).scalar()


# ---------------------------------------------------------------------------
# Identifiability scan
# ---------------------------------------------------------------------------

def test_identifiability_clean_on_separated_family(bernoulli_pair):
    # On [0.55, 0.75] the two emission ranges cannot overlap: component 0
    # emits outcome 0 with prob >= 0.55, component 1 with prob <= 0.375.
    grid = [[x] for x in np.linspace(0.55, 0.75, 11)]
    report = check_identifiability(bernoulli_pair, grid)
    assert report.passed
    assert report.min_margin > 1e-3
    assert report.n_points == 11


def test_identifiability_flags_twin_collision(bernoulli_pair):
    # Component 1 at 2*theta duplicates component 0 at theta.
    report = check_identifiability(bernoulli_pair, [[0.3], [0.6]])
    assert not report.passed
    assert any({p[0][0], p[1][0]} == {0, 1} for p in report.flagged)


def test_identifiability_flags_duplicate_components():
    def probs(t):
        x = np.stack([t, 1.0 - t], axis=-1)
        return np.concatenate([x, x], axis=-2)  # identical components

    fam = ParametricFamily(
        Alphabet(size=2), ComponentSet(size=2),
        ParameterBox(np.array([0.2]), np.array([0.8])),
        probs=probs, regularity="C1",
    )
    report = check_identifiability(fam, [[0.5]])
    assert not report.passed
    (pair_a, pair_b, margin), = report.flagged
    assert margin == 0.0
    assert {pair_a, pair_b} == {(0, 0), (1, 0)}


def test_identifiability_empty_grid(bernoulli_pair):
    with pytest.raises(DomainError):
        check_identifiability(bernoulli_pair, [])
