
import numpy as np
import pytest

from qndmix.errors import ConstructionError, DomainError
from qndmix.model import (
    MixtureWeights,
    ParameterBox,
    ParametricFamily,
    check_identifiability,
    fisher_information,
    kl_divergence,
    kl_matrix,
)
from qndmix.presets import get_preset


# ---------------------------------------------------------------------------
# Containers
# ---------------------------------------------------------------------------

def test_box_validation():
    with pytest.raises(ConstructionError):
        ParameterBox(np.array([1.0]), np.array([1.0]))
    with pytest.raises(ConstructionError):
        ParameterBox(np.array([0.0, 0.0]), np.array([1.0]))


def test_box_membership():
    box = ParameterBox(np.array([0.0]), np.array([1.0]))
    assert box.contains([0.5])
    assert box.contains([1.0])
    assert not box.contains([1.1])
    assert box.is_interior([0.5])
    assert not box.is_interior([0.0])
    assert not box.is_interior([0.5, 0.5])
    with pytest.raises(DomainError):
        box.require([1.5])


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


def reference_require(box, theta):
    """ParameterBox.require as it was before its one-pass check: the edges
    widened by 1e-12 at each call and the rows tested one by one."""
    t = np.atleast_1d(np.asarray(theta, dtype=float))
    if t.shape[-1:] != box.lower.shape:
        raise DomainError(f"theta {t} outside parameter box [{box.lower}, {box.upper}]")
    inside = np.all((t >= box.lower - 1e-12) & (t <= box.upper + 1e-12), axis=-1)
    if not np.all(inside):
        row = tuple(np.argwhere(~inside)[0].tolist())
        where = f" at stack index {row}" if row else ""
        raise DomainError(f"theta {t[row]}{where} outside parameter box [{box.lower}, {box.upper}]")
    return t


def reference_contains(box, theta, atol=0.0):
    t = np.atleast_1d(np.asarray(theta, dtype=float))
    if t.shape != box.lower.shape:
        return False
    return bool(np.all(t >= box.lower - atol) & np.all(t <= box.upper + atol))


def reference_is_interior(box, theta):
    t = np.atleast_1d(np.asarray(theta, dtype=float))
    return t.shape == box.lower.shape and bool(np.all(t > box.lower) and np.all(t < box.upper))


def _require_outcome(require, theta):
    """The array require returns, or the message of the DomainError it raises."""
    try:
        return require(theta)
    except DomainError as exc:
        return str(exc)


def _edge_values(lo, hi):
    """Each edge, 1e-12 and 2e-12 to either side of it, the midpoint, nan and ±inf."""
    steps = (-2e-12, -1e-12, 0.0, 1e-12, 2e-12)
    return [lo + s for s in steps] + [hi + s for s in steps] + [0.5 * (lo + hi), np.nan, np.inf, -np.inf]


@pytest.mark.parametrize("lower, upper", [([0.7333981633974482], [0.8373981633974482]),
                                          ([0.2, -1.0], [0.8, 3.0])])
def test_box_checks_equal_the_reference_checks(lower, upper):
    """require, contains and is_interior accept and refuse the points the
    row-by-row reference does, with the same returned array or message: every
    edge ±1e-12 and ±2e-12, nan and ±inf in every coordinate, (m, D) and
    (a, b, D) stacks with one row outside at each place, and a wrong last axis."""
    box = ParameterBox(np.array(lower), np.array(upper))
    dim = len(lower)
    axes = [_edge_values(lo, hi) for lo, hi in zip(lower, upper)]
    points = np.array(np.meshgrid(*axes, indexing="ij")).reshape(dim, -1).T
    refused = 0
    for theta in [*points, *points.tolist()]:
        got, want = _require_outcome(box.require, theta), _require_outcome(lambda t: reference_require(box, t), theta)
        if isinstance(want, str):
            refused += 1
            assert got == want
        else:
            np.testing.assert_array_equal(got, want)
        for atol in (0.0, 1e-12):
            assert box.contains(theta, atol=atol) == reference_contains(box, theta, atol=atol)
        assert box.is_interior(theta) == reference_is_interior(box, theta)
    assert 0 < refused < len(points) * 2
    inside = points[[reference_contains(box, t, atol=1e-12) for t in points]]
    outside = points[[not reference_contains(box, t, atol=1e-12) for t in points]]
    assert len(inside) % 3 == 0   # reshaped to (3, b, D) stacks below
    for bad in outside[:: max(1, len(outside) // 7)]:
        for k in range(len(inside)):
            stack = inside.copy()
            stack[k] = bad
            for shaped in (stack, stack.reshape(3, -1, dim)):
                assert _require_outcome(box.require, shaped) == _require_outcome(
                    lambda t: reference_require(box, t), shaped)
    np.testing.assert_array_equal(box.require(inside), reference_require(box, inside))
    for wrong in (np.full(dim + 1, 0.5), np.full((3, dim + 1), 0.5), np.zeros((2, 0))):
        assert _require_outcome(box.require, wrong) == _require_outcome(lambda t: reference_require(box, t), wrong)
        assert isinstance(_require_outcome(box.require, wrong), str)
        assert box.contains(wrong) is reference_contains(box, wrong) is False
        assert box.is_interior(wrong) is reference_is_interior(box, wrong) is False


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


@pytest.mark.parametrize("name", ["toy_haroche", "toy_haroche_guerlin", "toy_haroche_full", "qubit_rotation"])
def test_weights_draw_equals_generator_choice(name):
    """The inverse-cdf draw from the stored cdf equals rng.choice(d, size,
    p=q), the draw it replaces: the same values and dtype, and the generator
    left in the same state, at every size.  The cdf is read-only."""
    q = get_preset(name).q
    assert not q.cdf.flags.writeable
    for seed in range(200):
        for size in (None, 0, 1, 5, 150, 2000):
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got, want = q.draw(got_rng, size), want_rng.choice(q.size, size, p=q.q)
            if size is None:
                assert int(got) == want
            else:
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()
            assert got_rng.bit_generator.state == want_rng.bit_generator.state


class _Uniforms:
    """A stand-in generator whose random(size) returns the given values."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def random(self, size=None):
        return self.values if size is not None else float(self.values[0])


def test_weights_draw_at_a_cdf_entry_takes_the_next_component():
    """A uniform equal to cdf[k] draws component k + 1, as choice's
    searchsorted(side="right") does; 0 draws component 0."""
    q = MixtureWeights(np.array([0.25, 0.5, 0.25]))
    np.testing.assert_array_equal(q.draw(_Uniforms([0.0, *q.cdf[:-1]]), 3), [0, 1, 2])
    assert q.draw(_Uniforms([0.25]), None) == 1


# ---------------------------------------------------------------------------
# Family construction gates
# ---------------------------------------------------------------------------

def _simple_box():
    return ParameterBox(np.array([0.2]), np.array([0.8]))


def test_family_sizes_are_the_table_shape(toy, qubit):
    """d and l are the shape of the table at the box center; a 1-D table, a
    table with no row and a table with one outcome are refused."""
    for table in (np.array([0.5, 0.5]), np.empty((0, 2)), np.ones((2, 1))):
        with pytest.raises(ConstructionError, match="shape"):
            ParametricFamily(_simple_box(), probs=lambda t: table)
    for preset, shape in ((toy, (8, 8)), (qubit, (2, 2))):
        fam = preset.family
        assert (fam.n_components, fam.n_outcomes) == shape


def test_family_rejects_bad_row_sum():
    box = _simple_box()
    with pytest.raises(ConstructionError, match="sums to"):
        ParametricFamily(box, probs=lambda t: np.array([[0.5, 0.4]]))


def test_family_rejects_boundary_probabilities():
    box = _simple_box()
    with pytest.raises(ConstructionError, match="strict"):
        ParametricFamily(box, probs=lambda t: np.array([[0.0, 1.0]]))


def test_family_rejects_inconsistent_gradient():
    box = _simple_box()

    def tables(t):
        # The Jacobian is off by a factor of 2.
        return np.stack([t, 1.0 - t], axis=-1), 2.0 * np.stack([t**0, -(t**0)], axis=-1)[..., None, :, :]

    with pytest.raises(ConstructionError, match="finite differences"):
        ParametricFamily(box, tables=tables)


def test_family_takes_exactly_one_rule(bernoulli_pair):
    """A family is built from probs or from tables: both, or neither, is refused."""
    one_rule = "a family takes exactly one rule"
    with pytest.raises(ConstructionError, match=one_rule):
        ParametricFamily(_simple_box())
    with pytest.raises(ConstructionError, match=one_rule):
        ParametricFamily(_simple_box(), probs=bernoulli_pair.prob_table, tables=bernoulli_pair.tables)


@pytest.mark.parametrize("defect, message", [
    ("non-finite", "non-finite probability"),
    ("boundary", "probability p(j=0|alpha=0) = 0.0"),
    ("row sum", "distribution for alpha=0 sums to 0.9"),
    ("gradient", "analytic gradient inconsistent with finite differences"),
])
def test_defect_away_from_the_center_is_named_by_its_theta(defect, message):
    """A Bernoulli family on [0.2, 0.8], clean at the center 0.5 and broken
    above 0.7: the first broken validation point, 0.725, is named."""

    def broken(t):
        return (t[..., 0] > 0.7)[..., None, None]

    def probs(t):
        p = np.stack([t, 1.0 - t], axis=-1)                          # (..., 1, 2)
        bad = {"non-finite": np.nan, "boundary": [0.0, 1.0], "row sum": 0.9 * p}
        return np.where(broken(t), bad.get(defect, p), p)

    def tables(t):
        scale = np.where(broken(t), 2.0, 1.0) if defect == "gradient" else 1.0
        return probs(t), (scale * np.stack([t**0, -(t**0)], axis=-1))[..., None, :, :]

    with pytest.raises(ConstructionError) as err:
        ParametricFamily(_simple_box(), tables=tables)
    assert message in str(err.value)
    assert f"theta={np.linspace(0.2, 0.8, 9)[7:8]}" in str(err.value)


def test_family_rejects_bad_shape():
    """Every validation point must give a table of the center's shape."""

    def off_center(t):
        return np.full((1, 2), 0.5) if np.allclose(t, 0.5) else np.full((1, 3), 1.0 / 3.0)

    with pytest.raises(ConstructionError, match=r"shape \(1, 3\) .*\(1, 2\) at the box center"):
        ParametricFamily(_simple_box(), probs=off_center)


def _fd_bernoulli_pair():
    return ParametricFamily(
        ParameterBox(np.array([0.2]), np.array([0.8])),
        probs=lambda t: np.concatenate(
            [t[..., None] * [[1.0], [0.5]], 1.0 - t[..., None] * [[1.0], [0.5]]], axis=-1
        ),
    )


def test_fd_fallback_matches_analytic(bernoulli_pair):
    """Without a joint tables rule the family falls back to finite differences."""
    fd_fam = _fd_bernoulli_pair()
    theta = [0.37]
    np.testing.assert_allclose(
        fd_fam.tables(theta)[1], bernoulli_pair.tables(theta)[1], atol=1e-9
    )


def test_fd_step_shrinks_at_boundary(bernoulli_pair):
    # Both stencil points must stay inside the box even at its edge.
    jac = _fd_bernoulli_pair().tables([0.8])[1]
    np.testing.assert_allclose(jac, bernoulli_pair.tables([0.8])[1], atol=1e-6)


def test_fd_fallback_on_a_stack_equals_the_single_point_fallback():
    """Rows within one step of either box edge take the one-sided stencils."""
    fam = _fd_bernoulli_pair()
    step = 1e-5 * 1.8
    stack = np.array([[0.2], [0.2 + 0.5 * step], [0.37], [0.8 - 0.5 * step], [0.8]])
    jacs = fam.tables(stack)[1]
    assert jacs.shape == (5, 1, 2, 2)
    for t, jac in zip(stack, jacs):
        np.testing.assert_array_equal(jac, fam.tables(t)[1])
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

    fam = ParametricFamily(box, probs=probs)
    stack = np.array([[0.1, 0.4], [0.25, 0.1 + 1e-6], [0.4 - 1e-6, 0.3]])
    jacs = fam.tables(stack)[1]
    for t, jac in zip(stack, jacs):
        np.testing.assert_array_equal(jac, fam.tables(t)[1])
        a, b = t
        da = np.array([b, 1.0 - b, -1.0])
        db = np.array([a, -a, 0.0])
        np.testing.assert_allclose(jac[0], [da, da[::-1]], atol=1e-9)
        np.testing.assert_allclose(jac[1], [db, db[::-1]], atol=1e-9)


def test_prob_accessors(bernoulli_pair):
    table = bernoulli_pair.prob_table([0.4])
    np.testing.assert_allclose(table, [[0.4, 0.6], [0.2, 0.8]])
    np.testing.assert_allclose(bernoulli_pair.log_prob_table([0.4]), np.log(table))
    with pytest.raises(DomainError):
        bernoulli_pair.prob_table([0.9])


# ---------------------------------------------------------------------------
# Information functionals
# ---------------------------------------------------------------------------

def test_kl_frozen_value(bernoulli_pair):
    # [DERIVED] KL((0.6,0.4) || (0.5,0.5)) = 0.6 ln(6/5) + 0.4 ln(4/5).
    got = kl_divergence(bernoulli_pair, [0.6], [0.5])[0, 0]
    assert got == pytest.approx(0.020135513550688863, abs=1e-14)


def test_kl_zero_iff_equal(bernoulli_pair):
    assert kl_divergence(bernoulli_pair, [0.6], [0.6])[0, 0] == 0.0
    # Component 1 at 2*theta emits the same distribution as component 0 at theta.
    assert kl_divergence(bernoulli_pair, [0.3], [0.6])[0, 1] == pytest.approx(0.0, abs=1e-15)
    assert kl_divergence(bernoulli_pair, [0.3], [0.5])[0, 1] > 0.0


def test_kl_nonnegative_grid(bernoulli_pair):
    for t1 in (0.25, 0.5, 0.75):
        for t2 in (0.25, 0.5, 0.75):
            m = kl_divergence(bernoulli_pair, [t1], [t2])
            assert m.shape == (2, 2)
            assert np.all(m >= -1e-15)
            if t1 == t2:
                assert np.all(np.diag(m) == 0.0)


def test_kl_matrix_matches_pairwise(bernoulli_pair):
    m = kl_matrix(bernoulli_pair, [0.6])
    assert m.shape == (2, 2)
    assert m[0, 0] == 0.0 and m[1, 1] == 0.0
    pairwise = kl_divergence(bernoulli_pair, [0.6], [0.6])
    assert m[0, 1] == pairwise[0, 1] and m[1, 0] == pairwise[1, 0]
    assert m[0, 1] > 0 and m[1, 0] > 0


@pytest.mark.parametrize("name", ["toy_haroche", "qubit_rotation", "toy_haroche_full"])
def test_kl_matrix_reads_one_table(name, monkeypatch):
    """kl_matrix evaluates the table once and equals kl_divergence(theta,
    theta) bit for bit off its zero diagonal."""
    pre = get_preset(name)
    fam = pre.family
    want = kl_divergence(fam, pre.theta_star, pre.theta_star)
    calls, prob_table = [], fam.prob_table
    monkeypatch.setattr(fam, "prob_table", lambda theta: calls.append(theta) or prob_table(theta))
    got = kl_matrix(fam, pre.theta_star)
    assert len(calls) == 1
    off = ~np.eye(fam.n_components, dtype=bool)
    assert got[off].tobytes() == want[off].tobytes()
    assert np.all(np.diag(got) == 0.0)


def test_fisher_bernoulli_closed_form(bernoulli_pair):
    # Component 0 is Bernoulli(theta): I = 1/(theta(1-theta)).
    for theta in (0.3, 0.5, 0.7):
        got = fisher_information(bernoulli_pair, [theta])[0, 0, 0]
        assert got == pytest.approx(1.0 / (theta * (1 - theta)), rel=1e-12)
    # Component 1 is Bernoulli(theta/2) with dp/dtheta = 1/2.
    theta = 0.6
    p = theta / 2
    expect = 0.25 / (p * (1 - p))
    stack = fisher_information(bernoulli_pair, [theta])
    assert stack.shape == (2, 1, 1)
    assert stack[1, 0, 0] == pytest.approx(expect, rel=1e-12)


def test_fisher_refuses_a_stack_of_points(toy):
    with pytest.raises(DomainError, match=r"one parameter point, got theta of shape \(2, 1\)"):
        fisher_information(toy.family, [[0.7], [0.8]])


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
        ParameterBox(np.array([0.2]), np.array([0.8])),
        probs=probs,
    )
    report = check_identifiability(fam, [[0.5]])
    assert not report.passed
    (pair_a, pair_b, margin), = report.flagged
    assert margin == 0.0
    assert {pair_a, pair_b} == {(0, 0), (1, 0)}


def test_identifiability_empty_grid(bernoulli_pair):
    with pytest.raises(DomainError):
        check_identifiability(bernoulli_pair, [])
