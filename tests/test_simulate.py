import re
import warnings

import numpy as np
import pytest

from qndmix.errors import ConstructionError, DomainError
from qndmix.simulate import (
    CountVector,
    Trajectory,
    counts,
    sample_component,
    sample_count_paths,
    sample_mixture_trajectory,
    sample_trajectory,
    substream,
)
from qndmix.model import MixtureWeights, ParameterBox, ParametricFamily
from qndmix.presets import get_preset


def test_substream_reproducible_and_distinct():
    a = substream(42, 1, 2).random(5)
    b = substream(42, 1, 2).random(5)
    c = substream(42, 1, 3).random(5)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_substream_independent_of_call_order():
    """Stream i is the same whether streams are created in order or shuffled."""
    in_order = [substream(0, i).random(3) for i in range(6)]
    shuffled = {i: substream(0, i).random(3) for i in (4, 0, 5, 2, 1, 3)}
    for i in range(6):
        np.testing.assert_array_equal(in_order[i], shuffled[i])


@pytest.mark.parametrize("key", [(), (0,), (3,), (5, 2, 10_000), (7, 2**33), (1, 2, 3, 4, 5)])
@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**128 + 5])
def test_substream_keys_as_seed_sequence(seed, key):
    """substream assembles the words SeedSequence(entropy=seed, spawn_key=key)
    assembles, so its generator starts in that generator's state: seeds of
    one to five words, with and without the pool padding, and keys of
    several entries, one of them two words long."""
    want = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))
    got = substream(seed, *key)
    assert got.bit_generator.state == want.bit_generator.state
    assert got.integers(2**63, size=4).tolist() == want.integers(2**63, size=4).tolist()
    assert got.bit_generator.state == want.bit_generator.state


@pytest.mark.parametrize("args, message", [
    ((None,), "seed None is not an integer"),
    ((-1,), "seed -1 must be at least 0"),
    ((1.5,), "seed 1.5 is not an integer"),
    ((1, -2), "stream key -2 must be at least 0"),
    ((1, 2.5), "stream key 2.5 is not an integer"),
    ((1, 2, None), "stream key None is not an integer"),
    ((1, "3"), "stream key 3 is not an integer"),
])
def test_substream_refuses_a_value_that_is_not_a_count(args, message):
    """A seed or key entry that is not an integer of at least 0 is named,
    rather than drawn from OS entropy (None), wrapped into a word, or refused
    by numpy with a bare ValueError or TypeError."""
    with pytest.raises(DomainError, match=f"^{message}$"):
        substream(*args)


def test_substream_takes_integral_values():
    """An integral float or numpy integer keys what the int keys."""
    want = substream(4, 2, 3).bit_generator.state
    for args in ((4.0, 2, 3), (np.int64(4), np.uint32(2), 3.0), (4, 2.0, np.int8(3))):
        assert substream(*args).bit_generator.state == want


def test_sample_trajectory_deterministic(bernoulli_pair):
    t1 = sample_trajectory(bernoulli_pair, [0.4], 0, 50, seed=3)
    t2 = sample_trajectory(bernoulli_pair, [0.4], 0, 50, seed=3)
    t3 = sample_trajectory(bernoulli_pair, [0.4], 0, 50, seed=4)
    np.testing.assert_array_equal(t1.outcomes, t2.outcomes)
    assert not np.array_equal(t1.outcomes, t3.outcomes)
    assert t1.gamma == 0 and len(t1) == 50


def test_sample_trajectory_validation(bernoulli_pair):
    with pytest.raises(DomainError):
        sample_trajectory(bernoulli_pair, [0.4], 5, 10, seed=0)
    with pytest.raises(DomainError):
        sample_trajectory(bernoulli_pair, [0.4], 0, -1, seed=0)
    with pytest.raises(DomainError):
        sample_trajectory(bernoulli_pair, [0.95], 0, 10, seed=0)


def test_component_index_outside_range_is_refused(qubit):
    """A component index outside 0..d-1, a negative one included, is refused
    with the index and the valid range named."""
    for gamma in (7, 2, -1):
        with pytest.raises(DomainError, match=f"component index {gamma} outside 0..1"):
            sample_trajectory(qubit.family, [0.8], gamma, 10, seed=0)


def test_empirical_frequencies_approach_the_law(bernoulli_pair):
    traj = sample_trajectory(bernoulli_pair, [0.4], 1, 20_000, seed=12)
    freq = np.bincount(traj.outcomes, minlength=2) / len(traj)
    np.testing.assert_allclose(freq, [0.2, 0.8], atol=0.01)


def test_mixture_trajectory_component_law(bernoulli_pair):
    q = MixtureWeights.normalized([3.0, 1.0])
    draws = [sample_component(q, seed) for seed in range(2_000)]
    assert np.mean(np.array(draws) == 0) == pytest.approx(0.75, abs=0.04)
    traj = sample_mixture_trajectory(bernoulli_pair, [0.4], q, 30, seed=17)
    assert traj.gamma == sample_component(q, 17)
    # Same seed, forced component: identical outcome stream.
    forced = sample_trajectory(bernoulli_pair, [0.4], traj.gamma, 30, seed=17)
    np.testing.assert_array_equal(traj.outcomes, forced.outcomes)


def reference_sample_component(q, seed):
    """sample_component as it drew through Generator.choice, which validates
    p on every call: the reference for the draw from the stored cdf."""
    return int(substream(seed, 0).choice(q.size, p=q.q))


@pytest.mark.parametrize("name", ["toy_haroche", "toy_haroche_guerlin", "toy_haroche_full", "qubit_rotation"])
def test_component_draw_equals_the_reference_draw(name):
    q = get_preset(name).q
    for seed in range(200):
        got = sample_component(q, seed)
        assert type(got) is int and got == reference_sample_component(q, seed)


@pytest.mark.parametrize("seed, message", [
    (None, "seed None is not an integer"),
    (2.5, "seed 2.5 is not an integer"),
    (np.nan, "seed nan is not an integer"),
    ("3", "seed 3 is not an integer"),
    (-1, "seed -1 must be at least 0"),
])
def test_record_seeds_must_be_counts(bernoulli_pair, seed, message):
    """A record seed that is not an integer of at least 0 is named, rather
    than drawn from OS entropy (None) or refused by numpy; an integral float
    or np.int64 draws what the int draws."""
    q = MixtureWeights.normalized([3.0, 1.0])
    for draw in (lambda: sample_component(q, seed),
                 lambda: sample_trajectory(bernoulli_pair, [0.4], 0, 30, seed),
                 lambda: sample_mixture_trajectory(bernoulli_pair, [0.4], q, 30, seed)):
        with pytest.raises(DomainError, match=f"^{message}$"):
            draw()
    want = sample_mixture_trajectory(bernoulli_pair, [0.4], q, 30, 4)
    for same in (4.0, np.int64(4)):
        got = sample_mixture_trajectory(bernoulli_pair, [0.4], q, 30, same)
        assert got.gamma == want.gamma
        np.testing.assert_array_equal(got.outcomes, want.outcomes)


def test_counts_and_prefixes(bernoulli_pair):
    traj = sample_trajectory(bernoulli_pair, [0.4], 0, 100, seed=1)
    c = counts(traj, n_outcomes=2)
    assert c.n == 100
    np.testing.assert_array_equal(c.counts, np.bincount(traj.outcomes, minlength=2))
    head = counts(traj, n_prefix=10, n_outcomes=2)
    assert head.n == 10 and head.counts.sum() == 10
    # A prefix longer than the record, or of negative length, is refused.
    for n_prefix, message in ((101, "prefix length 101 exceeds"),
                              (-1, "prefix length -1 must be at least 0")):
        with pytest.raises(DomainError, match=message):
            counts(traj, n_prefix=n_prefix, n_outcomes=2)
    # The first outcome of the prefix outside 0..n_outcomes-1 is named, a
    # negative one included; a prefix that stops before it is counted.
    for outcomes, message in (([0, 1, 9], "outcome index 9 at step 3"),
                              ([0, -1, 9], "outcome index -1 at step 2")):
        bad = Trajectory(outcomes=outcomes, gamma=0)
        with pytest.raises(DomainError, match=f"{message} outside 0..7"):
            counts(bad, n_outcomes=8)
    np.testing.assert_array_equal(counts(bad, n_prefix=1, n_outcomes=8).counts, [1] + [0] * 7)


def test_count_vector_validation():
    with pytest.raises(ConstructionError):
        CountVector(n=5, counts=np.array([2, 2]))
    with pytest.raises(ConstructionError):
        CountVector(n=1, counts=np.array([2, -1]))
    c = CountVector(n=4, counts=np.array([1, 3]))
    with pytest.raises(ValueError):
        c.counts[0] = 7


def test_count_paths_one_point_is_one_multinomial(toy):
    """With one grid point, row r is exactly the r-th of R sequential
    multinomial(n, p_r) draws of the one generator."""
    table = toy.family.prob_table(toy.theta_star)
    gammas = np.arange(20) % 8
    paths = sample_count_paths(table[gammas], (700,), substream(5, 3))
    assert paths.shape == (20, 1, 8)
    rng = substream(5, 3)
    for row, g in zip(paths[:, 0], gammas):
        p = table[g]
        np.testing.assert_array_equal(row, rng.multinomial(700, p / p.sum()))


def test_count_paths_are_cumulative(toy):
    table = toy.family.prob_table(toy.theta_star)
    gammas = np.arange(30) % 8
    grid = (0, 1, 40, 40, 1_000)
    paths = sample_count_paths(table[gammas], grid, substream(1))
    assert paths.shape == (30, len(grid), 8)
    assert np.all(np.diff(paths, axis=1) >= 0)
    np.testing.assert_array_equal(paths.sum(axis=2), np.broadcast_to(grid, (30, len(grid))))
    with pytest.raises(DomainError):
        sample_count_paths(table[:1], (50, 10), substream(1))
    with pytest.raises(DomainError):
        sample_count_paths(table[0], (50,), substream(1))


def test_count_paths_equal_counted_records_in_distribution(toy):
    """The path of a record counted at n_1 < ... < n_K has mean n_a p and
    covariance min(n_a, n_b) (diag p - p p^T) between grid points a and b;
    4000 records drawn on one generator must match both within 5 standard
    errors."""
    p = toy.family.prob_table(toy.theta_star)[2]
    grid = np.array([30, 200, 1_000])
    n_rec = 4_000
    paths = sample_count_paths(np.tile(p, (n_rec, 1)), grid, substream(7))
    x = paths.reshape(n_rec, -1).astype(float)                    # (R, K*l)
    n_col = np.repeat(grid, p.size)
    p_col = np.tile(p, grid.size)

    mean = x.mean(axis=0)
    mean_se = x.std(axis=0, ddof=1) / np.sqrt(n_rec)
    assert np.all(np.abs(mean - n_col * p_col) <= 5 * mean_se)

    dev = x - mean
    prod = dev[:, :, None] * dev[:, None, :]                       # (R, K*l, K*l)
    cov = prod.sum(axis=0) / (n_rec - 1)
    cov_se = prod.std(axis=0, ddof=1) / np.sqrt(n_rec)
    block = np.diag(p) - np.outer(p, p)
    target = np.minimum.outer(n_col, n_col) * np.tile(block, (grid.size, grid.size))
    assert np.all(np.abs(cov - target) <= 5 * cov_se)


def reference_sample_count_paths(p, n_grid, rng):
    """The array-based body sample_count_paths had before it computed its gaps
    as Python ints, kept as the reference its draws must equal bit for bit."""
    p = np.asarray(p, dtype=float)
    gaps = np.diff(np.asarray(n_grid, dtype=np.int64), prepend=0)
    p = p / p.sum(axis=1, keepdims=True)
    out = np.empty((len(p), gaps.size, p.shape[1]), dtype=np.int64)
    for k, gap in enumerate(gaps.tolist()):
        out[:, k] = rng.multinomial(gap, p)
    return np.cumsum(out, axis=1, out=out)


@pytest.mark.parametrize("grid", [
    (700,), (20, 50, 100), (0, 40, 40, 1_000), np.array([3, 9]), (np.int64(5), 11), (),
])
@pytest.mark.parametrize("n_records", [45, 5, 1, 0])
@pytest.mark.parametrize("name", ["toy_haroche", "qubit_rotation"])
def test_count_paths_equal_the_reference_draws(name, n_records, grid):
    """Unnormalized outcome laws over one gap, several, a zero gap, an array
    grid and an empty grid, for R = 45, 1 and 0 records: the same counts,
    shape, dtype and layout as the reference, and the generator left in the
    same state."""
    pre = get_preset(name)
    table = pre.family.prob_table(pre.theta_star)
    rows = np.arange(n_records)
    laws = table[rows % len(table)] * (1.0 + 0.1 * rows)[:, None]
    for seed in range(3):
        got_rng, want_rng = substream(seed, 9), substream(seed, 9)
        got = sample_count_paths(laws, grid, got_rng)
        want = reference_sample_count_paths(laws, grid, want_rng)
        assert got.shape == want.shape == (n_records, len(grid), pre.family.n_outcomes)
        assert got.dtype == want.dtype and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("grid", [
    (700,), (20, 50, 100), (0, 40, 40, 1_000), np.array([3, 9]), (np.int64(5), 11), (),
])
@pytest.mark.parametrize("n_records", [45, 5, 1, 0])
@pytest.mark.parametrize("name", ["toy_haroche", "qubit_rotation"])
def test_one_law_form_equals_the_tiled_reference(name, n_records, grid):
    """The stacked form, d unnormalized outcome laws on d generators with
    size=R, draws in block g, bit for bit, the reference's counts for R
    tiled copies of law g on generator g, and leaves every generator in the
    same state."""
    pre = get_preset(name)
    table = pre.family.prob_table(pre.theta_star) * np.linspace(1.0, 1.7, pre.family.n_components)[:, None]
    d = len(table)
    for seed in range(2):
        got_rngs, want_rngs = ([substream(seed, 9, g) for g in range(d)] for _ in range(2))
        got = sample_count_paths(table, grid, got_rngs, size=n_records)
        want = np.stack([reference_sample_count_paths(np.tile(law, (n_records, 1)), grid, r)
                         for law, r in zip(table, want_rngs)])
        assert got.shape == want.shape == (d, n_records, len(grid), pre.family.n_outcomes)
        assert got.dtype == want.dtype and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()
        assert [r.bit_generator.state for r in got_rngs] == [r.bit_generator.state for r in want_rngs]


@pytest.mark.parametrize("bad, shown", [
    ([0.5, -0.25, 0.75], r"\[ 0\.5  -0\.25  0\.75\]"),
    ([0.5, np.nan, 0.5], r"\[0\.5 nan 0\.5\]"),
    ([0.0, 0.0, 0.0], r"\[0\. 0\. 0\.\]"),
    ([0.5, np.inf, 0.5], r"\[0\.5 inf 0\.5\]"),
    ([-0.5, 0.25, 0.0], r"\[-0\.5   0\.25  0\.  \]"),
])
@pytest.mark.parametrize("grid", [(50,), (20, 50)])
def test_count_paths_refuse_an_invalid_law(bad, shown, grid):
    """A law with a negative, NaN or infinite entry, or with a sum that is not
    positive, is refused with DomainError naming the law (and its record, in
    the per-record form), in both forms and on one gap or several, without
    a numpy warning; a valid law before it does not hide it."""
    laws = np.array([[0.2, 0.3, 0.5], [1.0, 1.0, 2.0], bad, [0.1, 0.1, 0.8]])
    rule = "must be non-negative with a finite positive sum$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=f"^the outcome law of record 2, {shown}, {rule}"):
            sample_count_paths(laws, grid, substream(1))
        with pytest.raises(DomainError, match=f"^the outcome law, {shown}, {rule}"):
            sample_count_paths(laws, grid, [substream(1, g) for g in range(len(laws))], size=3)


def test_count_paths_refuse_a_law_shape_that_does_not_match_size(toy):
    """size=R needs one law of shape (l,) per generator, a (d, l) table for d
    generators; without size the laws are (R, l)."""
    table = toy.family.prob_table(toy.theta_star)
    with pytest.raises(DomainError, match=r"shape \(records, outcomes\), not \(8,\)"):
        sample_count_paths(table[0], (50,), substream(1))
    for laws in (table[:7], table[0]):
        with pytest.raises(DomainError, match=r"^8 generators for size=5 records need outcome laws of shape "
                                              rf"\(8, outcomes\), not {re.escape(str(laws.shape))}$"):
            sample_count_paths(laws, (50,), [substream(1, g) for g in range(8)], size=5)


@pytest.mark.parametrize("size, message", [
    (-1, "size -1 must be at least 0"),
    (2.5, "size 2.5 is not an integer"),
    (np.nan, "size nan is not an integer"),
    ("5", "size 5 is not an integer"),
])
def test_count_paths_refuse_a_size_that_is_not_a_count(toy, size, message):
    p = toy.family.prob_table(toy.theta_star)[:1]
    with pytest.raises(DomainError, match=f"^{message}$"):
        sample_count_paths(p, (50,), [substream(1)], size=size)


def test_count_paths_refuse_a_record_length_that_is_not_an_integer(toy):
    table = toy.family.prob_table(toy.theta_star)
    with pytest.raises(DomainError, match=r"^record length 2.5 is not an integer$"):
        sample_count_paths(table, (1, 2.5), substream(1))
    with pytest.raises(DomainError, match=r"^record length 2.5 is not an integer$"):
        sample_count_paths(table[:1], (2.5,), [substream(1)], size=3)


def test_count_paths_take_integral_sizes_and_lengths(toy):
    """100.0 and np.int64 count as ints: the same draws as the ints, and size=0
    draws nothing."""
    p = toy.family.prob_table(toy.theta_star)[1:2]
    want = sample_count_paths(p, (50, 80), [substream(1)], size=4)
    for size, grid in ((4.0, (50.0, 80)), (np.int64(4), (np.int64(50), np.float64(80.0)))):
        got = sample_count_paths(p, grid, [substream(1)], size=size)
        assert got.shape == (1, 4, 2, 8)
        np.testing.assert_array_equal(got, want)
    assert sample_count_paths(p, (50,), [substream(1)], size=0).shape == (1, 0, 1, 8)


def test_trajectory_arguments_must_be_integers(toy):
    """A trajectory length or component index that is not integral is named;
    an integral float or np.int64 draws what the int draws."""
    fam, theta = toy.family, toy.theta_star
    for n, gamma, message in ((2.5, 0, "trajectory length 2.5"), (np.nan, 0, "trajectory length nan"),
                              (10, 0.5, "component index 0.5"), (10, None, "component index None")):
        with pytest.raises(DomainError, match=f"^{message} is not an integer$"):
            sample_trajectory(fam, theta, gamma, n, seed=0)
    want = sample_trajectory(fam, theta, 1, 100, seed=4)
    for n, gamma in ((100.0, 1.0), (np.int64(100), np.int64(1))):
        got = sample_trajectory(fam, theta, gamma, n, seed=4)
        np.testing.assert_array_equal(got.outcomes, want.outcomes)
        assert type(got.gamma) is int and got.gamma == 1


def test_prefix_length_must_be_an_integer(toy):
    traj = sample_trajectory(toy.family, toy.theta_star, 0, 20, seed=1)
    for n_prefix in (2.5, np.nan, "3"):
        with pytest.raises(DomainError, match=f"^prefix length {n_prefix} is not an integer$"):
            counts(traj, n_prefix, n_outcomes=8)
    want = counts(traj, 10, n_outcomes=8)
    for n_prefix in (10.0, np.int64(10)):
        got = counts(traj, n_prefix, n_outcomes=8)
        assert got.n == 10
        np.testing.assert_array_equal(got.counts, want.counts)


@pytest.mark.parametrize("outcomes, message", [
    ([0, 8, -3], "outcome index 8 at step 2"),
    ([3, -2, 8], "outcome index -2 at step 2"),
    ([7, 7, 7, 12], "outcome index 12 at step 4"),
    ([-1], "outcome index -1 at step 1"),
    ([0, 1, 2**40], "outcome index 1099511627776 at step 3"),
])
def test_counts_name_the_first_outcome_outside_the_alphabet(outcomes, message):
    """Below 0, at l or above: the first such outcome and its step are named;
    a prefix that stops before it is counted, an empty one included."""
    traj = Trajectory(outcomes=outcomes, gamma=0)
    with pytest.raises(DomainError, match=f"^{message} outside 0..7$"):
        counts(traj, n_outcomes=8)
    step = int(message.rsplit(" ", 1)[1])
    for n_prefix in range(step):
        good = counts(traj, n_prefix, n_outcomes=8)
        np.testing.assert_array_equal(good.counts, np.bincount(outcomes[:n_prefix], minlength=8))
    assert counts(Trajectory(outcomes=[], gamma=0), n_outcomes=8).n == 0


def reference_sample_trajectory(fam, theta, gamma, n, seed):
    """sample_trajectory's outcomes as they were drawn before the byte-wide
    accumulator: the same inverse CDF, counted in np.intp."""
    u = substream(seed, 1).random(n)
    outcomes = np.zeros(n, dtype=np.intp)
    for c in np.cumsum(fam.prob_table(theta)[gamma][:-1]).tolist():
        outcomes += u >= c
    return outcomes


def _softmax_family(n_outcomes):
    """Two components over n_outcomes outcomes, smooth in one parameter."""
    def probs(t):
        j = np.arange(n_outcomes)
        g = np.stack([np.sin(t * (1 + j / n_outcomes)), np.cos(2 * t + j / 7.0)], axis=-2)
        e = np.exp(g)
        return e / e.sum(axis=-1, keepdims=True)
    return ParametricFamily(box=ParameterBox(np.array([0.1]), np.array([1.3])), probs=probs)


@pytest.mark.parametrize("n", [0, 1, 10_000])
def test_byte_wide_draw_equals_the_reference_draw(n):
    """qubit_rotation (l = 2), toy_haroche (l = 8) and a 257-outcome family,
    the fewest outcomes that need a uint16 accumulator: the outcomes the intp
    reference draws, as int64."""
    cases = [(get_preset(name).family, get_preset(name).theta_star) for name in ("qubit_rotation", "toy_haroche")]
    cases.append((_softmax_family(257), np.array([0.7])))
    for fam, theta in cases:
        for gamma in range(fam.n_components):
            for seed in (0, 17):
                traj = sample_trajectory(fam, theta, gamma, n, seed)
                want = reference_sample_trajectory(fam, theta, gamma, n, seed)
                assert traj.outcomes.dtype == np.int64 and len(traj) == n
                np.testing.assert_array_equal(traj.outcomes, want)
    assert fam.n_outcomes == 257 and (n < 10_000 or traj.outcomes.max() == 256)


def test_trajectory_is_immutable(bernoulli_pair):
    traj = sample_trajectory(bernoulli_pair, [0.4], 0, 5, seed=0)
    with pytest.raises(ValueError):
        traj.outcomes[0] = 1


@pytest.mark.parametrize("name", ["toy_haroche", "toy_haroche_guerlin", "qubit_rotation"])
def test_outcomes_follow_the_inverse_cdf(name):
    """Each outcome is searchsorted(cdf, u, side="right") of its uniform draw
    u on substream(seed, 1), with the cdf's last entry set to 1."""
    pre = get_preset(name)
    table = pre.family.prob_table(pre.theta_star)
    for seed in range(50):
        gamma = seed % pre.family.n_components
        traj = sample_trajectory(pre.family, pre.theta_star, gamma, 2_000, seed)
        cdf = np.cumsum(table[gamma])
        cdf[-1] = 1.0
        expected = np.searchsorted(cdf, substream(seed, 1).random(2_000), side="right")
        assert traj.outcomes.dtype == expected.dtype
        np.testing.assert_array_equal(traj.outcomes, expected)
