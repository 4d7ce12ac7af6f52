import numpy as np
import pytest

from qndmix.errors import ConstructionError, DomainError
from qndmix.simulate import (
    CountVector,
    counts,
    sample_component,
    sample_count_paths,
    sample_counts,
    sample_mixture_trajectory,
    sample_trajectory,
    substream,
    trajectory_from_json,
    trajectory_to_csv,
    trajectory_to_json,
)
from qndmix.model import MixtureWeights


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


def test_counts_and_prefixes(bernoulli_pair):
    traj = sample_trajectory(bernoulli_pair, [0.4], 0, 100, seed=1)
    c = counts(traj, n_outcomes=2)
    assert c.n == 100
    np.testing.assert_array_equal(c.counts, np.bincount(traj.outcomes, minlength=2))
    head = counts(traj, n_prefix=10, n_outcomes=2)
    assert head.n == 10 and head.counts.sum() == 10
    with pytest.raises(DomainError):
        counts(traj, n_prefix=101)


def test_count_vector_validation():
    with pytest.raises(ConstructionError):
        CountVector(n=5, counts=np.array([2, 2]))
    with pytest.raises(ConstructionError):
        CountVector(n=1, counts=np.array([2, -1]))
    c = CountVector(n=4, counts=np.array([1, 3]))
    with pytest.raises(ValueError):
        c.counts[0] = 7


def test_sample_counts_deterministic(bernoulli_pair):
    c1 = sample_counts(bernoulli_pair, [0.4], 0, 500, 9)
    c2 = sample_counts(bernoulli_pair, [0.4], 0, 500, 9)
    np.testing.assert_array_equal(c1.counts, c2.counts)
    assert c1.n == 500
    # Passing the generator directly continues its stream.
    rng = substream(9, 1)
    c3 = sample_counts(bernoulli_pair, [0.4], 0, 500, rng)
    c4 = sample_counts(bernoulli_pair, [0.4], 0, 500, rng)
    assert not np.array_equal(c3.counts, c4.counts)


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


def test_trajectory_json_roundtrip(bernoulli_pair, tmp_path):
    traj = sample_trajectory(bernoulli_pair, [0.4], 1, 25, seed=2)
    path = tmp_path / "traj.json"
    trajectory_to_json(traj, path)
    back = trajectory_from_json(path)
    np.testing.assert_array_equal(back.outcomes, traj.outcomes)
    assert back.gamma == traj.gamma
    assert back.seed == traj.seed
    np.testing.assert_allclose(back.theta_true, traj.theta_true)
    # Round trip through the bare string as well.
    again = trajectory_from_json(trajectory_to_json(traj))
    np.testing.assert_array_equal(again.outcomes, traj.outcomes)


def test_trajectory_json_string_roundtrip_long_record(toy, tmp_path):
    """JSON text longer than a file name is parsed, never looked up as a path;
    str and Path file names still load the file."""
    traj = sample_trajectory(toy.family, toy.theta_star, 0, 200, seed=1)
    text = trajectory_to_json(traj)
    assert len(text) > 255
    back = trajectory_from_json(text)
    np.testing.assert_array_equal(back.outcomes, traj.outcomes)
    path = tmp_path / "long.json"
    path.write_text(text)
    for source in (path, str(path)):
        np.testing.assert_array_equal(trajectory_from_json(source).outcomes, traj.outcomes)


def test_trajectory_csv(bernoulli_pair, tmp_path):
    traj = sample_trajectory(bernoulli_pair, [0.4], 0, 3, seed=8)
    path = tmp_path / "traj.csv"
    trajectory_to_csv(traj, path, labels=("up", "down"))
    lines = path.read_text().splitlines()
    assert lines[0] == "step,outcome"
    assert len(lines) == 4
    assert lines[1].split(",")[1] in ("up", "down")


def test_trajectory_is_immutable(bernoulli_pair):
    traj = sample_trajectory(bernoulli_pair, [0.4], 0, 5, seed=0)
    with pytest.raises(ValueError):
        traj.outcomes[0] = 1
