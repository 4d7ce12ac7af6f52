import itertools
import math
import warnings

import numpy as np
import pytest
from scipy.special import logsumexp

from qndmix.errors import DomainError
from qndmix.estimate import (
    COARSE_POINTS,
    ROW_BLOCK,
    _halton,
    _maximize_box,
    limit_loglik,
    log_sum_paths,
    log_terms,
    logsumexp as own_logsumexp,
    loglik,
    loglik_component,
    loglik_rows,
    maximize_scalar,
    mle,
)
from qndmix.model import (
    MixtureWeights,
    ParameterBox,
    ParametricFamily,
    fisher_information,
    shannon_entropy,
)
from qndmix.presets import get_preset, toy_haroche_guerlin
from qndmix.simulate import (
    CountVector,
    counts,
    sample_count_paths,
    sample_counts,
    sample_mixture_trajectory,
    sample_trajectory,
)


def brute_force_prob(fam, q, theta, seq):
    """P(seq) = sum_alpha q(alpha) prod_i p(seq_i | alpha), evaluated naively."""
    table = fam.prob_table(theta)
    total = 0.0
    for a in range(fam.n_components):
        prod = 1.0
        for j in seq:
            prod *= table[a, j]
        total += q.q[a] * prod
    return total


def seq_counts(seq, l):
    return CountVector(n=len(seq), counts=np.bincount(np.array(seq, dtype=int), minlength=l))


# ---------------------------------------------------------------------------
# Likelihood evaluation
# ---------------------------------------------------------------------------

def test_loglik_matches_brute_force(bernoulli_pair, uniform2):
    seq = (0, 1, 1, 0, 1)
    c = seq_counts(seq, 2)
    got = loglik(bernoulli_pair, uniform2, c, [0.45])
    expect = math.log(brute_force_prob(bernoulli_pair, uniform2, [0.45], seq)) / len(seq)
    assert got.value == pytest.approx(expect, abs=1e-13)
    assert got.n == 5
    # Per-component terms recombine to the value.
    from scipy.special import logsumexp
    assert logsumexp(got.per_component) / 5 == pytest.approx(got.value, abs=1e-13)


def test_loglik_is_exchangeable(bernoulli_pair, uniform2):
    """Any reordering of the record gives the identical likelihood."""
    seq = (0, 1, 1, 0, 1, 1)
    for perm in itertools.permutations(seq):
        p = brute_force_prob(bernoulli_pair, uniform2, [0.6], list(perm))
        assert p == pytest.approx(
            brute_force_prob(bernoulli_pair, uniform2, [0.6], seq), rel=1e-12
        )
    # And the counts-based evaluation agrees with the sequence product.
    c = seq_counts(seq, 2)
    assert loglik(bernoulli_pair, uniform2, c, [0.6]).value == pytest.approx(
        math.log(brute_force_prob(bernoulli_pair, uniform2, [0.6], seq)) / 6, abs=1e-13
    )


def test_loglik_component(bernoulli_pair):
    c = CountVector(n=4, counts=np.array([1, 3]))
    expect = (math.log(0.4) + 3 * math.log(0.6)) / 4
    assert loglik_component(bernoulli_pair, c, [0.4], 0) == pytest.approx(expect, abs=1e-14)


def test_loglik_empty_record(bernoulli_pair, uniform2):
    with pytest.raises(DomainError):
        loglik(bernoulli_pair, uniform2, CountVector(n=0, counts=np.zeros(2, dtype=int)), [0.4])


def test_loglik_no_underflow_at_large_n(bernoulli_pair, uniform2):
    """A collapsed component must not underflow the mixture total."""
    c = sample_counts(bernoulli_pair, [0.7], 0, 200_000, 3)
    val = loglik(bernoulli_pair, uniform2, c, [0.7]).value
    assert np.isfinite(val)
    # The mixture value is squeezed between component value and +ln 2 / n.
    comp = loglik_component(bernoulli_pair, c, [0.7], 0)
    assert comp + math.log(uniform2.q[0]) / c.n <= val + 1e-12
    assert val <= comp + math.log(2.0) / c.n + 1e-12


# ---------------------------------------------------------------------------
# Limit likelihood and stable log-sum of paths
# ---------------------------------------------------------------------------

def test_limit_loglik_peaks_at_truth(bernoulli_pair):
    theta_star = [0.5]
    top = limit_loglik(bernoulli_pair, theta_star, 0, theta_star)
    assert top == pytest.approx(-shannon_entropy(bernoulli_pair, theta_star, 0), abs=1e-14)
    for x in np.linspace(0.2, 0.8, 31):
        assert limit_loglik(bernoulli_pair, theta_star, 0, [x]) <= top + 1e-12
    # The twin component achieves the same limit at 2*theta (no penalty there).
    assert limit_loglik(bernoulli_pair, [0.3], 0, [0.6]) == pytest.approx(
        -shannon_entropy(bernoulli_pair, [0.3], 0), abs=1e-13
    )


def test_log_sum_paths_exact_small_values():
    a_n = np.array([2.0, 3.0])
    b_n = np.array([5.0, 1.0])
    for n in (1, 2, 5):
        ell_a = np.log(a_n) / n
        ell_b = np.log(b_n) / n
        got = log_sum_paths(ell_a, ell_b, n)
        np.testing.assert_allclose(got, np.log(a_n + b_n) / n, atol=1e-14)


def test_log_sum_paths_bound_and_stability():
    ell_a = np.array([-0.3])
    ell_b = np.array([-0.9])
    for n in (1, 10, 1_000, 100_000):
        got = log_sum_paths(ell_a, ell_b, n)[0]
        assert got <= max(ell_a[0], ell_b[0]) + math.log(2.0) / n + 1e-15
        assert got >= max(ell_a[0], ell_b[0])
    # Equal paths saturate the ln(2)/n bound exactly.
    same = log_sum_paths(ell_a, ell_a, 50)[0]
    assert same == pytest.approx(ell_a[0] + math.log(2.0) / 50, abs=1e-15)


def test_log_sum_paths_validation():
    with pytest.raises(DomainError):
        log_sum_paths(np.zeros(2), np.zeros(3), 5)
    with pytest.raises(DomainError):
        log_sum_paths(np.zeros(2), np.zeros(2), 0)
    with pytest.raises(DomainError):
        log_sum_paths(np.array([-np.inf]), np.zeros(1), 5)


# ---------------------------------------------------------------------------
# Optimizers
# ---------------------------------------------------------------------------

def _objective(f, slope, curvature):
    """maximize_scalar objective: values alone on the scan, and values, slopes
    and curvatures at trial points."""
    def obj(x, rows=None):
        return f(x) if rows is None else (f(x), slope(x), curvature(x))
    return obj


def test_maximize_scalar_quadratic():
    res = maximize_scalar(
        _objective(lambda x: -(x - 0.37) ** 2, lambda x: -2.0 * (x - 0.37),
                   lambda x: np.full_like(x, -2.0)),
        0.0, 1.0,
    )
    x, fx, trace, tie, boundary = res.x[0], res.value[0], res.trace(0), res.tie[0], res.boundary[0]
    assert x == pytest.approx(0.37, abs=1e-7)
    assert fx == pytest.approx(0.0, abs=1e-12)
    assert not tie and not boundary
    assert len(trace) >= 64


def test_maximize_scalar_boundary_flag():
    res = maximize_scalar(
        _objective(lambda x: x, np.ones_like, np.zeros_like), 0.0, 1.0
    )
    x, boundary = res.x[0], res.boundary[0]
    assert x == pytest.approx(1.0, abs=1e-7)
    assert boundary


def test_maximize_scalar_tie_flag():
    # Symmetric double bump: equal maxima at +/- 1; ties resolve to smaller x.
    res = maximize_scalar(
        _objective(lambda x: -(x * x - 1.0) ** 2, lambda x: -4.0 * x * (x * x - 1.0),
                   lambda x: 4.0 - 12.0 * x * x),
        -2.0, 2.0,
    )
    x, tie = res.x[0], res.tie[0]
    assert tie
    assert abs(x) == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("gap, x_hat, tie", [
    (1e-13, [0.2, 0.5], True),     # within TIE_TOL: the smaller x wins
    (1e-9, [0.8, 0.5], False),     # beyond it: the higher peak wins
])
def test_maximize_box_ties_resolve_to_the_smaller_x(gap, x_hat, tie):
    """Two peaks on [0, 1]^2, at (0.2, 0.5) and at (0.8, 0.5), the second
    higher by gap; Halton starts on either side of x_0 = 0.5 reach both."""
    peaks, heights = np.array([[0.2, 0.5], [0.8, 0.5]]), np.array([0.0, gap])

    def f(x, rows):
        v = heights - np.sum((x[:, None, :] - peaks) ** 2, axis=-1)  # (k, 2)
        k = v.argmax(axis=1)
        return v[np.arange(len(x)), k], -2.0 * (x - peaks[k]), np.tile(-2.0 * np.eye(2), (len(x), 1, 1))

    x, value, got_tie, boundary, converged, x_end, _ = _maximize_box(f, 1, np.zeros(2), np.ones(2))
    assert np.isclose(x_end[0, :, 0], 0.2).any() and np.isclose(x_end[0, :, 0], 0.8).any()
    np.testing.assert_allclose(x[0], x_hat, atol=1e-9)
    assert got_tie[0] == tie and converged[0] and not boundary[0]


def test_maximize_box_stops_on_the_edge_an_outward_slope_holds():
    """-(x_0 - 1.3)^2 - (x_1 - 0.5)^2 on [0, 1]^2 peaks outside the box: the
    search ends at (1, 0.5), on the boundary and converged."""
    def f(x, rows):
        peak = np.array([1.3, 0.5])
        return -np.sum((x - peak) ** 2, axis=1), -2.0 * (x - peak), np.tile(-2.0 * np.eye(2), (len(x), 1, 1))

    x, _, _, boundary, converged, _, _ = _maximize_box(f, 1, np.zeros(2), np.ones(2))
    np.testing.assert_allclose(x[0], [1.0, 0.5], rtol=0, atol=1e-12)
    assert boundary[0] and converged[0]


def test_loglik_rows_curvature_is_the_expected_information():
    """At D = 6 the trial-point curvature is the full D x D matrix
    -sum_alpha w_alpha I_alpha(x): -I_alpha for the one-hot row of alpha, and
    the posterior-weighted sum for the mixture row."""
    pre = get_preset("toy_haroche_full")
    fam, x, d = pre.family, pre.theta_star, pre.family.n_components
    c = sample_counts(fam, x, 2, 20, 3)   # a short record keeps the posterior spread
    logq = np.vstack([pre.q.log(), np.where(np.eye(d, dtype=bool), 0.0, -np.inf)])
    _, _, curvature = loglik_rows(fam, logq, c.counts)(np.tile(x, (d + 1, 1)), np.arange(d + 1))
    info = fisher_information(fam, x)
    terms = log_terms(fam, pre.q, c.counts, x)
    w = np.exp(terms - logsumexp(terms))
    assert curvature.shape == (d + 1, fam.dim, fam.dim)
    np.testing.assert_allclose(curvature[1:], -info, rtol=0, atol=1e-12)
    np.testing.assert_allclose(curvature[0], -np.einsum("a,aij->ij", w, info), rtol=0, atol=1e-12)


def test_loglik_rows_blocks_cover_every_row_once():
    """Across the edges of ROW_BLOCK, the blocked scan and trial-point values
    of R mixture rows on toy_haroche equal each row evaluated alone.  Trial
    points agree bit for bit.  The scan's matrix product rounds a row by its
    place in the product (a lone row takes a matrix-vector kernel, edge tiles
    another), so the scan agrees to 1e-14 relative, where a dropped or
    shifted row would differ by orders of magnitude more."""
    pre = get_preset("toy_haroche")
    fam, logq, box = pre.family, pre.q.log(), pre.estimation_box
    rng = np.random.default_rng(5)
    r_max = 2 * ROW_BLOCK + 1
    gammas = rng.integers(0, fam.n_components, r_max)
    cm = sample_count_paths(fam.prob_table(pre.theta_star)[gammas], (10_000,), rng)[:, 0]
    xs = np.linspace(box.lower[0], box.upper[0], COARSE_POINTS)
    x = rng.uniform(box.lower[0], box.upper[0], r_max)
    alone = [loglik_rows(fam, logq, cm[r]) for r in range(r_max)]
    scan_alone = np.vstack([f(xs) for f in alone])
    at_x_alone = [np.concatenate(v) for v in zip(*(f(x[r:r + 1], np.zeros(1, int)) for r, f in enumerate(alone)))]
    for n_rows in (ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, r_max):
        f = loglik_rows(fam, logq, cm[:n_rows])
        np.testing.assert_allclose(f(xs), scan_alone[:n_rows], rtol=1e-14, atol=0)
        rows = rng.permutation(n_rows)
        for got, want in zip(f(x[rows], rows), at_x_alone):
            assert np.array_equal(got, want[rows])


# ---------------------------------------------------------------------------
# MLE
# ---------------------------------------------------------------------------

def test_mle_recovers_theta(bernoulli_pair, uniform2):
    c = sample_counts(bernoulli_pair, [0.55], 0, 100_000, 21)
    report = mle(bernoulli_pair, uniform2, c)
    assert report.theta_hat[0] == pytest.approx(0.55, abs=0.01)
    assert report.converged and not report.boundary
    assert report.posterior_at_hat.sum() == pytest.approx(1.0, abs=1e-12)
    assert len(report.fisher_at_hat) == 2
    # The per-component MLE of the generating component sits near the truth too.
    assert report.theta_hat_per_component[0, 0] == pytest.approx(0.55, abs=0.01)


def test_mle_respects_search_box(bernoulli_pair, uniform2):
    c = sample_counts(bernoulli_pair, [0.55], 0, 10_000, 4)
    sub = ParameterBox(np.array([0.7]), np.array([0.8]))
    report = mle(bernoulli_pair, uniform2, c, box=sub)
    assert 0.7 - 1e-9 <= report.theta_hat[0] <= 0.8 + 1e-9
    assert report.boundary  # truth lies outside, so the max hits the edge
    with pytest.raises(DomainError):
        mle(bernoulli_pair, uniform2, c, box=ParameterBox(np.array([0.0]), np.array([0.9])))


def test_mle_empty_record(bernoulli_pair, uniform2):
    with pytest.raises(DomainError):
        mle(bernoulli_pair, uniform2, CountVector(n=0, counts=np.zeros(2, dtype=int)))


def test_mle_report_serialization(bernoulli_pair, uniform2, tmp_path):
    c = sample_counts(bernoulli_pair, [0.5], 1, 2_000, 13)
    report = mle(bernoulli_pair, uniform2, c)
    d = report.to_dict()
    assert set(d) >= {
        "theta_hat", "theta_hat_per_component", "loglik_at_max", "n",
        "posterior_at_hat", "fisher_at_hat", "converged", "boundary", "tie",
    }
    import json
    json.loads(json.dumps(d))  # must be valid JSON
    path = tmp_path / "trace.csv"
    report.trace_to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "theta_0,loglik"
    assert len(lines) > 64


def _two_param_family():
    """d=2, l=3 family with a 2-D parameter; gradients by hand."""

    def probs(t):
        a, b = t[..., 0], t[..., 1]
        return np.stack([
            np.stack([a, b, 1.0 - a - b], axis=-1),
            np.stack([b, a, 1.0 - a - b], axis=-1),
        ], axis=-2)

    def dprobs(t):
        da = np.array([[1.0, 0.0, -1.0], [0.0, 1.0, -1.0]])
        db = np.array([[0.0, 1.0, -1.0], [1.0, 0.0, -1.0]])
        return np.broadcast_to(np.stack([da, db]), t.shape[:-1] + (2, 2, 3))

    return ParametricFamily(
        box=ParameterBox(np.array([0.1, 0.1]), np.array([0.4, 0.4])),
        probs=probs,
        dprobs=dprobs,
    )


def test_mle_multidimensional():
    fam = _two_param_family()
    q = MixtureWeights.normalized([0.8, 0.2])
    truth = np.array([0.32, 0.15])
    c = sample_counts(fam, truth, 0, 50_000, 6)
    report = mle(fam, q, c)
    assert report.converged and not report.tie and not report.boundary
    np.testing.assert_allclose(report.theta_hat, truth, atol=0.02)
    assert report.theta_hat_per_component.shape == (2, 2)
    # Pinned to the serial multi-start search.  Several starts of each row end
    # on the same maximum, up to 1e-8 apart and within an ulp of each other in
    # value, so which of them wins follows the last bit of the value: theta_hat
    # is pinned to that spread and the value to 1e-12.
    np.testing.assert_allclose(
        report.theta_hat, [0.32222000128978545, 0.14924000193301012], rtol=0, atol=1e-8
    )
    np.testing.assert_allclose(
        report.theta_hat_per_component,
        [[0.32222000132017947, 0.14924000194709178], [0.14923999659007167, 0.32221999767788057]],
        rtol=0, atol=1e-8,
    )
    assert report.loglik_at_max == pytest.approx(-0.9858261019930978, abs=1e-12)


def test_halton_matches_scipy():
    from scipy.stats import qmc

    for dim in range(1, 9):
        expected = qmc.Halton(d=dim, scramble=False).random(8)
        np.testing.assert_array_equal(_halton(8, dim), expected)


def test_mle_finds_narrow_collision_peak():
    """On this guerlin record the global maximum is a narrow peak that the
    coarse scan only shows as a lower local maximum; the box edge is a decoy."""
    pre = toy_haroche_guerlin()
    fam, box = pre.family, pre.search_box()
    traj = sample_mixture_trajectory(fam, pre.theta_star, pre.q, 10_000, 36)
    c = counts(traj, n_outcomes=fam.n_outcomes)
    report = mle(fam, pre.q, c, box=box)
    grid = np.linspace(box.lower[0], box.upper[0], 8001)
    grid_max = max(loglik(fam, pre.q, c, [x]).value for x in grid)
    assert loglik(fam, pre.q, c, report.theta_hat).value >= grid_max - 1e-9
    assert not report.boundary


def test_mle_matches_fine_grid(bernoulli_pair, uniform2):
    """Score-root refinement lands on the same maximum a dense scan finds."""
    c = sample_counts(bernoulli_pair, [0.4], 1, 5_000, 30)
    report = mle(bernoulli_pair, uniform2, c)
    grid = np.linspace(0.2, 0.8, 20_001)
    vals = [loglik(bernoulli_pair, uniform2, c, [x]).value for x in grid]
    assert report.theta_hat[0] == pytest.approx(grid[int(np.argmax(vals))], abs=5e-5)


def test_logsumexp_matches_scipy():
    """The estimator's log-sum-exp agrees with scipy's on component rows (one
    finite entry, -inf elsewhere), on mixture rows spread over ~1e4, and on
    tied maxima, over the last axis, the first and all of them (the default
    of both)."""
    rng = np.random.default_rng(3)
    spread = rng.normal(scale=1e4, size=(6, 40, 9))
    component = np.where(np.eye(9, dtype=bool), 0.0, -np.inf) + spread[0, :9]
    tied = spread[1].copy()
    tied[:, 4] = tied[:, 7] = tied.max(axis=1) + 1.0
    partial = spread[2].copy()
    partial[::2, 3:] = -np.inf
    for a in (spread, component, tied, partial):
        for axis in (-1, 0, None):
            np.testing.assert_allclose(
                own_logsumexp(a, axis=axis), logsumexp(a, axis=axis), rtol=1e-15, atol=0
            )


def test_logsumexp_of_empty_slices_is_minus_inf():
    """A slice of -inf entries gives -inf, with no NaN and no warning."""
    a = np.full((3, 5), -np.inf)
    a[1, 2] = 0.5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = own_logsumexp(a, axis=-1)
        cols = own_logsumexp(a, axis=0)
        everything = own_logsumexp(np.full(4, -np.inf))
    np.testing.assert_array_equal(rows, [-np.inf, 0.5, -np.inf])
    np.testing.assert_array_equal(cols, [-np.inf, -np.inf, 0.5, -np.inf, -np.inf])
    assert everything == -np.inf


# theta_hat of `qndmix estimate --seed 7` at n = 1e4 per preset, and the value
# the golden-section search gave before score-root refinement replaced it.
PINNED = [
    ("toy_haroche", 0.7895963675670539, 0.7895963663687594),
    ("toy_haroche_guerlin", 1.0376386049084727, 1.0376386147023493),
    ("qubit_rotation", 0.718397831696952, 0.7183978419938696),
]


def _seeded_record(name):
    pre = get_preset(name)
    traj = sample_mixture_trajectory(pre.family, pre.theta_star, pre.q, 10_000, 7)
    return pre, counts(traj, n_outcomes=pre.family.n_outcomes)


@pytest.mark.parametrize("name, theta_hat", [pin[:2] for pin in PINNED])
def test_mle_pinned_on_seeded_record(name, theta_hat):
    """theta_hat of `qndmix estimate --seed 7` at n = 1e4, to the last digit."""
    pre, c = _seeded_record(name)
    report = mle(pre.family, pre.q, c, box=pre.search_box())
    assert float(report.theta_hat[0]) == theta_hat


@pytest.mark.parametrize("name, theta_hat, golden", PINNED)
def test_pinned_mle_is_closer_to_the_score_root(name, theta_hat, golden):
    """The mixture score d/dtheta ln L = sum_alpha w_alpha sum_j N(j) s(j|alpha)
    is smaller at the pinned theta_hat than at the golden-section value."""
    pre, c = _seeded_record(name)

    def score(x):
        t = np.array([x])
        terms = log_terms(pre.family, pre.q, c.counts, t)
        w = np.exp(terms - logsumexp(terms))
        score_table = pre.family.dprob_table(t) / pre.family.prob_table(t)  # dp/p, (D, d, l)
        return float(w @ (score_table[0] @ c.counts))

    assert abs(score(theta_hat)) < abs(score(golden))
    assert abs(score(theta_hat)) < 1e-10


def test_unconverged_rows_are_flagged(monkeypatch):
    """A row whose candidates are still moving at the step cap is reported
    unconverged by maximize_scalar and by mle."""
    pre, c = _seeded_record("toy_haroche")
    report = mle(pre.family, pre.q, c, box=pre.search_box())
    assert report.converged
    monkeypatch.setattr("qndmix.estimate.MAX_STEPS", 1)
    logq = np.vstack([pre.q.log(), pre.q.log()])
    lo, hi = pre.search_box().lower[0], pre.search_box().upper[0]
    res = maximize_scalar(loglik_rows(pre.family, logq, c.counts), lo, hi)
    assert not res.converged.any()
    np.testing.assert_array_equal(res.evaluations, [2, 2])
    assert not mle(pre.family, pre.q, c, box=pre.search_box()).converged
