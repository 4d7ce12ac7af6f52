import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest
from scipy.special import logsumexp

from qndmix import estimate
from qndmix.errors import DomainError
from qndmix.estimate import (
    COARSE_POINTS,
    MAX_STEPS,
    Maxima,
    PINV_RCOND,
    ROW_BLOCK,
    STEP_TOL,
    _SCAN_TABLES,
    _halton,
    _halton_neighbours,
    _maximize_box,
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
)
from qndmix.presets import PRESETS, get_preset, toy_haroche_guerlin
from qndmix.simulate import CountVector, counts, sample_count_paths, sample_mixture_trajectory

from conftest import reference_logsumexp, sample_counts


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
# Optimizers
# ---------------------------------------------------------------------------

def _objective(f, slope, hessian):
    """maximize_scalar objective: values alone on the scan, and values and
    slopes at trial points, with the curvatures hessian(x) when asked for."""
    def obj(x, rows=None, curvature=False):
        if rows is None:
            return f(x)
        return (f(x), slope(x), hessian(x)) if curvature else (f(x), slope(x))
    return obj


def test_maximize_scalar_quadratic():
    res = maximize_scalar(
        _objective(lambda x: -(x - 0.37) ** 2, lambda x: -2.0 * (x - 0.37),
                   lambda x: np.full_like(x, -2.0)),
        0.0, 1.0,
    )
    x, fx, trace, tie, boundary = res.x[0, 0], res.value[0], res.trace(0), res.tie[0], res.boundary[0]
    assert x == pytest.approx(0.37, abs=1e-7)
    assert fx == pytest.approx(0.0, abs=1e-12)
    assert not tie and not boundary
    assert len(trace) >= 64


def test_maximize_scalar_boundary_flag():
    res = maximize_scalar(
        _objective(lambda x: x, np.ones_like, np.zeros_like), 0.0, 1.0
    )
    x, boundary = res.x[0, 0], res.boundary[0]
    assert x == pytest.approx(1.0, abs=1e-7)
    assert boundary


def test_maximize_scalar_tie_flag():
    # Symmetric double bump: equal maxima at +/- 1; ties resolve to smaller x.
    res = maximize_scalar(
        _objective(lambda x: -(x * x - 1.0) ** 2, lambda x: -4.0 * x * (x * x - 1.0),
                   lambda x: 4.0 - 12.0 * x * x),
        -2.0, 2.0,
    )
    x, tie = res.x[0, 0], res.tie[0]
    assert tie
    assert abs(x) == pytest.approx(1.0, abs=1e-6)


def reference_maximize_scalar(f, lo, hi):
    """The loop maximize_scalar had before it kept compact arrays of its live
    candidates: every array is gathered and scattered through the index array
    act at each step.  Kept as the reference its Maxima must equal bit for bit."""
    xs = np.linspace(lo, hi, COARSE_POINTS)
    scan = np.atleast_2d(f(xs))
    padded = np.pad(scan, ((0, 0), (1, 1)), constant_values=-np.inf)
    peak = (scan > padded[:, :-2]) & (scan > padded[:, 2:])
    peak[np.arange(len(scan)), scan.argmax(axis=1)] = True
    rows, idx = np.nonzero(peak)

    x = xs[idx]
    a = xs[np.maximum(idx - 1, 0)]
    b = xs[np.minimum(idx + 1, COARSE_POINTS - 1)]
    value, slope, curvature = (np.array(v, dtype=float) for v in f(x, rows, curvature=True))
    evaluations = np.ones(rows.size, dtype=int)
    with np.errstate(divide="ignore", invalid="ignore"):
        step = -slope / curvature
    moved = np.full(rows.size, np.inf)
    act = np.arange(rows.size)
    for n_steps in range(estimate.MAX_STEPS + 1):
        a[act] = np.where(slope[act] >= 0, x[act], a[act])
        b[act] = np.where(slope[act] <= 0, x[act], b[act])
        act = act[(b[act] - a[act] > STEP_TOL) & (moved[act] > STEP_TOL)]
        if act.size == 0 or n_steps == estimate.MAX_STEPS:
            break
        x_act, lo_act, hi_act = x[act], a[act], b[act]
        new = x_act + step[act]
        new = np.where((new > lo_act) & (new < hi_act), new, 0.5 * (lo_act + hi_act))
        v, s = f(new, rows[act])
        with np.errstate(divide="ignore", invalid="ignore"):
            step[act] = s * (new - x_act) / (slope[act] - s)
        moved[act] = np.abs(new - x_act)
        x[act], value[act], slope[act] = new, v, s
        evaluations[act] += 1
    return estimate._select(xs[:, None], scan, rows, x[:, None], value, evaluations, act, lo, hi)


def _assert_same_maxima(got, want):
    for field in dataclasses.fields(Maxima):
        g, w = getattr(got, field.name), getattr(want, field.name)
        assert g.shape == w.shape and g.dtype == w.dtype, field.name
        assert g.tobytes() == w.tobytes(), field.name


@pytest.mark.parametrize("max_steps", [MAX_STEPS, 2])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("name", ["toy_haroche", "qubit_rotation", "toy_haroche_guerlin"])
def test_maximize_scalar_equals_the_reference_loop(name, seed, max_steps, monkeypatch):
    """Every Maxima field, bit for bit, on one record's mixture and component
    rows (as mle builds them) and on 45 mixture rows of records drawn at n =
    1000 and 10000 (as the Monte-Carlo experiments build them); with the step
    cap at 2, on rows left unconverged too."""
    monkeypatch.setattr(estimate, "MAX_STEPS", max_steps)
    pre = get_preset(name)
    fam, q = pre.family, pre.q
    box = pre.search_box()
    lo, hi = float(box.lower[0]), float(box.upper[0])
    d = fam.n_components
    record = sample_mixture_trajectory(fam, pre.theta_star, q, 10_000, seed)
    single = counts(record, n_outcomes=fam.n_outcomes).counts
    logq = np.vstack([q.log(), np.where(np.eye(d, dtype=bool), 0.0, -np.inf)])
    rng = np.random.default_rng(seed)
    laws = fam.prob_table(pre.theta_star)[rng.choice(d, size=45, p=q.q)]
    batch = sample_count_paths(laws, (1_000, 10_000), rng)
    for f in (loglik_rows(fam, logq, single),
              loglik_rows(fam, q.log(), batch[:, 0]),
              loglik_rows(fam, q.log(), batch[:, 1])):
        _assert_same_maxima(maximize_scalar(f, lo, hi), reference_maximize_scalar(f, lo, hi))


@pytest.mark.parametrize("objective, lo, hi", [
    ((lambda x: -(x - 0.37) ** 2, lambda x: -2.0 * (x - 0.37), lambda x: np.full_like(x, -2.0)),
     0.0, 1.0),
    ((lambda x: x, np.ones_like, np.zeros_like), 0.0, 1.0),
    ((lambda x: -(x * x - 1.0) ** 2, lambda x: -4.0 * x * (x * x - 1.0),
      lambda x: 4.0 - 12.0 * x * x), -2.0, 2.0),
])
def test_maximize_scalar_equals_the_reference_loop_on_closed_forms(objective, lo, hi):
    """A quadratic, a slope out of the box (zero curvature) and a double bump."""
    f = _objective(*objective)
    _assert_same_maxima(maximize_scalar(f, lo, hi), reference_maximize_scalar(f, lo, hi))


def test_a_zero_step_denominator_gives_a_bisection_without_a_warning():
    """x on [0, 1] has zero curvature and a constant slope, so its Newton step
    and every secant step divide by 0: each such step is nan, which the
    bracket test replaces by a bisection, and no warning escapes."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        step = estimate._divide(np.array([1.0, 0.0, -3.0]), np.array([0.0, 0.0, 2.0]))
        res = maximize_scalar(_objective(lambda x: x, np.ones_like, np.zeros_like), 0.0, 1.0)
    np.testing.assert_array_equal(step, [np.nan, np.nan, -1.5])
    assert res.x[0, 0] == pytest.approx(1.0, abs=STEP_TOL)
    assert res.converged[0] and res.boundary[0]


def _box_objective(f, slope, hessian):
    """_maximize_box objective on one row: values alone on the scan, shaped
    (1, m), and values, slopes and curvatures hessian(x) at trial points of
    shape (k, 2), where _maximize_box always asks for the curvature."""
    def obj(x, rows=None, curvature=False):
        assert rows is None or curvature
        return f(x)[None] if rows is None else (f(x), slope(x), hessian(x))
    return obj


@pytest.mark.parametrize("gap, x_hat, tie", [
    (1e-13, [0.2, 0.5], True),     # within TIE_TOL: the smaller x wins
    (1e-9, [0.8, 0.5], False),     # beyond it: the higher peak wins
])
def test_maximize_box_ties_resolve_to_the_smaller_x(gap, x_hat, tie):
    """Two peaks on [0, 1]^2, at (0.2, 0.5) and at (0.8, 0.5), the second
    higher by gap; the scan shows a local maximum near each, and both
    candidates reach their peaks."""
    peaks, heights = np.array([[0.2, 0.5], [0.8, 0.5]]), np.array([0.0, gap])

    def nearest(x):
        v = heights - np.sum((x[:, None, :] - peaks) ** 2, axis=-1)  # (k, 2)
        return v, v.argmax(axis=1)

    res = _maximize_box(_box_objective(
        lambda x: nearest(x)[0].max(axis=1),
        lambda x: -2.0 * (x - peaks[nearest(x)[1]]),
        lambda x: np.tile(-2.0 * np.eye(2), (len(x), 1, 1)),
    ), np.zeros(2), np.ones(2))
    assert np.isclose(res.cand_x[:, 0], 0.2).any() and np.isclose(res.cand_x[:, 0], 0.8).any()
    np.testing.assert_allclose(res.x[0], x_hat, atol=1e-9)
    assert res.tie[0] == tie and res.converged[0] and not res.boundary[0]


def test_maximize_box_stops_on_the_edge_an_outward_slope_holds():
    """-(x_0 - 1.3)^2 - (x_1 - 0.5)^2 on [0, 1]^2 peaks outside the box: the
    search ends at (1, 0.5), on the boundary and converged."""
    peak = np.array([1.3, 0.5])
    res = _maximize_box(_box_objective(
        lambda x: -np.sum((x - peak) ** 2, axis=1),
        lambda x: -2.0 * (x - peak),
        lambda x: np.tile(-2.0 * np.eye(2), (len(x), 1, 1)),
    ), np.zeros(2), np.ones(2))
    np.testing.assert_allclose(res.x[0], [1.0, 0.5], rtol=0, atol=1e-12)
    assert res.boundary[0] and res.converged[0]


def _multi_start_reference(f, n_rows, lower, upper, n_starts=8):
    """Best value per row of the former D > 1 search: projected Fisher
    scoring from the same n_starts Halton starts for every row, with the
    stop and step-halving rules of _maximize_box."""
    starts = lower + _halton(n_starts, lower.size) * (upper - lower)
    rows = np.repeat(np.arange(n_rows), n_starts)
    x = np.tile(starts, (n_rows, 1))
    fx, g, h = f(x, rows, curvature=True)
    scale = np.ones(rows.size)
    act = np.arange(rows.size)
    for _ in range(MAX_STEPS):
        x_act, g_act = x[act], g[act]
        free = ~(((x_act - lower <= STEP_TOL) & (g_act < 0)) | ((upper - x_act <= STEP_TOL) & (g_act > 0)))
        info = -h[act] * (free[:, :, None] & free[:, None, :])
        step = np.einsum("kij,kj->ki", np.linalg.pinv(info, rcond=PINV_RCOND, hermitian=True), g_act * free)
        x_new = np.clip(x_act + scale[act, None] * step, lower, upper)
        moving = np.abs(x_new - x_act).max(axis=1) > STEP_TOL
        act, x_new = act[moving], x_new[moving]
        if act.size == 0:
            break
        f_new, g_new, h_new = f(x_new, rows[act], curvature=True)
        rise = f_new > fx[act]
        up = act[rise]
        x[up], fx[up], g[up], h[up] = x_new[rise], f_new[rise], g_new[rise], h_new[rise]
        scale[act] = np.where(rise, 1.0, 0.5 * scale[act])
    return fx.reshape(n_rows, n_starts).max(axis=1)


@pytest.mark.parametrize("seed", range(5))
def test_maximize_box_reaches_the_multi_start_maximum(seed):
    """On the D = 6 preset at n = 1e4 and on the D = 2 family, the scan-seeded
    search reaches every row's value of the 8-start reference (to 1e-12),
    and every candidate stops."""
    pre = get_preset("toy_haroche_full")
    traj = sample_mixture_trajectory(pre.family, pre.theta_star, pre.q, 10_000, seed)
    two = _two_param_family()
    cases = [
        (pre.family, pre.q, counts(traj, n_outcomes=pre.family.n_outcomes), pre.search_box()),
        (two, MixtureWeights.normalized([0.8, 0.2]), sample_counts(two, [0.32, 0.15], 0, 10_000, seed), two.box),
    ]
    for fam, q, c, box in cases:
        d = fam.n_components
        # mle's rows: the mixture, then each component alone.
        f = loglik_rows(fam, np.vstack([q.log(), np.where(np.eye(d, dtype=bool), 0.0, -np.inf)]), c.counts)
        res = _maximize_box(f, box.lower, box.upper)
        reference = _multi_start_reference(f, d + 1, box.lower, box.upper)
        assert np.all(res.value >= reference - 1e-12)
        assert res.converged.all()


def test_loglik_rows_curvature_is_the_expected_information():
    """At D = 6 the trial-point curvature is the full D x D matrix
    -sum_alpha w_alpha I_alpha(x): -I_alpha for the one-hot row of alpha, and
    the posterior-weighted sum for the mixture row."""
    pre = get_preset("toy_haroche_full")
    fam, x, d = pre.family, pre.theta_star, pre.family.n_components
    c = sample_counts(fam, x, 2, 20, 3)   # a short record keeps the posterior spread
    logq = np.vstack([pre.q.log(), np.where(np.eye(d, dtype=bool), 0.0, -np.inf)])
    _, _, curvature = loglik_rows(fam, logq, c.counts)(np.tile(x, (d + 1, 1)), np.arange(d + 1), curvature=True)
    info = fisher_information(fam, x)
    terms = log_terms(fam, pre.q, c.counts, x)
    w = np.exp(terms - logsumexp(terms))
    assert curvature.shape == (d + 1, fam.dim, fam.dim)
    np.testing.assert_allclose(curvature[1:], -info, rtol=0, atol=1e-12)
    np.testing.assert_allclose(curvature[0], -np.einsum("a,aij->ij", w, info), rtol=0, atol=1e-12)


@pytest.mark.parametrize("k", [45, ROW_BLOCK + 1])
@pytest.mark.parametrize("name", ["toy_haroche", "qubit_rotation"])
def test_trial_points_give_the_same_values_and_slopes_with_or_without_curvature(name, k):
    """At k trial points, in one block and across two, f(x, rows) returns the
    values and slopes alone, and their bytes are those that
    f(x, rows, curvature=True) returns before its curvature."""
    pre = get_preset(name)
    fam, q, box = pre.family, pre.q, pre.search_box()
    rng = np.random.default_rng(k)
    laws = fam.prob_table(pre.theta_star)[rng.choice(fam.n_components, size=50, p=q.q)]
    f = loglik_rows(fam, q.log(), sample_count_paths(laws, (10_000,), rng)[:, 0])
    x, rows = rng.uniform(box.lower[0], box.upper[0], k), rng.integers(0, 50, k)
    plain, full = f(x, rows), f(x, rows, curvature=True)
    assert len(plain) == 2 and len(full) == 3 and full[2].shape == (k,)
    for got, want in zip(plain, full):
        assert got.shape == (k,) and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", ["toy_haroche", "qubit_rotation", "toy_haroche_guerlin"])
def test_maximize_scalar_asks_for_the_curvature_once(name):
    """One maximize_scalar call on mle's rows of a record asks its objective
    for the curvature at exactly one evaluation, the first at trial points."""
    pre = get_preset(name)
    fam, q, box = pre.family, pre.q, pre.search_box()
    d = fam.n_components
    record = sample_mixture_trajectory(fam, pre.theta_star, q, 10_000, 4)
    f = loglik_rows(fam, np.vstack([q.log(), np.where(np.eye(d, dtype=bool), 0.0, -np.inf)]),
                    counts(record, n_outcomes=fam.n_outcomes).counts)
    asked = []

    def counting(x, rows=None, curvature=False):
        if rows is not None:
            asked.append(curvature)
        return f(x, rows, curvature=curvature)

    res = maximize_scalar(counting, float(box.lower[0]), float(box.upper[0]))
    assert asked[0] and asked.count(True) == 1 and len(asked) > 1
    assert res.converged.all()


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
    at_x_alone = [np.concatenate(v) for v in zip(*(f(x[r:r + 1], np.zeros(1, int), curvature=True)
                                                   for r, f in enumerate(alone)))]
    for n_rows in (ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, r_max):
        f = loglik_rows(fam, logq, cm[:n_rows])
        np.testing.assert_allclose(f(xs), scan_alone[:n_rows], rtol=1e-14, atol=0)
        rows = rng.permutation(n_rows)
        for got, want in zip(f(x[rows], rows, curvature=True), at_x_alone):
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


def _csv_writer_trace(report, path) -> None:
    """Reference for EstimationReport.trace_to_csv: the same rows through
    csv.writer (RFC 4180 quoting, CRLF line ends) one row at a time."""
    import csv

    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        dim = np.atleast_1d(report.theta_hat).size
        writer.writerow([f"theta_{k}" for k in range(dim)] + ["loglik"])
        for theta, value in report.optimizer_trace:
            writer.writerow([f"{x:.17g}" for x in np.atleast_1d(theta)] + [f"{value:.17g}"])


@pytest.mark.parametrize("name", ["toy_haroche", "toy_haroche_full"])
def test_trace_csv_matches_the_csv_writer_bytes(name, tmp_path):
    """The one-write trace file holds the bytes csv.writer would write, on a
    D = 1 report, a D = 6 report and a trace holding -inf."""
    import dataclasses

    pre = get_preset(name)
    traj = sample_mixture_trajectory(pre.family, pre.theta_star, pre.q, 10_000, 7)
    report = mle(pre.family, pre.q, counts(traj, n_outcomes=pre.family.n_outcomes),
                 box=pre.search_box())
    minus_inf = dataclasses.replace(
        report, optimizer_trace=[(pre.theta_star, -np.inf)] + report.optimizer_trace[:3]
    )
    for rep in (report, minus_inf):
        rep.trace_to_csv(tmp_path / "got.csv")
        _csv_writer_trace(rep, tmp_path / "want.csv")
        got = (tmp_path / "got.csv").read_bytes()
        assert got == (tmp_path / "want.csv").read_bytes()
        assert got.endswith(b"\r\n") and got.count(b"\r\n") == len(rep.optimizer_trace) + 1
    assert len(report.optimizer_trace) > COARSE_POINTS
    assert b",-inf\r\n" in got


def reference_csv_text(header, rows) -> str:
    """estimate._csv_text as it was before its one % pass: each cell formatted
    on its own."""
    cells = [header] + [[f"{x:.17g}" if isinstance(x, float) else str(x) for x in row] for row in rows]
    return "".join(",".join(row) + "\r\n" for row in cells)


def _csv_writer_text(header, rows) -> str:
    """The reference's cells through csv.writer (RFC 4180 quoting, CRLF line ends)."""
    import csv
    import io

    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    for row in [header, *rows]:
        writer.writerow([f"{x:.17g}" if isinstance(x, float) else str(x) for x in row])
    return buffer.getvalue()


@pytest.mark.parametrize("header, rows", [
    (["n", "theta_hat"], [[1, 0.5], [10_000, np.float64(0.1)], [np.int64(7), -0.0], [2**70, 1e-300]]),
    (["theta_0", "loglik"], [[np.inf, -np.inf], [np.nan, 0.1 + 0.2], [np.float64(-np.inf), np.float64(np.nan)]]),
    (["theta_0", "theta_1", "loglik"], [[0.25, np.float64(1 / 3), -1e17], [1, 2, 3]]),
    (["n", "theta_hat"], []),
    ([], []),
    (["a"], [[], ["x"], [True]]),
])
def test_csv_text_equals_the_reference_bytes(header, rows):
    """Floats (np.float64, ±inf, nan and -0 included) to 17 significant
    digits, ints and other cells as str: the per-cell reference's text, which
    is also what csv.writer writes."""
    text = estimate._csv_text(header, rows)
    assert text == reference_csv_text(header, rows) == _csv_writer_text(header, rows)


def reference_to_dict(report) -> dict:
    """EstimationReport.to_dict as it was before it read each array with one
    .tolist(): one float() per entry."""
    return {
        "theta_hat": [float(x) for x in np.atleast_1d(report.theta_hat)],
        "theta_hat_per_component": [
            [float(x) for x in np.atleast_1d(row)] for row in report.theta_hat_per_component
        ],
        "loglik_at_max": float(report.loglik_at_max),
        "n": int(report.n),
        "posterior_at_hat": [float(x) for x in report.posterior_at_hat],
        "fisher_at_hat": report.fisher_at_hat.tolist(),
        "converged": bool(report.converged),
        "boundary": bool(report.boundary),
        "tie": bool(report.tie),
    }


@pytest.mark.parametrize("name", ["toy_haroche", "qubit_rotation", "toy_haroche_full"])
def test_report_dict_and_trace_keep_python_floats(name):
    """to_dict gives the reference's dict, leaf types and JSON bytes, and the
    trace holds (list of D floats, float) pairs."""
    import json

    pre = get_preset(name)
    traj = sample_mixture_trajectory(pre.family, pre.theta_star, pre.q, 10_000, 3)
    report = mle(pre.family, pre.q, counts(traj, n_outcomes=pre.family.n_outcomes),
                 box=pre.search_box())
    got, want = report.to_dict(), reference_to_dict(report)
    assert got == want
    assert json.dumps(got, indent=2) == json.dumps(want, indent=2)

    def leaves(x):
        return [y for v in x for y in leaves(v)] if isinstance(x, list) else [x]

    for key in ("theta_hat", "theta_hat_per_component", "posterior_at_hat"):
        assert {type(x) for x in leaves(got[key])} == {float}
    for theta, value in report.optimizer_trace:
        assert type(theta) is list and len(theta) == pre.family.dim
        assert {type(x) for x in theta} == {float} and type(value) is float


def _two_param_family():
    """d=2, l=3 family with a 2-D parameter; gradients by hand."""

    def tables(t):
        a, b = t[..., 0], t[..., 1]
        p = np.stack([
            np.stack([a, b, 1.0 - a - b], axis=-1),
            np.stack([b, a, 1.0 - a - b], axis=-1),
        ], axis=-2)
        da = np.array([[1.0, 0.0, -1.0], [0.0, 1.0, -1.0]])
        db = np.array([[0.0, 1.0, -1.0], [1.0, 0.0, -1.0]])
        return p, np.broadcast_to(np.stack([da, db]), t.shape[:-1] + (2, 2, 3))

    return ParametricFamily(
        box=ParameterBox(np.array([0.1, 0.1]), np.array([0.4, 0.4])),
        tables=tables,
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


@pytest.mark.parametrize("dim", [2, 6])
def test_halton_neighbours_are_the_nearest_others(dim):
    """Row i lists the dim scan points nearest to point i, itself left out,
    nearest first."""
    unit = _halton(COARSE_POINTS, dim)
    neighbours = _halton_neighbours(COARSE_POINTS, dim)
    assert neighbours.shape == (COARSE_POINTS, dim)
    dist = np.sum((unit[:, None] - unit) ** 2, axis=-1)
    for i, row in enumerate(neighbours):
        assert i not in row and len(set(row)) == dim
        rest = np.setdiff1d(np.arange(COARSE_POINTS), np.r_[i, row])
        assert np.all(np.diff(dist[i, row]) >= 0)
        assert dist[i, row].max() <= dist[i, rest].min()


@pytest.mark.parametrize("name", ["toy_haroche", "qubit_rotation", "toy_haroche_full"])
def test_scan_table_is_built_once_per_box(name, monkeypatch):
    """Only the first mle on a family and box evaluates the COARSE_POINTS-row
    scan table; another box gets a table of its own.  Every cached scan array
    (the points, ln p, p and its Jacobian) is read-only, the Halton points
    and their neighbour indices are built once per (COARSE_POINTS, D), and a
    cached scan gives the report of a fresh one."""
    pre = PRESETS[name]()  # a new instance, with no scan table yet
    fam = pre.family
    rule, stacks = fam._tables, []  # every preset has a joint rule
    monkeypatch.setattr(fam, "_tables", lambda t: stacks.append(t.shape[:-1]) or rule(t))
    c = counts(sample_mixture_trajectory(fam, pre.theta_star, pre.q, 2_000, 3),
               n_outcomes=fam.n_outcomes)
    half = ParameterBox(fam.box.lower, 0.5 * (fam.box.lower + fam.box.upper))
    boxes = [fam.box, half, fam.box, half]
    _halton.cache_clear()
    _halton_neighbours.cache_clear()
    reports, scans = [], []
    for box in boxes:
        stacks.clear()
        reports.append(mle(fam, pre.q, c, box=box).to_dict())
        scans.append(stacks.count((COARSE_POINTS,)))
    assert scans == [1, 1, 0, 0]
    assert reports[2:] == reports[:2]
    assert _halton.cache_info().misses == (fam.dim > 1)
    assert _halton_neighbours.cache_info().misses == (fam.dim > 1)
    tables = list(_SCAN_TABLES[fam].values())
    assert len(tables) == 2
    d, l = fam.n_components, fam.n_outcomes
    for table in tables:
        assert table.logp.shape == (d * COARSE_POINTS, l) and table.logp.flags.c_contiguous
        assert table.x.shape == (COARSE_POINTS, fam.dim)
        assert table.p.shape == (COARSE_POINTS, d, l)
        assert table.dp.shape == (COARSE_POINTS, fam.dim, d, l)
        assert not any(a.flags.writeable for a in (table.x, table.logp, table.p, table.dp))
    assert not _halton(COARSE_POINTS, fam.dim).flags.writeable
    assert not _halton_neighbours(COARSE_POINTS, fam.dim).flags.writeable


def _scan_points(fam, box):
    """The scan points maximize_scalar (D = 1) or _maximize_box (D > 1) uses on box."""
    if fam.dim == 1:
        return np.linspace(box.lower[0], box.upper[0], COARSE_POINTS)
    return box.lower + _halton(COARSE_POINTS, fam.dim) * (box.upper - box.lower)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_first_step_gathers_the_scan_tables_bit_for_bit(name, monkeypatch):
    """A trial call right after a scan, at scan points only (the first step of
    both maximizers), gathers p and its Jacobian from the scan table without
    calling the rule: they equal fam.tables at those points bit for bit, and
    its values, slopes and curvatures those of the same call on an objective
    that never scanned.  The call after it, and a trial call with one point
    off the scan, call the rule; a point outside the box or NaN is refused
    even right after a scan."""
    pre = PRESETS[name]()
    fam, box = pre.family, pre.search_box()
    d = fam.n_components
    c = counts(sample_mixture_trajectory(fam, pre.theta_star, pre.q, 3_000, 2), n_outcomes=fam.n_outcomes)
    logq = np.vstack([pre.q.log(), np.where(np.eye(d, dtype=bool), 0.0, -np.inf)])
    xs = _scan_points(fam, box)
    idx = np.array([0, 5, 5, 17, COARSE_POINTS - 1, 30, 2])
    rows = np.arange(len(idx)) % (d + 1)
    table = estimate._scan_table(fam, xs)
    p, dp = fam.tables(xs[idx].reshape(len(idx), -1))
    assert table.p[idx].tobytes() == p.tobytes() and table.dp[idx].tobytes() == dp.tobytes()

    rule, calls = fam._tables, []
    monkeypatch.setattr(fam, "_tables", lambda t: calls.append(len(t)) or rule(t))
    f, fresh = loglik_rows(fam, logq, c.counts), loglik_rows(fam, logq, c.counts)
    f(xs)
    got = f(xs[idx], rows, curvature=True)
    assert calls == []
    want = fresh(xs[idx], rows, curvature=True)
    assert calls == [len(idx)]
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    again = f(xs[idx], rows)
    assert calls == [len(idx)] * 2
    for a, b in zip(again, want):
        assert a.tobytes() == b.tobytes()
    off = xs[idx].copy()
    off[3] = 0.5 * (xs[0] + xs[1])
    f(xs)
    f(off, rows)
    assert calls == [len(idx)] * 3
    for bad in (box.upper + 1.0, np.full(fam.dim, np.nan)):
        points = xs[idx].copy()
        points[1] = bad if fam.dim > 1 else bad[0]
        f(xs)
        with pytest.raises(DomainError, match="outside parameter box"):
            f(points, rows)


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


@pytest.mark.parametrize("n_rows", [3, 130])
def test_logsumexp_of_empty_slices_is_minus_inf(n_rows):
    """A slice of -inf entries gives -inf, with no NaN and no warning, on
    the row-wise path and, from SLAB_ROWS rows on, the component-major one."""
    a = np.full((n_rows, 5), -np.inf)
    a[1, 2] = 0.5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = own_logsumexp(a, axis=-1)
        cols = own_logsumexp(a, axis=0)
        everything = own_logsumexp(np.full(4, -np.inf))
    want = np.full(n_rows, -np.inf)
    want[1] = 0.5
    np.testing.assert_array_equal(rows, want)
    np.testing.assert_array_equal(cols, [-np.inf, -np.inf, 0.5, -np.inf, -np.inf])
    assert everything == -np.inf


def _logsumexp_inputs(kind, shape, rng):
    """Last-axis inputs of one kind: entries of one scale, so that every
    term counts and another summation order rounds differently (narrow); a
    spread of about 1e4; rows of -inf entries only, tied maxima, or rows
    partially -inf."""
    a = rng.normal(scale=3.0 if kind == "narrow" else 1e4, size=shape)
    rows = a.reshape(-1, shape[-1])
    if kind == "empty":
        rows[::3] = -np.inf
    elif kind == "tied":
        rows[::2, -1] = rows[::2, 0] = rows[::2].max(axis=1) + 1.0
    elif kind == "partial":
        rows[::2, shape[-1] // 2:] = -np.inf
    return a


@pytest.mark.parametrize("kind", ["narrow", "spread", "empty", "tied", "partial"])
@pytest.mark.parametrize("d", [1, 2, 3, 7, 8, 9, 15, 16, 17, 24, 127, 128, 129, 130])
@pytest.mark.parametrize("lead", [(127,), (128,), (5000,), (1, 127), (8, 16), (50, 100)])
def test_logsumexp_matches_the_row_wise_reference(lead, d, kind):
    """On both sides of the SLAB_ROWS switch, in 2-D and 3-D, logsumexp over
    the last axis (named -1 or by its index) equals the row-wise reference
    bit for bit, with no warning.  The d cover each branch of the slab sum:
    one slab after another (below 8), eight running sums with and without a
    remainder (8 to PAIRWISE_BLOCK) and the row-major copy beyond."""
    assert estimate.SLAB_ROWS == 128
    a = _logsumexp_inputs(kind, lead + (d,), np.random.default_rng(d))
    want = reference_logsumexp(a, axis=-1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for axis in (-1, a.ndim - 1):
            got = own_logsumexp(a, axis=axis)
            assert got.shape == lead
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("layout", ["fortran", "strided_rows", "swapped_outer", "reversed_last"])
@pytest.mark.parametrize("d", [2, 8, 9, 130])
def test_logsumexp_matches_the_row_wise_reference_on_any_layout(layout, d):
    """Views whose rows are not packed, or whose last axis is not the fastest
    one, give the row-wise reference's bits too.  numpy adds an F-ordered
    array's rows in another order than a C-ordered one's, and on narrow
    inputs the bits differ from d = 8."""
    base = _logsumexp_inputs("narrow", (300, 2 * d), np.random.default_rng(d))
    a = {
        "fortran": np.asfortranarray(base[:, :d]),
        "strided_rows": base[:, :d],
        "swapped_outer": base[:, :d].reshape(20, 15, d).swapaxes(0, 1),
        "reversed_last": base[:, d - 1::-1],
    }[layout]
    want = reference_logsumexp(a, axis=-1)
    got = own_logsumexp(a, axis=-1)
    assert got.shape == a.shape[:-1]
    assert got.tobytes() == want.tobytes()


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
        p, dp = pre.family.tables(t)
        score_table = dp / p  # (D, d, l)
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


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_mle_posterior_and_fisher_equal_their_own_evaluations(name, monkeypatch):
    """mle evaluates the family at one single point, theta_hat, once, for both
    the posterior and the Fisher stack: bit for bit the log_terms softmax and
    fisher_information."""
    pre = get_preset(name)
    fam = pre.family
    record = sample_mixture_trajectory(fam, pre.theta_star, pre.q, 2_000, 4)
    c = counts(record, n_outcomes=fam.n_outcomes)
    points = []
    for method in ("prob_table", "tables"):
        def recorded(t, evaluate=getattr(fam, method)):
            if np.ndim(t) == 1:
                points.append(np.array(t))
            return evaluate(t)

        monkeypatch.setattr(fam, method, recorded)
    report = mle(fam, pre.q, c, box=pre.search_box())
    monkeypatch.undo()
    assert len(points) == 1 and points[0].tobytes() == report.theta_hat.tobytes()
    terms = log_terms(fam, pre.q, c.counts, report.theta_hat)
    assert report.posterior_at_hat.tobytes() == np.exp(terms - own_logsumexp(terms)).tobytes()
    assert report.fisher_at_hat.tobytes() == fisher_information(fam, report.theta_hat).tobytes()
