import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hermite_ou import estimator, make_rng
from hermite_ou.estimator import (
    EstimatorConfig,
    l1_objective,
    minimize_l1,
    minimize_l1_rows,
    skeleton_separation,
    tangent_l1_coefficient,
    tangent_l1_objective,
)
from hermite_ou.hermite import GridPath, Provenance, simulate_fbm
from hermite_ou.integrals import discounted_integral_rows, noise_response
from hermite_ou.ou import deterministic_solution, exact_solution

H = 0.7
CFG = EstimatorConfig(theta_lo=-2.0, theta_hi=2.0)


def zero_path(n=64):
    return GridPath(1.0, n, np.zeros(n + 1), Provenance(0, 0, "zero"))


def path_from(values, t_max=1.0):
    return GridPath(t_max, len(values) - 1, np.asarray(values, float), Provenance(0, 0, "test"))


# ------------------------------------------------------------------ objective


def test_objective_zero_on_own_skeleton():
    x = deterministic_solution(0.7, 1.3, zero_path(128))
    assert l1_objective(x, 0.7, 1.3) == pytest.approx(0.0, abs=1e-14)


def test_objective_closed_form_constant_path():
    # constant path x0 = 1 против theta = 1: integral of e^t - 1 is e - 2
    x = path_from(np.ones(513))
    assert l1_objective(x, 1.0, 1.0) == pytest.approx(math.e - 2.0, abs=1e-4)


def test_objective_homogeneous_in_scale():
    rng = make_rng(1, 0)
    z = simulate_fbm(H, 64, 1.0, rng)
    integral = discounted_integral_rows(z.values, z.times, 0.5)
    x = path_from(exact_solution(integral, np.exp(0.5 * z.times), 0.2, 1.0))
    doubled = path_from(2 * x.values)
    assert l1_objective(doubled, 0.5, 2.0) == pytest.approx(
        2 * l1_objective(x, 0.5, 1.0), rel=1e-12
    )


def test_objective_is_continuous_in_theta():
    z = simulate_fbm(H, 512, 1.0, make_rng(1, 1))
    integral = discounted_integral_rows(z.values, z.times, 1.0)
    x = path_from(exact_solution(integral, np.exp(1.0 * z.times), 0.1, 1.0))
    for theta in np.linspace(-2, 2, 41):
        assert abs(l1_objective(x, theta + 1e-6, 1.0) - l1_objective(x, theta, 1.0)) < 1e-4


# ------------------------------------------------------------------ minimizer


def test_minimize_recovers_drift_without_noise():
    x = deterministic_solution(0.5, 1.0, zero_path(256))
    res = minimize_l1(x, 1.0, CFG)
    assert abs(res.theta_hat - 0.5) <= 1.01 * CFG.refine_tol
    assert res.objective_value == pytest.approx(0.0, abs=1e-10)
    assert res.n_evals > CFG.coarse_points


def test_minimize_stays_within_bounds_and_flags_boundary():
    # skeleton drift outside the window: minimizer pinned at the boundary
    x = deterministic_solution(3.0, 1.0, zero_path(128))
    cfg = EstimatorConfig(theta_lo=-1.0, theta_hi=1.0)
    res = minimize_l1(x, 1.0, cfg)
    assert res.theta_hat <= 1.0
    assert res.bracket[1] == 1.0


def test_minimize_consistency_small_noise():
    # |theta_hat - 1| < 0.5 in at least 95% of 200 replications at eps = 0.05
    theta0, hits = 1.0, 0
    for s in range(200):
        z = simulate_fbm(H, 256, 1.0, make_rng(31, s))
        integral = discounted_integral_rows(z.values, z.times, theta0)
        x = path_from(exact_solution(integral, np.exp(theta0 * z.times), 0.05, 1.0))
        res = minimize_l1(x, 1.0, CFG)
        hits += abs(res.theta_hat - theta0) < 0.5
    assert hits >= 190


def test_minimize_matches_dense_grid_oracle():
    grid = np.linspace(CFG.theta_lo, CFG.theta_hi, 10**5)
    spacing = grid[1] - grid[0]
    for s in range(20):
        z = simulate_fbm(H, 256, 1.0, make_rng(32, s))
        integral = discounted_integral_rows(z.values, z.times, 1.0)
        x = path_from(exact_solution(integral, np.exp(1.0 * z.times), 0.05, 1.0))
        res = minimize_l1(x, 1.0, CFG)
        vals = _objective_on_grid(x, grid, 1.0)
        oracle = grid[int(np.argmin(vals))]
        assert abs(res.theta_hat - oracle) < 10 * CFG.refine_tol + spacing, s


def _objective_on_grid(x, thetas, x0, block=2048):
    out = np.empty(thetas.size)
    t = x.times
    w = np.full(t.size, x.dt)
    w[0] = w[-1] = x.dt / 2
    for lo in range(0, thetas.size, block):
        chunk = thetas[lo : lo + block]
        dev = np.abs(x.values[None, :] - x0 * np.exp(np.outer(chunk, t)))
        out[lo : lo + chunk.size] = dev @ w
    return out


def test_minimize_unchanged_when_window_widens():
    z = simulate_fbm(H, 256, 1.0, make_rng(33, 7))
    integral = discounted_integral_rows(z.values, z.times, 1.0)
    x = path_from(exact_solution(integral, np.exp(1.0 * z.times), 0.1, 1.0))
    res = minimize_l1(x, 1.0, CFG)
    assert CFG.theta_lo < res.bracket[0] and res.bracket[1] < CFG.theta_hi
    wide = EstimatorConfig(theta_lo=-3.0, theta_hi=3.0)
    res_wide = minimize_l1(x, 1.0, wide)
    assert abs(res.theta_hat - res_wide.theta_hat) < 1e-7


def test_minimize_counts_scan_and_refinement_evaluations():
    # the coarse scan counts one evaluation per grid point without calling
    # _objective_at; every refinement evaluation is one point passed to it
    z = simulate_fbm(H, 512, 1.0, make_rng(34, 0))
    integral = discounted_integral_rows(z.values, z.times, 1.0)
    x = path_from(exact_solution(integral, np.exp(1.0 * z.times), 0.1, 1.0))
    calls = []
    objective_at = estimator._objective_at

    def counted(values, thetas, grid, x0):
        calls.extend(thetas)
        return objective_at(values, thetas, grid, x0)

    with mock.patch.object(estimator, "_objective_at", counted):
        res = minimize_l1(x, 1.0, CFG)
    assert res.n_evals == CFG.coarse_points + len(calls) == 235
    step = (CFG.theta_hi - CFG.theta_lo) / (CFG.coarse_points - 1)
    assert all(abs(theta - res.theta_hat) < 2 * step for theta in calls)


def _noisy_skeleton(n, x0, t_max, seed):
    """x0 e^(theta t) with theta uniform on [-3, 3], plus a scaled random walk."""
    rng = np.random.default_rng(seed)
    t = np.arange(n + 1) * (t_max / n)
    noise = rng.uniform(0.0, 1.0) * np.cumsum(rng.standard_normal(n + 1)) / math.sqrt(n)
    return path_from(x0 * np.exp(rng.uniform(-3.0, 3.0) * t) + noise, t_max)


@st.composite
def _windows(draw):
    lo = draw(st.floats(-5.0, 4.9))
    return lo, draw(st.floats(lo + 0.01, 5.0))


def _objective_table(x, thetas, x0):
    return np.array([l1_objective(x, theta, x0) for theta in thetas])


def _table_pick(table):
    """The first index within the tie tolerance of the table's minimum."""
    return int(np.flatnonzero(table <= table.min() + estimator._TIE_TOL)[0])


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 3000),
    points=st.integers(3, 700),
    window=_windows(),
    x0=st.just(0.0) | st.floats(0.05, 3.0) | st.floats(-3.0, -0.05),
    t_max=st.floats(0.25, 1.0),
    seed=st.integers(0, 2**32 - 1),
    block=st.just(estimator._SCAN_BLOCK) | st.integers(1, 4 * 3001),
    paths=st.integers(1, 4),
)
@example(n=64, points=10, window=(-1.0, 2.0), x0=1.0, t_max=1.0, seed=0, block=3 * 65, paths=1)
@example(n=64, points=10, window=(-1.0, 2.0), x0=-0.7, t_max=1.0, seed=1, block=64, paths=3)
@example(n=64, points=300, window=(-2.0, 2.0), x0=0.0, t_max=1.0, seed=2, block=2 * 65, paths=3)
def test_coarse_pick_matches_the_objective_table_bit_for_bit(n, points, window, x0, t_max, seed, block, paths):
    # block=3*65 is 3 skeleton rows and leaves a partial last block; block=64
    # < n + 1 gives one row per block; with x0 = 0 every skeleton is the zero
    # curve, every coarse point ties and the pick evaluates them all
    xs = [_noisy_skeleton(n, x0 or 1.0, t_max, seed + r) for r in range(paths)]
    thetas = np.linspace(*window, points)
    with mock.patch.object(estimator, "_SCAN_BLOCK", block):
        k, value = estimator._coarse_pick(np.stack([x.values for x in xs]), xs[0], thetas, x0)
    assert k.shape == value.shape == (paths,)
    for x, k_row, value_row in zip(xs, k.tolist(), value.tolist()):
        table = _objective_table(x, thetas, x0)
        assert (k_row, value_row) == (_table_pick(table), table[_table_pick(table)])


def _limit_dist_block():
    """10 Rosenblatt (q = 2) paths at three noise levels, as one 30-row block
    of the limit-dist benchmark: its OU rows, grid and coarse thetas."""
    from hermite_ou.harness import _discounted_block, _driver, _ou_rows

    draw = _driver("partial-sum", 2, H, 512, 32, 1.0)
    paths = [draw(make_rng(20, i)) for i in range(10)]
    grid = paths[0]
    integral, growth = _discounted_block(grid, np.stack([z.values for z in paths]), 1.0)
    values = _ou_rows(integral, growth, (0.05, 0.1, 0.2), 1.0)
    return values, grid, np.linspace(CFG.theta_lo, CFG.theta_hi, CFG.coarse_points)


def _counted_coarse_pick(values, grid, thetas):
    """_coarse_pick with the skeleton rows of each _l1_rows call recorded."""
    evaluated = []
    l1_rows = estimator._l1_rows

    def counted(rows, skeletons, dt, out):
        evaluated.append(len(skeletons))
        return l1_rows(rows, skeletons, dt, out)

    with mock.patch.object(estimator, "_l1_rows", counted):
        k, value = estimator._coarse_pick(values, grid, thetas, 1.0)
    return k, value, evaluated


def test_coarse_pick_evaluates_a_fifth_of_the_table_on_a_limit_dist_block():
    # the lower bound leaves few coarse points to evaluate per row, so a
    # fallback to the full table fails here
    values, grid, thetas = _limit_dist_block()
    k, value, evaluated = _counted_coarse_pick(values, grid, thetas)
    assert len(values) == 30
    assert sum(evaluated) <= 0.2 * thetas.size * len(values), sum(evaluated)
    for row, k_row, value_row in zip(values, k.tolist(), value.tolist()):
        table = _objective_table(path_from(row), thetas, 1.0)
        assert (k_row, value_row) == (_table_pick(table), table[_table_pick(table)])


def test_coarse_pick_evaluates_gathered_pairs_in_passes_of_half_its_buffer():
    # the first picks of every row, then every contested (row, theta) pair,
    # each in passes of half the buffer: not one pass per contested row
    values, grid, thetas = _limit_dist_block()
    _, _, evaluated = _counted_coarse_pick(values, grid, thetas)
    half = max(1, estimator._SCAN_BLOCK // (2 * (grid.n + 1)))
    contested = sum(evaluated) - len(values)
    assert contested > 0
    assert len(evaluated) <= -(-len(values) // half) + -(-contested // half), evaluated


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 600),
    points=st.integers(3, 300),
    window=_windows(),
    seed=st.integers(0, 2**32 - 1),
)
def test_minimize_zero_start_ties_everywhere_and_picks_theta_lo(n, points, window, seed):
    # with x0 = 0 every skeleton is the zero curve, so S is exactly constant
    x = _noisy_skeleton(n, 1.0, 1.0, seed)
    res = minimize_l1(x, 0.0, EstimatorConfig(*window, points))
    assert res.theta_hat == window[0]
    assert res.bracket[0] == window[0]
    assert res.objective_value == l1_objective(x, window[0], 0.0)


def _two_skeleton_tie(thetas, ia, ib, n=64, split=0.72):
    """Path on skeleton thetas[ia] up to t = split and on thetas[ib] after,
    with the last point before the split moved toward skeleton ib until the
    two coarse objective values are exactly equal (bisection on the bit
    pattern, then a scan of the neighbours).  Returns the values and the
    index of the moved point."""
    t = np.arange(n + 1) / n
    values = np.where(t <= split, np.exp(thetas[ia] * t), np.exp(thetas[ib] * t))
    j = int(split * n)

    def gap(v):
        values[j] = v
        x = path_from(values.copy())  # GridPath freezes its values
        return l1_objective(x, thetas[ia], 1.0) - l1_objective(x, thetas[ib], 1.0)

    lo = np.float64(np.exp(thetas[ia] * t[j])).view(np.int64)
    hi = np.float64(np.exp(thetas[ib] * t[j])).view(np.int64)
    assert gap(lo.view(np.float64)) < 0 < gap(hi.view(np.float64))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if gap(mid.view(np.float64)) < 0 else (lo, mid)
    for bits in range(int(lo) - 64, int(hi) + 64):
        if gap(np.int64(bits).view(np.float64)) == 0:
            return values, j
    raise AssertionError("no exactly tied path value near the crossing")


def test_minimize_exact_coarse_tie_goes_to_the_smaller_theta():
    cfg = EstimatorConfig(-2.0, 2.0, 41)
    thetas = np.linspace(cfg.theta_lo, cfg.theta_hi, cfg.coarse_points)
    ia, ib = 10, 30  # theta = -1 and 1: two separate local minima of S
    values, moved = _two_skeleton_tie(thetas, ia, ib)
    coarse = _objective_table(path_from(values.copy()), thetas, 1.0)
    assert coarse[ia] == coarse[ib] == coarse.min()
    assert np.sort(coarse)[2] - coarse[ia] > 1e-3  # every other theta is clearly worse
    # the lower bound keeps both minima, and the pick is the first
    k, value = estimator._coarse_pick(values[np.newaxis], path_from(values.copy()), thetas, 1.0)
    assert (k.tolist(), value.tolist()) == ([ia], [coarse[ia]])
    res = minimize_l1(path_from(values.copy()), 1.0, cfg)
    assert abs(res.theta_hat - thetas[ia]) <= cfg.refine_tol
    # breaking the tie toward the larger theta moves the estimate there
    values[moved] += 1e-9
    res = minimize_l1(path_from(values), 1.0, cfg)
    assert abs(res.theta_hat - thetas[ib]) <= cfg.refine_tol


_SCALED_PATHS = dict(
    n=st.integers(2, 600),
    points=st.integers(3, 300),
    x0=st.floats(0.05, 3.0) | st.floats(-3.0, -0.05),
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(-3, 3),
)


@settings(max_examples=60, deadline=None)
@given(**_SCALED_PATHS)
def test_minimize_is_scale_equivariant_with_a_scaled_tie_tolerance(n, points, x0, seed, k):
    # scaling the path and x0 by c = 2^k is exact in every step of the
    # estimator; with the tie tolerance scaled alike, every comparison is too
    x = _noisy_skeleton(n, x0, 1.0, seed)
    cfg = EstimatorConfig(-2.0, 2.0, points)
    c = 2.0**k
    base = minimize_l1(x, x0, cfg)
    with mock.patch.object(estimator, "_TIE_TOL", c * estimator._TIE_TOL):
        scaled = minimize_l1(path_from(c * x.values), c * x0, cfg)
    assert (scaled.theta_hat, scaled.n_evals, scaled.bracket) == (
        base.theta_hat,
        base.n_evals,
        base.bracket,
    )
    assert scaled.objective_value == c * base.objective_value


@settings(max_examples=60, deadline=None)
@given(**_SCALED_PATHS)
def test_minimize_coarse_choice_is_scale_invariant(n, points, x0, seed, k):
    # the tie tolerance is absolute, so only a coarse minimum that beats the
    # runner-up by more than it at both scales is sure to be chosen at both;
    # the golden-section steps near a smooth minimum differ by less than the
    # tolerance and may tie at one scale only, so theta_hat is not compared
    x = _noisy_skeleton(n, x0, 1.0, seed)
    cfg = EstimatorConfig(-2.0, 2.0, points)
    c = 2.0**k
    scaled_x = path_from(c * x.values)
    thetas = np.linspace(cfg.theta_lo, cfg.theta_hi, points)
    coarse = _objective_table(x, thetas, x0)
    scaled_coarse = _objective_table(scaled_x, thetas, c * x0)
    assert np.array_equal(scaled_coarse, c * coarse)
    low, runner_up = np.partition(coarse, 1)[:2]
    assume(min(1.0, c) * (runner_up - low) > estimator._TIE_TOL)
    best = int(np.argmin(coarse))
    lo, hi = thetas[max(best - 1, 0)], thetas[min(best + 1, points - 1)]
    for res in (minimize_l1(x, x0, cfg), minimize_l1(scaled_x, c * x0, cfg)):
        assert lo <= res.theta_hat <= hi


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_section_oracle(x, x0, cfg):
    """The one-path minimizer as a scalar loop: a coarse scan of l1_objective
    values, then golden-section steps that call l1_objective once each."""
    tie = estimator._TIE_TOL
    thetas = np.linspace(cfg.theta_lo, cfg.theta_hi, cfg.coarse_points)
    coarse = np.array([l1_objective(x, theta, x0) for theta in thetas])
    n_evals = cfg.coarse_points

    def objective(theta):
        nonlocal n_evals
        n_evals += 1
        return l1_objective(x, theta, x0)

    k = int(np.flatnonzero(coarse <= coarse.min() + tie)[0])
    a = thetas[max(k - 1, 0)]
    b = thetas[min(k + 1, cfg.coarse_points - 1)]
    best_theta, best_val = float(thetas[k]), float(coarse[k])

    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = objective(c), objective(d)
    while b - a > cfg.refine_tol:
        if fc <= fd + tie:  # ties move left, toward smaller theta
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = objective(d)
    for theta, val in ((c, fc), (d, fd)):
        if val < best_val - tie or (val <= best_val + tie and theta < best_theta):
            best_theta, best_val = float(theta), float(val)
    return estimator.EstimateResult(best_theta, best_val, n_evals, (float(a), float(b)))


def _row_paths(kinds, n, x0, thetas):
    """One path per (kind, seed): a noisy skeleton with drift in [-3, 3]
    (outside the window [-2, 2] its minimum is at an edge), a constant, the
    exact skeleton of a coarse-grid theta (S = 0 there) or a repeat of the
    previous path."""
    t = np.arange(n + 1) / n
    xs = []
    for kind, seed in kinds:
        if kind == "repeat" and xs:
            values = xs[-1].values
        elif kind == "constant":
            values = np.full(n + 1, np.random.default_rng(seed).uniform(-2.0, 2.0))
        elif kind == "skeleton":
            values = x0 * np.exp(thetas[seed % thetas.size] * t)
        else:
            values = _noisy_skeleton(n, x0, 1.0, seed).values
        xs.append(path_from(values))
    return xs


@settings(max_examples=60, deadline=None)
@given(
    kinds=st.lists(
        st.tuples(
            st.sampled_from(["noisy", "constant", "skeleton", "repeat"]), st.integers(0, 2**32 - 1)
        ),
        min_size=1,
        max_size=6,
    ),
    n=st.integers(2, 600),
    points=st.integers(3, 300),
    x0=st.just(0.0) | st.floats(0.05, 3.0) | st.floats(-3.0, -0.05),
    refine_tol=st.sampled_from([1e-8, 1e-3, 1e-12]),
)
@example(  # an edge row (a one-step bracket) finishes before the interior rows
    kinds=[("skeleton", 200), ("noisy", 0), ("constant", 1), ("skeleton", 100)],
    n=64, points=201, x0=1.0, refine_tol=1e-8,
)
@example(kinds=[("noisy", 5), ("repeat", 0)], n=32, points=11, x0=0.0, refine_tol=1e-8)  # all tie
@example(  # edge rows' brackets (0.4) start below refine_tol: they never step while the rest do
    kinds=[("skeleton", 10), ("noisy", 1), ("constant", 0), ("skeleton", 5), ("noisy", 3)],
    n=64, points=11, x0=1.0, refine_tol=0.5,
)
def test_minimize_rows_equals_the_scalar_loop_on_every_row(kinds, n, points, x0, refine_tol):
    cfg = EstimatorConfig(-2.0, 2.0, points, refine_tol)
    xs = _row_paths(kinds, n, x0, np.linspace(cfg.theta_lo, cfg.theta_hi, points))
    results = minimize_l1_rows(np.stack([x.values for x in xs]), xs[0], x0, cfg)
    assert len(results) == len(xs)
    for x, res in zip(xs, results):
        assert res == _golden_section_oracle(x, x0, cfg)
        assert all(type(v) is float for v in (res.theta_hat, res.objective_value, *res.bracket))


def test_minimize_rows_passes_its_rows_to_every_objective_pass_uncopied():
    # the edge row's bracket starts below refine_tol, and the interior rows'
    # pass still reads the caller's array, not a gather of the rows stepping
    cfg = EstimatorConfig(-2.0, 2.0, 11, 0.5)
    xs = _row_paths([("skeleton", 10), ("noisy", 1), ("constant", 0)], 64, 1.0, np.linspace(-2.0, 2.0, 11))
    values = np.stack([x.values for x in xs])
    seen = []
    objective_at = estimator._objective_at

    def recording(rows, thetas, grid, x0):
        seen.append(rows)
        return objective_at(rows, thetas, grid, x0)

    with mock.patch.object(estimator, "_objective_at", recording):
        results = minimize_l1_rows(values, xs[0], 1.0, cfg)
    assert len({res.n_evals for res in results}) > 1
    assert len(seen) == max(res.n_evals for res in results) - cfg.coarse_points
    assert all(rows is values for rows in seen)


def test_minimize_rows_rejects_rows_of_the_wrong_width_or_rank():
    for shape in [(2, 33), (2, 66), (65,), (1, 2, 65)]:
        with pytest.raises(ValueError, match=r"\(rows, n \+ 1 = 65\) path rows"):
            minimize_l1_rows(np.ones(shape), path_from(np.ones(65)), 1.0, CFG)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_minimize_rows_rejects_non_finite_rows(bad):
    # a NaN makes max |X| NaN, not large, so this is not the overflow check
    values = np.ones((3, 65))
    values[1, 40] = bad
    with pytest.raises(ValueError, match="path contains non-finite values"):
        minimize_l1_rows(values, path_from(np.ones(65)), 1.0, CFG)


def test_minimize_rejects_overflowing_window():
    x = path_from(np.ones(513))
    with pytest.raises(ValueError, match="overflow"):
        minimize_l1(x, 1.0, EstimatorConfig(-800.0, 800.0))
    with pytest.raises(ValueError, match="overflow"):
        minimize_l1(x, 1e300, EstimatorConfig(-2.0, 20.0))
    with pytest.raises(ValueError, match="overflow"):  # theta_lo * t_max is -inf
        minimize_l1(path_from(np.ones(513), 2.0), 1.0, EstimatorConfig(-1e308, 0.0))


@pytest.mark.parametrize("x0", [math.nan, math.inf, -math.inf])
def test_minimize_rejects_non_finite_x0(x0):
    with pytest.raises(ValueError, match="x0 must be finite"):
        minimize_l1(path_from(np.ones(513)), x0, CFG)


def test_minimize_accepts_window_up_to_overflow_headroom():
    # 513 terms of size up to e^702 still sum to a finite double; e^704 does not fit
    x = path_from(np.zeros(513))
    res = minimize_l1(x, 1.0, EstimatorConfig(0.0, 702.0))
    assert math.isfinite(res.objective_value)
    with pytest.raises(ValueError, match="overflow"):
        minimize_l1(x, 1.0, EstimatorConfig(0.0, 704.0))


def test_estimator_config_validation():
    with pytest.raises(ValueError):
        EstimatorConfig(theta_lo=2.0, theta_hi=-2.0)
    with pytest.raises(ValueError):
        EstimatorConfig(theta_lo=0.0, theta_hi=1.0, coarse_points=2)
    # the coarse grid is capped at 2^20 theta values (8 MiB)
    EstimatorConfig(0.0, 1.0, coarse_points=1 << 20)
    with pytest.raises(ValueError, match="coarse_points"):
        EstimatorConfig(0.0, 1.0, coarse_points=(1 << 20) + 1)
    # a NaN or infinite tolerance would skip the golden-section refinement
    for tol in (0.0, -1e-8, math.nan, math.inf):
        with pytest.raises(ValueError, match="refine_tol must be positive and finite"):
            EstimatorConfig(0.0, 1.0, refine_tol=tol)


# ----------------------------------------------------------------- separation


def test_separation_closed_form_at_zero_drift():
    # min(e - 2, 1/e) = 1/e
    got = skeleton_separation(1.0, 0.0, 1.0, CFG)
    assert got == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_separation_positive_and_monotone():
    rng = np.random.default_rng(5)
    for _ in range(25):
        theta0 = rng.uniform(-1.0, 1.0)
        d1, d2 = sorted(rng.uniform(0.05, 0.9, size=2))
        g1 = skeleton_separation(d1, theta0, 1.0, CFG)
        g2 = skeleton_separation(d2 + 1e-9, theta0, 1.0, CFG)
        assert g1 > 0
        assert g2 >= g1


def test_separation_degenerate_initial_value_warns():
    with pytest.warns(UserWarning):
        assert skeleton_separation(0.5, 0.0, 0.0, CFG) == 0.0


def test_separation_rejects_bad_delta():
    with pytest.raises(ValueError):
        skeleton_separation(-0.5, 0.0, 1.0, CFG)
    with pytest.raises(ValueError):
        skeleton_separation(3.0, 0.0, 1.0, CFG)  # window leaves the interval


# -------------------------------------------------------------- tangent fit


def test_weighted_median_example():
    assert estimator._weighted_median_rows(np.array([1.0, 2.0, 10.0]), np.array([1.0, 1.0, 3.0])) == 10.0


def test_weighted_median_matches_objective_scan():
    values = np.array([1.0, 2.0, 10.0])
    weights = np.array([1.0, 1.0, 3.0])
    grid = np.linspace(0, 12, 120001)
    obj = np.abs(grid[:, None] - values[None, :]) @ weights
    assert abs(estimator._weighted_median_rows(values, weights) - grid[np.argmin(obj)]) < 1e-4


@settings(max_examples=200, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(st.integers(-20, 20), st.integers(0, 10)), min_size=1, max_size=30
    )
)
def test_weighted_median_is_smallest_minimizer_by_brute_force(pairs):
    # integer data keep every objective value exact, so ties are real ties
    values = np.array([v for v, _ in pairs], dtype=float)
    weights = np.array([w for _, w in pairs], dtype=float)
    objective = {u: float(np.sum(weights * np.abs(values - u))) for u in values}
    best = min(objective.values())
    assert estimator._weighted_median_rows(values, weights) == min(u for u, f in objective.items() if f == best)


@settings(max_examples=100, deadline=None)
@given(
    rows=st.integers(1, 5),
    data=st.data(),
)
def test_weighted_median_rows_equal_each_row_alone(rows, data):
    # the row form counts the entries below half the total weight where a
    # one-row search would use searchsorted; the reference is that search
    k = data.draw(st.integers(1, 12))
    cells = st.lists(st.integers(-4, 4).map(float), min_size=k, max_size=k)
    values = np.array(data.draw(st.lists(cells, min_size=rows, max_size=rows)))
    weight = st.sampled_from([0.0, 0.5, 1.0, 3.0])
    weights = np.array(data.draw(st.lists(weight, min_size=k, max_size=k)))
    got = estimator._weighted_median_rows(values, weights)
    for row, pick in zip(values, got):
        order = np.argsort(row, kind="stable")
        cum = np.cumsum(weights[order])
        idx = int(np.searchsorted(cum, 0.5 * cum[-1], side="left"))
        assert pick == row[order][min(idx, k - 1)] == estimator._weighted_median_rows(row, weights)


def test_weighted_median_lower_median_on_even_split():
    assert estimator._weighted_median_rows(np.array([0.0, 1.0]), np.array([1.0, 1.0])) == 0.0


def test_tangent_fit_exact_on_tangent_curve():
    theta0, x0, c = 0.8, 1.5, -2.3
    t = np.linspace(0, 1, 129)
    y = path_from(c * t * x0 * np.exp(theta0 * t))
    assert tangent_l1_coefficient(y.values, y, theta0, x0) == pytest.approx(c, rel=1e-12)


def test_tangent_fit_zero_response():
    z = zero_path(64)
    assert tangent_l1_coefficient(z.values, z, 1.0, 1.0) == 0.0


def test_tangent_fit_requires_nonzero_x0():
    z = zero_path(64)
    with pytest.raises(ValueError):
        tangent_l1_coefficient(z.values, z, 1.0, 0.0)


@pytest.mark.parametrize("theta0, x0", [(1.0, math.nan), (1.0, math.inf), (math.nan, 1.0), (-math.inf, 1.0)])
def test_tangent_fit_rejects_a_non_finite_start_or_estimand(theta0, x0):
    z = simulate_fbm(H, 64, 1.0, make_rng(36, 0))
    integral = discounted_integral_rows(z.values, z.times, 1.0)
    y = path_from(noise_response(integral, np.exp(1.0 * z.times)))
    with pytest.raises(ValueError, match="must be finite"):
        tangent_l1_coefficient(y.values, y, theta0, x0)
    with pytest.raises(ValueError, match="must be finite"):
        tangent_l1_objective(y, 0.0, theta0, x0)


def test_tangent_fit_rejects_ratios_that_overflow():
    # a subnormal x0 makes the weights so small that Y_i / w_i is inf; the
    # rejection names x0 and raises no RuntimeWarning on the way
    z = simulate_fbm(H, 64, 1.0, make_rng(36, 1))
    integral = discounted_integral_rows(z.values, z.times, 1.0)
    y = path_from(noise_response(integral, np.exp(1.0 * z.times)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="x0 = 1e-320"):
            tangent_l1_coefficient(y.values, y, 1.0, 1e-320)
        with pytest.raises(ValueError, match="x0 = 1e-320"):
            tangent_l1_coefficient(np.stack([y.values, y.values]), y, 1.0, 1e-320)


def test_tangent_objective_minimal_at_solution():
    z = simulate_fbm(H, 256, 1.0, make_rng(34, 0))
    integral = discounted_integral_rows(z.values, z.times, 1.0)
    y = path_from(noise_response(integral, np.exp(1.0 * z.times)))
    zeta = tangent_l1_coefficient(y.values, y, 1.0, 1.0)
    j = lambda u: tangent_l1_objective(y, u, 1.0, 1.0)
    assert j(zeta) <= j(zeta + 0.1)
    assert j(zeta) <= j(zeta - 0.1)


def test_tangent_objective_zero_response_at_zero():
    assert tangent_l1_objective(zero_path(64), 0.0, 1.0, 1.0) == 0.0


def test_tangent_objective_subgradient_signs():
    z = simulate_fbm(H, 256, 1.0, make_rng(34, 1))
    integral = discounted_integral_rows(z.values, z.times, 1.0)
    y = path_from(noise_response(integral, np.exp(1.0 * z.times)))
    zeta = tangent_l1_coefficient(y.values, y, 1.0, 1.0)
    h = 1e-6
    j = lambda u: tangent_l1_objective(y, u, 1.0, 1.0)
    assert (j(zeta + h) - j(zeta)) / h >= -1e-9
    assert (j(zeta) - j(zeta - h)) / h <= 1e-9


def test_tangent_fit_matches_grid_oracle():
    # exact weighted median vs the argmin of the objective on a dense grid
    theta0, x0 = 1.0, 1.0
    for s in range(100):
        z = simulate_fbm(H, 128, 1.0, make_rng(35, s))
        integral = discounted_integral_rows(z.values, z.times, theta0)
        y = path_from(noise_response(integral, np.exp(theta0 * z.times)))
        yv = y.values[1 : y.n]
        w = y.times[1 : y.n] * x0 * np.exp(theta0 * y.times[1 : y.n])
        ratios = yv / w
        grid = np.linspace(ratios.min(), ratios.max(), 10**5)
        step = grid[1] - grid[0]
        obj = _tangent_objective_on_grid(y, grid, theta0, x0)
        oracle = grid[int(np.argmin(obj))]
        zeta = tangent_l1_coefficient(y.values, y, theta0, x0)
        assert abs(zeta - oracle) <= step + 1e-12, s


def _tangent_objective_on_grid(y, grid, theta0, x0, block=8192):
    t = y.times[1 : y.n]
    w = t * x0 * np.exp(theta0 * t)
    yv = y.values[1 : y.n]
    out = np.empty(grid.size)
    for lo in range(0, grid.size, block):
        chunk = grid[lo : lo + block]
        out[lo : lo + chunk.size] = np.abs(yv[None, :] - chunk[:, None] * w[None, :]).sum(axis=1)
    return out * y.dt


def test_linearized_objective_converges_first_order():
    # finite-eps objective |Y - (x(theta0 + eps u) - x(theta0))/eps| approaches
    # the tangent objective at rate O(eps)
    theta0, x0, u = 1.0, 1.0, 1.7
    z = simulate_fbm(H, 256, 1.0, make_rng(36, 0))
    integral = discounted_integral_rows(z.values, z.times, theta0)
    y = path_from(noise_response(integral, np.exp(theta0 * z.times)))

    def j_eps(eps):
        t = y.times[:-1]
        secant = (x0 * np.exp((theta0 + eps * u) * t) - x0 * np.exp(theta0 * t)) / eps
        return float(y.dt * np.sum(np.abs(y.values[:-1] - secant)))

    j0 = tangent_l1_objective(y, u, theta0, x0)
    gaps = np.array([abs(j_eps(e) - j0) for e in (1e-2, 1e-3, 1e-4)])
    assert gaps[1] < 0.2 * gaps[0]
    assert gaps[2] < 0.2 * gaps[1]
