import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hermite_ou import estimator, make_rng
from hermite_ou.estimator import (
    EstimatorConfig,
    l1_objective,
    minimize_l1,
    skeleton_separation,
    tangent_l1_coefficient,
    tangent_l1_objective,
    weighted_median,
)
from hermite_ou.hermite import GridPath, Provenance, simulate_fbm
from hermite_ou.integrals import noise_response
from hermite_ou.ou import OuSpec, deterministic_solution, exact_solution

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
    x = exact_solution(OuSpec(0.5, 0.2, 1.0), z)
    doubled = path_from(2 * x.values)
    assert l1_objective(doubled, 0.5, 2.0) == pytest.approx(
        2 * l1_objective(x, 0.5, 1.0), rel=1e-12
    )


def test_objective_is_continuous_in_theta():
    z = simulate_fbm(H, 512, 1.0, make_rng(1, 1))
    x = exact_solution(OuSpec(1.0, 0.1, 1.0), z)
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
        x = exact_solution(OuSpec(theta0, 0.05, 1.0), z)
        res = minimize_l1(x, 1.0, CFG)
        hits += abs(res.theta_hat - theta0) < 0.5
    assert hits >= 190


def test_minimize_matches_dense_grid_oracle():
    grid = np.linspace(CFG.theta_lo, CFG.theta_hi, 10**5)
    spacing = grid[1] - grid[0]
    for s in range(20):
        z = simulate_fbm(H, 256, 1.0, make_rng(32, s))
        x = exact_solution(OuSpec(1.0, 0.05, 1.0), z)
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
    x = exact_solution(OuSpec(1.0, 0.1, 1.0), z)
    res = minimize_l1(x, 1.0, CFG)
    assert CFG.theta_lo < res.bracket[0] and res.bracket[1] < CFG.theta_hi
    wide = EstimatorConfig(theta_lo=-3.0, theta_hi=3.0)
    res_wide = minimize_l1(x, 1.0, wide)
    assert abs(res.theta_hat - res_wide.theta_hat) < 1e-7


def test_minimize_counts_scan_and_refinement_evaluations():
    # the coarse scan counts one evaluation per grid point without calling
    # l1_objective; the golden-section refinement calls it once per evaluation
    z = simulate_fbm(H, 512, 1.0, make_rng(34, 0))
    x = exact_solution(OuSpec(1.0, 0.1, 1.0), z)
    calls = []

    def counted(*args):
        calls.append(args[1])
        return l1_objective(*args)

    with mock.patch.object(estimator, "l1_objective", counted):
        res = minimize_l1(x, 1.0, CFG)
    assert res.n_evals == CFG.coarse_points + len(calls) == 235
    step = (CFG.theta_hi - CFG.theta_lo) / (CFG.coarse_points - 1)
    assert all(abs(theta - res.theta_hat) < 2 * step for theta in calls)


@st.composite
def _windows(draw):
    lo = draw(st.floats(-5.0, 4.9))
    return lo, draw(st.floats(lo + 0.01, 5.0))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 3000),
    points=st.integers(3, 700),
    window=_windows(),
    x0=st.floats(0.05, 3.0) | st.floats(-3.0, -0.05),
    t_max=st.floats(0.25, 1.0),
    seed=st.integers(0, 2**32 - 1),
    block=st.just(estimator._SCAN_BLOCK) | st.integers(1, 4 * 3001),
)
@example(n=64, points=10, window=(-1.0, 2.0), x0=1.0, t_max=1.0, seed=0, block=3 * 65)
@example(n=64, points=10, window=(-1.0, 2.0), x0=-0.7, t_max=1.0, seed=1, block=64)
def test_coarse_scan_matches_objective_bit_for_bit(n, points, window, x0, t_max, seed, block):
    # block=3*65 leaves a partial last block; block=64 < n + 1 gives one row per block
    rng = np.random.default_rng(seed)
    t = np.arange(n + 1) * (t_max / n)
    noise = rng.uniform(0.0, 1.0) * np.cumsum(rng.standard_normal(n + 1)) / math.sqrt(n)
    x = path_from(x0 * np.exp(rng.uniform(-3.0, 3.0) * t) + noise, t_max)
    thetas = np.linspace(*window, points)
    with mock.patch.object(estimator, "_SCAN_BLOCK", block):
        scan = estimator._coarse_scan(x, thetas, x0)
    assert np.array_equal(scan, [l1_objective(x, theta, x0) for theta in thetas])


def test_minimize_rejects_overflowing_window():
    x = path_from(np.ones(513))
    with pytest.raises(ValueError, match="overflow"):
        minimize_l1(x, 1.0, EstimatorConfig(-800.0, 800.0))
    with pytest.raises(ValueError, match="overflow"):
        minimize_l1(x, 1e300, EstimatorConfig(-2.0, 20.0))
    with pytest.raises(ValueError, match="overflow"):  # theta_lo * t_max is -inf
        minimize_l1(path_from(np.ones(513), 2.0), 1.0, EstimatorConfig(-1e308, 0.0))


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
    assert weighted_median([1.0, 2.0, 10.0], [1.0, 1.0, 3.0]) == 10.0


def test_weighted_median_matches_objective_scan():
    values = np.array([1.0, 2.0, 10.0])
    weights = np.array([1.0, 1.0, 3.0])
    grid = np.linspace(0, 12, 120001)
    obj = np.abs(grid[:, None] - values[None, :]) @ weights
    assert abs(weighted_median(values, weights) - grid[np.argmin(obj)]) < 1e-4


def test_weighted_median_lower_median_on_even_split():
    assert weighted_median([0.0, 1.0], [1.0, 1.0]) == 0.0


def test_tangent_fit_exact_on_tangent_curve():
    theta0, x0, c = 0.8, 1.5, -2.3
    t = np.linspace(0, 1, 129)
    y = path_from(c * t * x0 * np.exp(theta0 * t))
    assert tangent_l1_coefficient(y, theta0, x0) == pytest.approx(c, rel=1e-12)


def test_tangent_fit_zero_response():
    assert tangent_l1_coefficient(zero_path(64), 1.0, 1.0) == 0.0


def test_tangent_fit_requires_nonzero_x0():
    with pytest.raises(ValueError):
        tangent_l1_coefficient(zero_path(64), 1.0, 0.0)


def test_tangent_objective_minimal_at_solution():
    z = simulate_fbm(H, 256, 1.0, make_rng(34, 0))
    y = noise_response(z, 1.0)
    zeta = tangent_l1_coefficient(y, 1.0, 1.0)
    j = lambda u: tangent_l1_objective(y, u, 1.0, 1.0)
    assert j(zeta) <= j(zeta + 0.1)
    assert j(zeta) <= j(zeta - 0.1)


def test_tangent_objective_zero_response_at_zero():
    assert tangent_l1_objective(zero_path(64), 0.0, 1.0, 1.0) == 0.0


def test_tangent_objective_subgradient_signs():
    z = simulate_fbm(H, 256, 1.0, make_rng(34, 1))
    y = noise_response(z, 1.0)
    zeta = tangent_l1_coefficient(y, 1.0, 1.0)
    h = 1e-6
    j = lambda u: tangent_l1_objective(y, u, 1.0, 1.0)
    assert (j(zeta + h) - j(zeta)) / h >= -1e-9
    assert (j(zeta) - j(zeta - h)) / h <= 1e-9


def test_tangent_fit_matches_grid_oracle():
    # exact weighted median vs the argmin of the objective on a dense grid
    theta0, x0 = 1.0, 1.0
    for s in range(100):
        z = simulate_fbm(H, 128, 1.0, make_rng(35, s))
        y = noise_response(z, theta0)
        yv = y.values[1 : y.n]
        w = y.times[1 : y.n] * x0 * np.exp(theta0 * y.times[1 : y.n])
        ratios = yv / w
        grid = np.linspace(ratios.min(), ratios.max(), 10**5)
        step = grid[1] - grid[0]
        obj = _tangent_objective_on_grid(y, grid, theta0, x0)
        oracle = grid[int(np.argmin(obj))]
        zeta = tangent_l1_coefficient(y, theta0, x0)
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
    y = noise_response(z, theta0)

    def j_eps(eps):
        t = y.times[:-1]
        secant = (x0 * np.exp((theta0 + eps * u) * t) - x0 * np.exp(theta0 * t)) / eps
        return float(y.dt * np.sum(np.abs(y.values[:-1] - secant)))

    j0 = tangent_l1_objective(y, u, theta0, x0)
    gaps = np.array([abs(j_eps(e) - j0) for e in (1e-2, 1e-3, 1e-4)])
    assert gaps[1] < 0.2 * gaps[0]
    assert gaps[2] < 0.2 * gaps[1]
