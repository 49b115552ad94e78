import numpy as np
import pytest

from hermite_ou import make_rng
from hermite_ou.estimator import tangent_l1_coefficient, tangent_l1_coefficient_rows
from hermite_ou.hermite import GridPath, Provenance, simulate_fbm
from hermite_ou.integrals import (
    covariance_functional,
    discounted_integral_rows,
    noise_response,
    noise_response_rows,
    wiener_integral,
)
from hermite_ou.ou import OuSpec, deterministic_solution, exact_solution, exact_solution_rows

H = 0.7


def fbm_cov(s, t, h=H):
    return 0.5 * (s ** (2 * h) + t ** (2 * h) - abs(t - s) ** (2 * h))


def zero_path(n=64, t_max=1.0):
    return GridPath(t_max, n, np.zeros(n + 1), Provenance(0, 0, "zero"))


# ------------------------------------------------------------ wiener integral


def test_wiener_constant_one_telescopes():
    z = simulate_fbm(H, 64, 1.0, make_rng(1, 0))
    assert wiener_integral(np.ones(65), z) == pytest.approx(z.values[-1], rel=1e-14)


def test_wiener_zero_integrand():
    z = simulate_fbm(H, 64, 1.0, make_rng(1, 1))
    assert wiener_integral(np.zeros(65), z) == 0.0


def test_wiener_linearity():
    z = simulate_fbm(H, 64, 1.0, make_rng(1, 2))
    g = np.sin(np.linspace(0, 3, 65))
    assert wiener_integral(2 * g, z) == pytest.approx(2 * wiener_integral(g, z), rel=1e-14)


def test_wiener_length_mismatch():
    z = simulate_fbm(H, 64, 1.0, make_rng(1, 3))
    with pytest.raises(ValueError):
        wiener_integral(np.ones(64), z)


# ----------------------------------------------------- covariance functional


def test_covariance_constant_one_is_unit_variance():
    one = np.ones(129)
    assert covariance_functional(one, one, H) == pytest.approx(1.0, abs=1e-12)


def test_covariance_indicators_reproduce_path_covariance():
    t = np.arange(513) / 512
    for s_cut, t_cut in [(0.5, 1.0), (0.25, 0.75), (1.0, 1.0)]:
        f = (t < s_cut).astype(float)
        g = (t < t_cut).astype(float)
        got = covariance_functional(f, g, H)
        assert got == pytest.approx(fbm_cov(s_cut, t_cut), abs=1e-10)


def test_covariance_disjoint_indicators():
    t = np.arange(513) / 512
    f = (t < 0.5).astype(float)
    g = ((t >= 0.5) & (t < 1.0)).astype(float)
    target = fbm_cov(0.5, 1.0) - fbm_cov(0.5, 0.5)
    assert covariance_functional(f, g, H) == pytest.approx(target, abs=1e-10)


def test_covariance_symmetry_and_bilinearity():
    rng = np.random.default_rng(7)
    f = rng.normal(size=65)
    g = rng.normal(size=65)
    h2 = rng.normal(size=65)
    c = lambda a, b: covariance_functional(a, b, H)
    assert c(f, g) == pytest.approx(c(g, f), rel=1e-12)
    assert c(2.5 * f + 0.5 * h2, g) == pytest.approx(
        2.5 * c(f, g) + 0.5 * c(h2, g), rel=1e-10
    )


def test_covariance_quadrature_stable_for_indicators():
    # cells align with the cut points, so doubling the grid changes nothing
    for n in (128, 256):
        t1 = np.arange(n + 1) / n
        t2 = np.arange(2 * n + 1) / (2 * n)
        c1 = covariance_functional((t1 < 0.5).astype(float), np.ones(n + 1), H)
        c2 = covariance_functional((t2 < 0.5).astype(float), np.ones(2 * n + 1), H)
        assert abs(c1 - c2) < 1e-4


def test_covariance_matches_monte_carlo_integrals(fbm07_paths):
    # exp(-u) against 1 over 4000 exact fBm paths, 3 SE band
    t = np.arange(513) / 512
    f = np.exp(-t)
    g = np.ones(513)
    prods = np.array(
        [np.dot(f[:-1], np.diff(p)) * (p[-1] - p[0]) for p in fbm07_paths]
    )
    target = covariance_functional(f, g, H)
    se = prods.std(ddof=1) / np.sqrt(prods.size)
    assert abs(prods.mean() - target) < 3 * se


@pytest.mark.parametrize("f", [[1.0, np.nan, 1.0], [1.0, 1.0, np.inf], [[1.0, 1.0, 1.0]]])
def test_covariance_rejects_a_non_finite_or_2d_first_integrand(f):
    with pytest.raises(ValueError, match="integrand"):
        covariance_functional(f, np.ones(3), H)


def test_covariance_rejects_bad_h():
    with pytest.raises(ValueError):
        covariance_functional(np.ones(9), np.ones(9), 0.5)


# ------------------------------------------------------------ noise response


def test_discounted_integral_is_running_wiener_integral():
    z = simulate_fbm(H, 64, 1.0, make_rng(2, 2))
    t = z.times
    got = discounted_integral_rows(z.values, z.times, 0.8)
    assert got[0] == 0.0
    for k in (1, 17, 64):
        want = wiener_integral(np.exp(-0.8 * t) * (t < t[k]), z)
        assert got[k] == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_noise_response_zero_drift_is_identity():
    z = simulate_fbm(H, 64, 1.0, make_rng(2, 0))
    np.testing.assert_allclose(noise_response(z, 0.0).values, z.values, atol=1e-15)


def test_noise_response_of_zero_path():
    np.testing.assert_array_equal(noise_response(zero_path(), 1.3).values, np.zeros(65))


def test_noise_response_matches_exact_solution_gap():
    z = simulate_fbm(H, 256, 1.0, make_rng(2, 1))
    for theta in (-1.0, 0.4, 1.0):
        spec = OuSpec(theta=theta, eps=0.05, x0=1.2)
        x = exact_solution(spec, z)
        skeleton = deterministic_solution(theta, spec.x0, z)
        y = noise_response(z, theta)
        np.testing.assert_allclose(
            x.values - skeleton.values, spec.eps * y.values, atol=1e-12, rtol=1e-10
        )


def test_noise_response_keeps_rng_provenance():
    z = simulate_fbm(H, 32, 1.0, make_rng(11, 5))
    y = noise_response(z, 1.0)
    assert (y.provenance.seed, y.provenance.stream) == (11, 5)


def bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


@pytest.mark.parametrize("n, t_max, theta, x0", [(64, 1.0, 1.0, 1.0), (37, 2.0, -0.7, -2.5)])
def test_block_rows_equal_the_one_path_functions_bit_for_bit(n, t_max, theta, x0):
    # the block-wide solves of the limit-dist and consistency kinds: one
    # discounted integral per path and e^(theta t) once per block
    rng = np.random.default_rng(5)
    paths = [simulate_fbm(H, n, t_max, make_rng(41, s)) for s in range(4)]
    for scale in (1e-3, 1e3):
        walk = np.concatenate([[0.0], np.cumsum(rng.standard_normal(n) * scale)])
        paths.append(GridPath(t_max, n, walk, Provenance(0, 9, "walk")))
    paths.append(zero_path(n, t_max))
    grid = paths[0]
    integral = discounted_integral_rows(np.stack([z.values for z in paths]), grid.times, theta)
    growth = np.exp(theta * grid.times)
    ys = noise_response_rows(integral, growth)
    zetas = tangent_l1_coefficient_rows(ys, grid, theta, x0)
    for k, z in enumerate(paths):
        assert np.array_equal(bits(integral[k]), bits(discounted_integral_rows(z.values, z.times, theta)))
        assert np.array_equal(bits(ys[k]), bits(noise_response(z, theta).values))
        assert bits(zetas[k]) == bits(tangent_l1_coefficient(noise_response(z, theta), theta, x0))
    for eps in (0.5, 1e-3):
        xs = exact_solution_rows(integral, growth, eps, x0)
        for k, z in enumerate(paths):
            assert np.array_equal(bits(xs[k]), bits(exact_solution(OuSpec(theta, eps, x0), z).values))


# -------------------------------------------------- noise response covariance


def test_response_variance_matches_monte_carlo(fbm07_paths):
    theta0 = 1.0
    idx = {0.5: 256, 1.0: 512}
    t_grid = np.arange(513) / 512
    disc = np.exp(-theta0 * t_grid[:-1])
    for t_point, i in idx.items():
        vals = np.array(
            [
                np.exp(theta0 * t_point) * np.sum(disc[:i] * np.diff(p)[:i])
                for p in fbm07_paths
            ]
        )
        f = np.exp(theta0 * (t_point - t_grid)) * (t_grid < t_point)
        target = covariance_functional(f, f, H)  # exact for the grid sum
        se = np.std(vals**2, ddof=1) / np.sqrt(vals.size)
        assert abs(np.mean(vals**2) - target) < 3 * se, (t_point, np.mean(vals**2), target)

