import math

import numpy as np
import pytest

from hermite_ou import RngState
from hermite_ou.hermite import GridPath, Provenance, simulate_fbm
from hermite_ou.integrals import discounted_integral_rows
from hermite_ou.ou import deterministic_solution, exact_solution

H = 0.7


def zero_path(n=64, t_max=1.0):
    return GridPath(t_max, n, np.zeros(n + 1), Provenance(0, 0, "zero"))


def cumtrapz(v, dt):
    return np.concatenate([[0.0], np.cumsum(0.5 * (v[1:] + v[:-1]) * dt)])


def test_deterministic_zero_drift_is_constant():
    x = deterministic_solution(0.0, 2.5, zero_path())
    np.testing.assert_array_equal(x.values, np.full(65, 2.5))


def test_deterministic_zero_start_stays_zero():
    x = deterministic_solution(1.7, 0.0, zero_path())
    np.testing.assert_array_equal(x.values, np.zeros(65))


def test_deterministic_endpoint_is_exp():
    x = deterministic_solution(1.0, 1.0, zero_path(128))
    assert x.values[-1] == pytest.approx(math.e, rel=1e-12)


def test_exact_solution_of_zero_noise_is_skeleton():
    z = zero_path(128)
    x = exact_solution(discounted_integral_rows(z.values, z.times, 0.8), np.exp(0.8 * z.times), 0.1, 1.5)
    np.testing.assert_allclose(x, deterministic_solution(0.8, 1.5, z).values, rtol=1e-14)


def test_exact_solution_zero_drift_is_affine_in_noise():
    z = simulate_fbm(H, 128, 1.0, RngState(3, 0))
    x = exact_solution(discounted_integral_rows(z.values, z.times, 0.0), np.exp(0.0 * z.times), 0.3, 2.0)
    np.testing.assert_allclose(x, 2.0 + 0.3 * z.values, rtol=1e-13)


def test_exact_solution_affinity_in_eps():
    z = simulate_fbm(H, 128, 1.0, RngState(3, 1))
    integral, growth = discounted_integral_rows(z.values, z.times, 1.0), np.exp(z.times)
    x1 = exact_solution(integral, growth, 0.1, 1.0)
    x2 = exact_solution(integral, growth, 0.2, 1.0)
    skel = deterministic_solution(1.0, 1.0, z)
    np.testing.assert_allclose(x2 - skel.values, 2 * (x1 - skel.values), rtol=1e-11, atol=1e-14)


@pytest.mark.parametrize("theta0", [-1.0, 1.0])
def test_integral_inequality_discrete(theta0):
    # V_t <= |theta0| int_0^t V ds + eps |Z_t| within 1% slack on the grid
    eps = 0.1
    for s in range(50):
        z = simulate_fbm(H, 256, 1.0, RngState(98, s))
        integral = discounted_integral_rows(z.values, z.times, theta0)
        x = exact_solution(integral, np.exp(theta0 * z.times), eps, 1.0)
        skel = deterministic_solution(theta0, 1.0, z)
        v = np.abs(x - skel.values)
        rhs = abs(theta0) * cumtrapz(v, z.dt) + eps * np.abs(z.values)
        assert np.all(v <= 1.01 * rhs + 1e-9), s
