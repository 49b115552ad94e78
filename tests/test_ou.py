import math

import numpy as np
import pytest

from hermite_ou import make_rng
from hermite_ou.hermite import GridPath, Provenance, simulate_fbm
from hermite_ou.ou import OuSpec, deterministic_solution, exact_solution

H = 0.7


def zero_path(n=64, t_max=1.0):
    return GridPath(t_max, n, np.zeros(n + 1), Provenance(0, 0, "zero"))


def cumtrapz(v, dt):
    return np.concatenate([[0.0], np.cumsum(0.5 * (v[1:] + v[:-1]) * dt)])


def test_ou_spec_requires_positive_eps():
    with pytest.raises(ValueError):
        OuSpec(theta=1.0, eps=0.0, x0=1.0)


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
    spec = OuSpec(theta=0.8, eps=0.1, x0=1.5)
    z = zero_path(128)
    np.testing.assert_allclose(
        exact_solution(spec, z).values,
        deterministic_solution(spec.theta, spec.x0, z).values,
        rtol=1e-14,
    )


def test_exact_solution_zero_drift_is_affine_in_noise():
    spec = OuSpec(theta=0.0, eps=0.3, x0=2.0)
    z = simulate_fbm(H, 128, 1.0, make_rng(3, 0))
    np.testing.assert_allclose(
        exact_solution(spec, z).values, spec.x0 + spec.eps * z.values, rtol=1e-13
    )


def test_exact_solution_requires_zero_start():
    bad = GridPath(1.0, 4, np.array([1.0, 0, 0, 0, 0]), Provenance(0, 0, "x"))
    with pytest.raises(ValueError):
        exact_solution(OuSpec(1.0, 0.1, 1.0), bad)


def test_exact_solution_affinity_in_eps():
    z = simulate_fbm(H, 128, 1.0, make_rng(3, 1))
    x1 = exact_solution(OuSpec(1.0, 0.1, 1.0), z)
    x2 = exact_solution(OuSpec(1.0, 0.2, 1.0), z)
    skel = deterministic_solution(1.0, 1.0, z)
    np.testing.assert_allclose(
        x2.values - skel.values, 2 * (x1.values - skel.values), rtol=1e-11, atol=1e-14
    )


@pytest.mark.parametrize("theta0", [-1.0, 1.0])
def test_gronwall_path_bound(theta0):
    # sup |X - x(theta0)| <= 1.01 * eps * e^{|theta0|} * sup |Z|, every path
    eps = 0.1
    spec = OuSpec(theta=theta0, eps=eps, x0=1.0)
    for s in range(200):
        z = simulate_fbm(H, 256, 1.0, make_rng(99, s))
        x = exact_solution(spec, z)
        skel = deterministic_solution(theta0, spec.x0, z)
        lhs = np.max(np.abs(x.values - skel.values))
        rhs = 1.01 * eps * math.exp(abs(theta0)) * np.max(np.abs(z.values))
        assert lhs <= rhs, (s, lhs, rhs)


@pytest.mark.parametrize("theta0", [-1.0, 1.0])
def test_integral_inequality_discrete(theta0):
    # V_t <= |theta0| int_0^t V ds + eps |Z_t| within 1% slack on the grid
    eps = 0.1
    spec = OuSpec(theta=theta0, eps=eps, x0=1.0)
    for s in range(50):
        z = simulate_fbm(H, 256, 1.0, make_rng(98, s))
        x = exact_solution(spec, z)
        skel = deterministic_solution(theta0, spec.x0, z)
        v = np.abs(x.values - skel.values)
        rhs = abs(theta0) * cumtrapz(v, z.dt) + eps * np.abs(z.values)
        assert np.all(v <= 1.01 * rhs + 1e-9), s
