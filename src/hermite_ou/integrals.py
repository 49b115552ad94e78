"""Pathwise Wiener integrals against Hermite paths and their covariances.

For deterministic f, g the Wiener integral against a Hermite process Z with
parameter H in (1/2, 1) satisfies

    E[ int f dZ * int g dZ ] = H(2H-1) int int f(u) g(v) |u-v|^(2H-2) du dv,

independent of the order q.  The double integral has an integrable diagonal
singularity (exponent in (-1, 0)); treating f and g as piecewise constant on
grid cells and integrating the kernel exactly over cell pairs keeps the
quadrature first-order in the cell values and exact for indicator
integrands.  The second antiderivative of |d|^(2H-2) used for the cell
integrals is psi(d) = |d|^(2H) / (2H(2H-1)).
"""

from __future__ import annotations

import numpy as np

from .hermite import GridPath

__all__ = [
    "wiener_integral",
    "covariance_functional",
    "discounted_integral",
    "discounted_integral_rows",
    "noise_response",
    "noise_response_rows",
    "response_covariance",
]


def _as_grid_values(f, n_points: int) -> np.ndarray:
    values = np.asarray(f, dtype=float)
    if values.shape != (n_points,):
        raise ValueError(f"integrand must have {n_points} grid values, got {values.shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError("integrand contains non-finite values")
    return values


def wiener_integral(f, z: GridPath) -> float:
    """Left-endpoint Riemann-Stieltjes sum: sum_i f(t_i) (z_{i+1} - z_i).

    f holds the integrand's values on the grid of z (length n + 1; the last
    value does not enter the left sum).  Linear in f and in z.
    """
    values = _as_grid_values(f, z.n + 1)
    return float(np.dot(values[:-1], np.diff(z.values)))


def _psi(d: np.ndarray, h: float) -> np.ndarray:
    return np.abs(d) ** (2.0 * h) / (2.0 * h * (2.0 * h - 1.0))


def covariance_functional(f, g, h: float, t_max: float = 1.0) -> float:
    """H(2H-1) * int int f(u) g(v) |u-v|^(2H-2) du dv over [0, t_max]^2.

    f and g are sampled at the points of a common uniform grid on
    [0, t_max]; each is treated as piecewise constant on cells with its
    left-endpoint value (matching wiener_integral), and the singular kernel
    is integrated exactly over every cell pair.  On the common grid the
    cell-pair integrals depend only on the lag, so the double sum reduces
    to a correlation.
    """
    if not 0.5 < h < 1.0:
        raise ValueError(f"H must be in (1/2, 1), got {h}")
    if t_max <= 0:
        raise ValueError(f"t_max must be positive, got {t_max}")
    fv = np.asarray(f, dtype=float)
    gv = _as_grid_values(g, fv.size)
    if fv.size < 2:
        raise ValueError("integrands need at least two grid values")
    n = fv.size - 1
    dt = t_max / n
    lags = np.arange(-n, n + 2, dtype=float) * dt  # psi at lags -n .. n+1
    psi = _psi(lags, h)
    kappa = psi[2:] + psi[:-2] - 2.0 * psi[1:-1]  # cell-pair integral at lag d
    conv = np.convolve(gv[:-1], kappa)[n - 1 : 2 * n - 1]
    return float(h * (2.0 * h - 1.0) * np.dot(fv[:-1], conv))


def discounted_integral_rows(values: np.ndarray, times: np.ndarray, theta: float) -> np.ndarray:
    """int_0^(t_i) e^(-theta s) dZ_s for every row of ``values``, each a
    driving path on the grid ``times``, starting from 0.

    The discrete variation-of-constants integral: cumulative left-endpoint
    sums [0, cumsum(e^(-theta t_i) (z_{i+1} - z_i))] along each row, with
    e^(-theta t_i) computed once for all rows.  Each row of a C-contiguous
    block is bit for bit the integral of that path alone, since the
    differences, products and running sums are the same operations in the
    same order.  noise_response_rows and ou.exact_solution_rows are built on
    it.
    """
    out = np.empty(values.shape)
    out[..., 0] = 0.0
    incr = np.exp(-theta * times[:-1]) * np.diff(values, axis=-1)
    np.cumsum(incr, axis=-1, out=out[..., 1:])
    return out


def discounted_integral(z: GridPath, theta: float) -> np.ndarray:
    """discounted_integral_rows of the one path z."""
    return discounted_integral_rows(z.values, z.times, theta)


def noise_response_rows(integral: np.ndarray, growth: np.ndarray) -> np.ndarray:
    """Y_t = e^(theta t) * int_0^t e^(-theta s) dZ_s for every row of
    ``integral`` (discounted_integral_rows at theta), with
    ``growth`` = e^(theta t) on the same grid, computed once per block."""
    return growth * integral


def noise_response(z: GridPath, theta: float) -> GridPath:
    """Y_t = e^(theta t) * int_0^t e^(-theta s) dZ_s, the drift response to z.

    Discretized with the left-endpoint Wiener integral; Y_0 = 0 and
    eps * Y equals the exact OU solution minus its deterministic skeleton.
    This is noise_response_rows of the one path.
    """
    y = noise_response_rows(discounted_integral(z, theta), np.exp(theta * z.times))
    return z.with_values(y, f"noise-response(theta={theta:g})")


def _rect_kernel_mass(u_edges: np.ndarray, v_edges: np.ndarray, h: float) -> np.ndarray:
    """Exact integrals of |u-v|^(2H-2) over all cell rectangles (4-point rule)."""
    e = _psi(u_edges[:, None] - v_edges[None, :], h)
    return -(e[1:, 1:] - e[1:, :-1] - e[:-1, 1:] + e[:-1, :-1])


def response_covariance(t: float, s: float, theta: float, h: float, n_quad: int = 512) -> float:
    """Cov(Y_t, Y_s) for the noise-response process of a Hermite driver:

    e^(theta (t+s)) * H(2H-1) * int_0^t int_0^s e^(-theta u) e^(-theta v)
    |u-v|^(2H-2) du dv.

    Quadrature with exact kernel-cell integrals on separate uniform grids
    over [0, t] and [0, s] and midpoint values of the exponentials; exact
    for theta = 0 at any resolution.
    """
    if not 0.5 < h < 1.0:
        raise ValueError(f"H must be in (1/2, 1), got {h}")
    if t < 0 or s < 0:
        raise ValueError("t and s must be nonnegative")
    if t == 0.0 or s == 0.0:
        return 0.0
    u_edges = np.linspace(0.0, t, n_quad + 1)
    v_edges = np.linspace(0.0, s, n_quad + 1)
    mass = _rect_kernel_mass(u_edges, v_edges, h)
    fu = np.exp(-theta * 0.5 * (u_edges[:-1] + u_edges[1:]))
    gv = np.exp(-theta * 0.5 * (v_edges[:-1] + v_edges[1:]))
    return float(np.exp(theta * (t + s)) * h * (2.0 * h - 1.0) * fu @ mass @ gv)
