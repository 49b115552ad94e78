"""Ornstein-Uhlenbeck type model dX_t = theta X_t dt + eps dZ_t, X_0 = x0.

The deterministic skeleton is x_t(theta) = x0 e^(theta t).  The exact
solution follows the variation-of-constants formula

    X_t = e^(theta t) (x0 + eps int_0^t e^(-theta s) dZ_s),

evaluated with the discrete left-endpoint integral
integrals.discounted_integral_rows, for one path or a block of paths.
"""

from __future__ import annotations

import numpy as np

from .hermite import GridPath

__all__ = ["deterministic_solution", "exact_solution"]


def deterministic_solution(theta: float, x0: float, grid: GridPath) -> GridPath:
    """Noise-free skeleton x_t(theta) = x0 e^(theta t) on the grid of ``grid``."""
    return grid.with_values(x0 * np.exp(theta * grid.times), f"skeleton(theta={theta:g})")


def exact_solution(integral: np.ndarray, growth: np.ndarray, eps: float, x0: float) -> np.ndarray:
    """X_t = e^(theta t) (x0 + eps int_0^t e^(-theta s) dZ_s) for every row
    of ``integral`` (integrals.discounted_integral_rows at theta; one 1-D
    row is one path), with ``growth`` = e^(theta t) on the same grid.  One
    discounted integral serves the noise response and the solutions at
    every eps of a path."""
    return growth * (x0 + eps * integral)
