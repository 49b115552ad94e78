"""Ornstein-Uhlenbeck type model dX_t = theta X_t dt + eps dZ_t, X_0 = x0.

The deterministic skeleton is x_t(theta) = x0 e^(theta t).  The exact
solution follows the variation-of-constants formula

    X_t = e^(theta t) (x0 + eps int_0^t e^(-theta s) dZ_s),

evaluated with the discrete left-endpoint integral
integrals.discounted_integral_rows, for one path or a block of paths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hermite import GridPath
from .integrals import discounted_integral_rows

__all__ = ["OuSpec", "deterministic_solution", "exact_solution", "exact_solution_rows"]


@dataclass(frozen=True)
class OuSpec:
    """Drift theta, noise scale eps > 0 and initial value x0."""

    theta: float
    eps: float
    x0: float

    def __post_init__(self):
        if self.eps <= 0:
            raise ValueError(f"eps must be positive, got {self.eps}")


def deterministic_solution(theta: float, x0: float, grid: GridPath) -> GridPath:
    """Noise-free skeleton x_t(theta) = x0 e^(theta t) on the grid of ``grid``."""
    return grid.with_values(x0 * np.exp(theta * grid.times), f"skeleton(theta={theta:g})")


def exact_solution_rows(
    integral: np.ndarray, growth: np.ndarray, eps: float, x0: float
) -> np.ndarray:
    """X_t = e^(theta t) (x0 + eps int_0^t e^(-theta s) dZ_s) for every row
    of ``integral`` (integrals.discounted_integral_rows at theta), with
    ``growth`` = e^(theta t) on the same grid.  One discounted integral
    serves the noise response and the solutions at every eps of a path."""
    return growth * (x0 + eps * integral)


def exact_solution(spec: OuSpec, z: GridPath) -> GridPath:
    """Variation-of-constants solution driven by the path z (z_0 must be 0);
    exact_solution_rows of the one path."""
    if z.values[0] != 0.0:
        raise ValueError("driving path must start at 0")
    integral = discounted_integral_rows(z.values, z.times, spec.theta)
    values = exact_solution_rows(integral, np.exp(spec.theta * z.times), spec.eps, spec.x0)
    tag = f"ou-exact(theta={spec.theta:g},eps={spec.eps:g},x0={spec.x0:g})"
    return z.with_values(values, tag)
