"""Ornstein-Uhlenbeck type model dX_t = theta X_t dt + eps dZ_t, X_0 = x0.

The deterministic skeleton is x_t(theta) = x0 e^(theta t).  The exact
solution follows the variation-of-constants formula

    X_t = e^(theta t) (x0 + eps int_0^t e^(-theta s) dZ_s),

evaluated with the discrete left-endpoint integral
integrals.discounted_integral; an Euler scheme is kept alongside to
demonstrate that the estimator is solver-agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hermite import GridPath
from .integrals import discounted_integral

__all__ = ["OuSpec", "deterministic_solution", "exact_solution", "euler_solution"]


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


def exact_solution(spec: OuSpec, z: GridPath) -> GridPath:
    """Variation-of-constants solution driven by the path z (z_0 must be 0)."""
    if z.values[0] != 0.0:
        raise ValueError("driving path must start at 0")
    integral = discounted_integral(z, spec.theta)
    values = np.exp(spec.theta * z.times) * (spec.x0 + spec.eps * integral)
    tag = f"ou-exact(theta={spec.theta:g},eps={spec.eps:g},x0={spec.x0:g})"
    return z.with_values(values, tag)


def euler_solution(spec: OuSpec, z: GridPath) -> GridPath:
    """Euler scheme X_{i+1} = X_i + theta X_i dt + eps (z_{i+1} - z_i)."""
    if z.values[0] != 0.0:
        raise ValueError("driving path must start at 0")
    dt = z.dt
    dz = np.diff(z.values)
    values = np.empty(z.n + 1)
    values[0] = spec.x0
    x = spec.x0
    for i in range(z.n):
        x = x + spec.theta * x * dt + spec.eps * dz[i]
        values[i + 1] = x
    tag = f"ou-euler(theta={spec.theta:g},eps={spec.eps:g},x0={spec.x0:g})"
    return z.with_values(values, tag)
