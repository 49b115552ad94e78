"""Simulation and minimum-L1 drift inference for Hermite-driven OU-type processes."""

from . import estimator, harness, hermite, integrals, ou, rng
from .estimator import *  # noqa: F403
from .harness import *  # noqa: F403
from .hermite import *  # noqa: F403
from .integrals import *  # noqa: F403
from .ou import *  # noqa: F403
from .rng import *  # noqa: F403

__all__ = sorted(
    name
    for module in (estimator, harness, hermite, integrals, ou, rng)
    for name in module.__all__
)
