"""Shared Monte Carlo fixtures; heavy path sets are generated once per session."""

import numpy as np
import pytest

from hermite_ou import RngState
from hermite_ou.hermite import simulate_fbm, simulate_partial_sum

SEED = 20250810

# grid indices of t = 0.25, 0.5, 0.75, 1.0 for n = 512
QUARTER_IDX = (128, 256, 384, 512)


@pytest.fixture(scope="session")
def grid_samples():
    """Lazy cache of Hermite partial-sum samples at t in {0.25, 0.5, 0.75, 1}.

    get(q, H) -> array of shape (4000, 4); n = 512, m = 32, one stream per
    replication.
    """
    cache = {}

    def get(q, h):
        key = (q, h)
        if key not in cache:
            vals = np.empty((4000, 4))
            for s in range(4000):
                path = simulate_partial_sum(q, h, 512, 32, 1.0, RngState(SEED, s))
                vals[s] = path.values[list(QUARTER_IDX)]
            cache[key] = vals
        return cache[key]

    return get


@pytest.fixture(scope="session")
def fbm07_paths():
    """4000 exact fBm paths, H = 0.7, n = 512 on [0, 1] (one stream each)."""
    paths = np.empty((4000, 513))
    for s in range(4000):
        paths[s] = simulate_fbm(0.7, 512, 1.0, RngState(SEED + 1, s)).values
    return paths
