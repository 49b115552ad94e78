"""Shared Monte Carlo fixtures; heavy path sets are generated once per session."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from hermite_ou import RngState
from hermite_ou.hermite import simulate_fbm, simulate_partial_sum

SEED = 20250810

# grid indices of t = 0.25, 0.5, 0.75, 1.0 for n = 512
QUARTER_IDX = (128, 256, 384, 512)


def _on_a_worker_thread(draw, *args):
    """draw(*args) run on one worker thread, as the package runs every experiment
    task: on the main thread glibc trims its heap after each path, so the next
    path faults its pages in again.  The streams are the same, so the values
    are bit-identical to a main-thread draw."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(draw, *args).result()


@pytest.fixture(scope="session")
def grid_samples():
    """Lazy cache of Hermite partial-sum samples at t in {0.25, 0.5, 0.75, 1}.

    get(q, H) -> array of shape (4000, 4); n = 512, m = 32, one stream per
    replication.
    """
    cache = {}

    def draw(q, h):
        vals = np.empty((4000, 4))
        for s in range(4000):
            path = simulate_partial_sum(q, h, 512, 32, 1.0, RngState(SEED, s))
            vals[s] = path.values[list(QUARTER_IDX)]
        return vals

    def get(q, h):
        key = (q, h)
        if key not in cache:
            cache[key] = _on_a_worker_thread(draw, q, h)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def fbm07_paths():
    """4000 exact fBm paths, H = 0.7, n = 512 on [0, 1] (one stream each)."""

    def draw():
        paths = np.empty((4000, 513))
        for s in range(4000):
            paths[s] = simulate_fbm(0.7, 512, 1.0, RngState(SEED + 1, s)).values
        return paths

    return _on_a_worker_thread(draw)
