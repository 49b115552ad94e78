import inspect
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import kstest

from hermite_ou import (
    NegativeEigenvalueError,
    RngState,
    fgn_autocov,
    sample_stationary_gaussian,
)
from hermite_ou import rng as rng_module
from hermite_ou.rng import _embedding_eigenvalues, _embedding_scale, _polar_pairs


def test_same_seed_stream_is_bit_identical():
    a = RngState(42, 0).generator().random(100)
    b = RngState(42, 0).generator().random(100)
    np.testing.assert_array_equal(a, b)


def test_distinct_streams_differ():
    a = RngState(42, 0).generator().random(100)
    b = RngState(42, 1).generator().random(100)
    assert np.any(a != b)


def test_normal_deviates_clt_mean():
    # 4-sigma CLT band for the mean of the 1e5 standard normals the sampler
    # draws into its spectrum
    z = _polar_pairs(RngState(42, 0).generator(), np.empty(10**5, dtype=complex)).view(float)
    assert abs(z.mean()) < 4 / np.sqrt(10**5)


def test_rng_state_validates_range():
    with pytest.raises(ValueError):
        RngState(-1, 0)
    with pytest.raises(ValueError):
        RngState(0, 2**64)


@pytest.mark.parametrize(
    "seed, stream, name",
    [(0, 2.7, "stream"), (1.5, 0, "seed"), (True, 0, "seed"), (0, np.False_, "stream"), ("1", 0, "seed")],
)
def test_rng_state_takes_integers_only(seed, stream, name):
    # a float or a bool would otherwise name the stream of another replication
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        RngState(seed, stream)


def test_rng_state_stores_numpy_integers_as_int():
    state = RngState(np.uint64(2**64 - 1), np.int32(3))
    assert (type(state.seed), type(state.stream)) == (int, int)
    assert state == RngState(2**64 - 1, 3)
    np.testing.assert_array_equal(state.generator().random(8), RngState(2**64 - 1, 3).generator().random(8))


def test_fgn_autocov_white_noise_lag1_is_zero():
    gamma = fgn_autocov(0.5, 4)
    assert gamma[1] == pytest.approx(0.0, abs=1e-15)


def test_fgn_autocov_unit_variance():
    for h in (0.1, 0.5, 0.7, 0.95):
        assert fgn_autocov(h, 8)[0] == 1.0


def test_fgn_autocov_lag1_h07():
    # 0.5 * (2^1.4 - 2), evaluated directly
    assert fgn_autocov(0.7, 4)[1] == pytest.approx(0.31951, abs=1e-5)


def test_fgn_autocov_rejects_bad_h():
    for h in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            fgn_autocov(h, 8)


def test_sampler_reproducible():
    a = sample_stationary_gaussian(0.7, 256, RngState(7, 3))
    b = sample_stationary_gaussian(0.7, 256, RngState(7, 3))
    np.testing.assert_array_equal(a, b)


def test_sampler_white_noise_lag1_correlation():
    n = 10**5
    x = sample_stationary_gaussian(0.5, n, RngState(42, 0))
    r1 = np.mean(x[:-1] * x[1:]) / np.mean(x * x)
    assert abs(r1) < 4 / np.sqrt(n)


def test_sampler_white_noise_is_standard_normal_ks():
    x = sample_stationary_gaussian(0.5, 10**4, RngState(11, 0))
    assert kstest(x, "norm").pvalue > 0.01


def test_sampler_matches_target_autocovariance():
    # 4000 independent length-512 samples; lags 0..8 within 3 standard errors
    n, reps = 512, 4000
    acov = fgn_autocov(0.7, n)
    paths = np.array(
        [sample_stationary_gaussian(0.7, n, RngState(123, s)) for s in range(reps)]
    )
    for lag in range(9):
        per_rep = np.mean(paths[:, : n - lag] * paths[:, lag:] if lag else paths * paths, axis=1)
        est = per_rep.mean()
        se = per_rep.std(ddof=1) / np.sqrt(reps)
        assert abs(est - acov[lag]) < 3 * se, f"lag {lag}: {est} vs {acov[lag]}"


def test_sampler_lag1_value_h07():
    reps = 4000
    per_rep = []
    for s in range(reps):
        x = sample_stationary_gaussian(0.7, 512, RngState(5, s))
        per_rep.append(np.mean(x[:-1] * x[1:]))
    per_rep = np.asarray(per_rep)
    se = per_rep.std(ddof=1) / np.sqrt(reps)
    assert abs(per_rep.mean() - 0.31951) < 3 * se


@pytest.mark.parametrize(
    "h, n",
    [
        (0.7, 1),  # n < 2
        (0.3, 1),
        (1.5, 9),  # h outside (0, 1)
    ],
    ids=["n1", "n1-of-3-lags", "h1.5"],
)
def test_sampler_takes_only_a_sequence_of_exactly_n_lags(h, n):
    with pytest.raises(ValueError):
        sample_stationary_gaussian(h, n, RngState(3, 0))


def test_sampler_rejects_invalid_embedding():
    with pytest.raises(NegativeEigenvalueError):
        _embedding_eigenvalues(np.array([1.0, 0.8, -0.8]))


def test_embedding_scale_is_cached_and_read_only():
    scale = _embedding_scale(0.7, 33)
    assert scale is _embedding_scale(0.7, 33)
    np.testing.assert_array_equal(scale, np.sqrt(_embedding_eigenvalues(fgn_autocov(0.7, 33)) / 64))
    with pytest.raises(ValueError):
        scale[0] = 1.0


# ------------------------------------------------- reused sampler workspaces


@pytest.fixture
def fresh_workspaces(monkeypatch):
    """An empty workspace free list, so the test sees every workspace grow."""
    monkeypatch.setattr(rng_module, "_free_workspaces", [])


@pytest.mark.usefixtures("fresh_workspaces")
def test_sample_owns_its_memory_across_later_calls():
    a = sample_stationary_gaussian(0.7, 257, RngState(4, 0))
    kept = a.copy()
    b = sample_stationary_gaussian(0.7, 257, RngState(4, 1))  # same embedding size
    assert np.array_equal(bits(a), bits(kept))
    assert not np.shares_memory(a, b)
    kept_b = b.copy()
    c = sample_stationary_gaussian(0.7, 4097, RngState(4, 2))  # grows the workspace
    assert np.array_equal(bits(a), bits(kept))
    assert np.array_equal(bits(b), bits(kept_b))
    assert not np.shares_memory(b, c)
    assert a.flags.c_contiguous and a.flags.owndata


def test_threaded_samples_of_mixed_sizes_match_sequential(monkeypatch):
    # sizes rise, fall and rise again, so workspaces grow while both workers run
    jobs = [(n, stream) for stream, n in enumerate([33, 1025, 129, 4097, 2, 513, 16385, 65, 8193, 3])]

    def draw(job):
        n, stream = job
        return sample_stationary_gaussian(0.7, n, RngState(99, stream))

    monkeypatch.setattr(rng_module, "_free_workspaces", [])
    sequential = [draw(job) for job in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so borrowing interleaves
    try:
        for _ in range(3):
            monkeypatch.setattr(rng_module, "_free_workspaces", [])
            with ThreadPoolExecutor(max_workers=2) as pool:
                threaded = list(pool.map(draw, jobs * 2, timeout=60))
            for got, want in zip(threaded, sequential * 2):
                assert np.array_equal(bits(got), bits(want))
            assert len(rng_module._free_workspaces) <= 2
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.usefixtures("fresh_workspaces")
@pytest.mark.parametrize("sizes", [[513], [4097, 257], [257, 4097, 1025]])
def test_workspace_is_one_spectrum_buffer_of_the_embedding(sizes):
    for n in sizes:
        sample_stationary_gaussian(0.7, n, RngState(5, n))
    m = 2 * (max(sizes) - 1)  # one workspace, grown to the largest embedding
    assert len(rng_module._free_workspaces) == 1
    for ws in rng_module._free_workspaces:
        assert isinstance(ws, np.ndarray) and ws.dtype == complex and ws.flags.c_contiguous
        assert ws.nbytes == 16 * m


def test_complex_exp_gives_cos_and_sin_bit_for_bit():
    # the Box-Muller angle factor is exp(i 2 pi u) on a contiguous complex
    # array; it must equal numpy's contiguous cos and sin of 2 pi u exactly
    edges = [0.0, 2.0**-53, 0.25, 0.5, 0.75, 1.0 - 2.0**-53]
    u = np.concatenate([RngState(2025, 7).generator().random(1 << 20), edges])
    theta = 2.0 * np.pi * u
    e = np.zeros(u.size, dtype=complex)
    np.multiply(2.0 * np.pi, u, out=e.imag)
    np.exp(e, out=e)
    assert np.array_equal(bits(e.real.copy()), bits(np.cos(theta)))
    assert np.array_equal(bits(e.imag.copy()), bits(np.sin(theta)))


@pytest.mark.usefixtures("fresh_workspaces")
def test_warm_sample_allocates_only_its_result():
    n = 65537  # embedding of m = 131072 points
    sample_stationary_gaussian(0.85, n, RngState(1, 0))
    tracemalloc.start()
    try:
        x = sample_stationary_gaussian(0.85, n, RngState(1, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= x.nbytes + 64 * 1024, (peak, x.nbytes)


# ------------------------------------------- bit identity with the old sampler
# Frozen copies of Box-Muller and Davies-Harte as they were before the sampler
# was rewritten to work in place; the oracles for bit-for-bit equality only.


def _box_muller_reference(gen, size):
    if size <= 0:
        return np.empty(0)
    pairs = (size + 1) // 2
    u1 = 1.0 - gen.random(pairs)
    u2 = gen.random(pairs)
    r = np.sqrt(-2.0 * np.log(u1))
    out = np.empty(2 * pairs)
    out[0::2] = r * np.cos(2.0 * np.pi * u2)
    out[1::2] = r * np.sin(2.0 * np.pi * u2)
    return out[:size]


def _eigenvalues_reference(gamma):
    circ = np.concatenate([gamma, gamma[-2:0:-1]])  # length 2(n-1)
    lam = np.fft.fft(circ).real
    lam_max = lam.max()
    if lam_max <= 0:
        raise NegativeEigenvalueError("embedding has no positive eigenvalue")
    bad = lam < -rng_module.EIG_TOL * lam_max
    if np.any(bad):
        raise NegativeEigenvalueError(
            f"circulant embedding has negative eigenvalue {lam[bad].min():.6g} "
            f"(max {lam_max:.6g}); the autocovariance is invalid for this method"
        )
    return np.clip(lam, 0.0, None)


def _sample_reference(gamma, n, rng):
    gen = rng.generator()
    lam = _eigenvalues_reference(gamma)
    m = lam.size
    half = m // 2
    e = _box_muller_reference(gen, m)
    v = np.empty(m, dtype=complex)
    v[0] = e[0]
    v[half] = e[1]
    v[1:half] = (e[2::2] + 1j * e[3::2]) / np.sqrt(2.0)
    v[half + 1 :] = np.conj(v[1:half][::-1])
    return np.fft.fft(np.sqrt(lam / m) * v).real[:n]


def bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


SEEDS = st.integers(0, 2**64 - 1)
STREAMS = st.integers(0, 2**32)


@settings(max_examples=80, deadline=None)
@given(
    n=st.one_of(st.integers(2, 41), st.sampled_from([(1 << k) + 1 for k in range(1, 15)])),
    h=st.floats(0.05, 0.95),
    seed=SEEDS,
    stream=STREAMS,
)
@example(n=2, h=0.7, seed=0, stream=0)
@example(n=3, h=0.7, seed=0, stream=0)
@example(n=65537, h=0.85, seed=20250810, stream=3)  # m = 131072
def test_sampler_matches_reference_bit_for_bit(n, h, seed, stream):
    got = sample_stationary_gaussian(h, n, RngState(seed, stream))
    want = _sample_reference(fgn_autocov(h, n), n, RngState(seed, stream))
    assert got.shape == (n,)
    assert np.array_equal(bits(got), bits(want))


# ------------------------------------------- the eigenvalues and the scale


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([2, 3, 33] + [(1 << k) + 1 for k in range(1, 17)]),
    h=st.floats(0.05, 0.95),
)
@example(n=65537, h=0.85)  # m = 131072
@example(n=3, h=0.25)  # 2h = 0.5
def test_embedding_eigenvalues_match_reference_bit_for_bit(n, h):
    values = fgn_autocov(h, n)
    got = _embedding_eigenvalues(values)
    want = _eigenvalues_reference(values)
    assert got.shape == want.shape == (2 * (n - 1),)
    assert np.array_equal(bits(got), bits(want))


@pytest.mark.parametrize(
    "values", [[1.0, 0.8, -0.8], [1.0, 0.2, -0.9], [1.0, 0.9, 0.1, 0.9], [1.0, -1.0, 1.0, -1.0, 0.0]]
)
def test_invalid_embedding_raises_the_reference_error(values):
    with pytest.raises(NegativeEigenvalueError) as want:
        _eigenvalues_reference(np.array(values))
    with pytest.raises(NegativeEigenvalueError) as got:
        _embedding_eigenvalues(np.array(values))
    assert str(got.value) == str(want.value)


@pytest.mark.usefixtures("fresh_workspaces")
def test_only_the_scale_is_cached():
    # a cold fill keeps the scale and nothing else: not the autocovariance,
    # not the eigenvalues
    n = 1025
    sample_stationary_gaussian(0.7, n, RngState(0, 0))  # warm workspace
    key = (0.7071067812, n)  # a key no other test uses
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        scale = _embedding_scale(*key)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert scale.nbytes <= kept <= scale.nbytes + 4 * 1024, (kept, scale.nbytes)
    assert not hasattr(fgn_autocov, "cache_info")


@pytest.mark.usefixtures("fresh_workspaces")
def test_scale_of_a_new_embedding_size_allocates_only_itself(monkeypatch):
    n = 65537  # embedding of m = 131072 points
    m = 2 * (n - 1)
    sample_stationary_gaussian(0.85, n, RngState(1, 0))  # warm workspace
    gamma = fgn_autocov(0.85, n)
    monkeypatch.setattr(rng_module, "fgn_autocov", lambda h, k: gamma)
    tracemalloc.start()
    try:
        scale = inspect.unwrap(_embedding_scale)(0.85, n)  # the uncached fill
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert scale.size == m
    assert peak <= 9 * m + 64 * 1024, (peak, m)


def test_racing_workers_fill_each_cache_entry_once(monkeypatch):
    # a slowed eigenvalue pass keeps both workers inside the cold fill at once
    fills = []

    def slow_eigenvalues(gamma):
        fills.append(gamma.size)
        time.sleep(0.05)
        return _embedding_eigenvalues(gamma)

    monkeypatch.setattr(rng_module, "_embedding_eigenvalues", slow_eigenvalues)
    key = (0.6180339887, 129)  # a key no other test uses
    misses = _embedding_scale.cache_info().misses
    barrier = threading.Barrier(2, timeout=30)

    def fill(_):
        barrier.wait()
        return _embedding_scale(*key)

    with ThreadPoolExecutor(max_workers=2) as pool:
        a, b = pool.map(fill, range(2), timeout=60)
    assert _embedding_scale.cache_info().misses - misses == 1
    assert a is b and fills == [129]


# ------------------------------------------- frozen autocovariance formulas


def _fgn_autocov_reference(h, n):
    k = np.arange(n, dtype=float)
    two_h = 2.0 * h
    gamma = 0.5 * ((k + 1) ** two_h - 2 * k**two_h + np.abs(k - 1) ** two_h)
    gamma[0] = 1.0
    return gamma


@settings(max_examples=80, deadline=None)
@given(
    h=st.one_of(st.floats(0.01, 0.99), st.sampled_from([0.25, 0.3, 0.5, 0.55, 0.65, 0.7, 0.85, 0.99])),
    n=st.one_of(st.integers(1, 40), st.sampled_from([16385, 65537])),
)
@example(h=0.25, n=17)  # 2h = 0.5
@example(h=0.5, n=3)  # 2h = 1
def test_fgn_autocov_matches_reference_bit_for_bit(h, n):
    got = fgn_autocov(h, n)
    assert np.array_equal(bits(got), bits(_fgn_autocov_reference(h, n)))
