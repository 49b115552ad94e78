import dataclasses
import inspect
import io
import math
import threading
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial.hermite_e import hermeroots, hermeval
from scipy.linalg import eigvalsh, toeplitz
from scipy.stats import ks_2samp

from hermite_ou import RngState, fgn_autocov, hermite, sample_stationary_gaussian
from hermite_ou import rng as rng_module
from hermite_ou.hermite import (
    GridPath,
    Provenance,
    hermite_exponent,
    read_path_csv,
    running_max_abs,
    simulate_fbm,
    simulate_partial_sum,
    write_path_csv,
)

SEED = 424242


def mc_band(products):
    """(estimate, 3 * standard error) for a vector of per-path products."""
    return products.mean(), 3 * products.std(ddof=1) / np.sqrt(products.size)


# ---------------------------------------------------------------- parameters


def test_exponent_reduces_to_h_at_order_one():
    assert hermite_exponent(1, 0.7) == pytest.approx(0.7, abs=1e-15)


def test_exponent_values():
    assert hermite_exponent(2, 0.7) == pytest.approx(0.85, abs=1e-12)
    assert hermite_exponent(3, 0.9) == pytest.approx(0.96667, abs=1e-5)


def test_exponent_range_invariant():
    for q in (1, 2, 3, 5):
        for h in (0.51, 0.7, 0.99):
            h0 = hermite_exponent(q, h)
            assert 1 - 1 / (2 * q) < h0 < 1


def test_exponent_rejects_bad_parameters():
    with pytest.raises(ValueError):
        hermite_exponent(0, 0.7)
    with pytest.raises(ValueError):
        hermite_exponent(1, 0.5)
    with pytest.raises(ValueError):
        hermite_exponent(1, 1.0)
    with pytest.raises(ValueError, match=r"order q must be an integer in \[1, 164\]"):
        hermite_exponent(165, 0.7)


def test_largest_order_keeps_the_normalization_finite():
    # the partial-sum variance is at most q! k^2, k <= 2^24 lags
    k_max = float(1 << 24)
    assert math.factorial(hermite._MAX_ORDER) * k_max**2 < math.inf
    assert math.factorial(hermite._MAX_ORDER + 1) * k_max**2 == math.inf
    z = simulate_partial_sum(hermite._MAX_ORDER, 0.7, 16, 4, 1.0, RngState(0, 0))
    assert np.count_nonzero(z.values) == 16


# ---------------------------------------------------------------- grid paths


def test_grid_path_validates_shape():
    with pytest.raises(ValueError):
        GridPath(1.0, 4, np.zeros(4), Provenance(0, 0, "x"))


@pytest.mark.parametrize("t_max", [math.nan, math.inf, 0.0, -1.0])
def test_grid_path_rejects_a_horizon_that_is_not_positive_and_finite(t_max):
    # a non-finite horizon makes NaN grid times, which the estimator would blame on its window
    with pytest.raises(ValueError, match=r"^t_max must be positive and finite, got "):
        GridPath(t_max, 4, np.zeros(5), Provenance(0, 0, "x"))


def test_grid_path_is_read_only():
    p = GridPath(1.0, 4, np.zeros(5), Provenance(0, 0, "x"))
    for array in (p.values, p.times):
        with pytest.raises(ValueError):
            array[0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.times = np.zeros(5)


def test_grid_times_are_uniform():
    p = GridPath(2.0, 4, np.zeros(5), Provenance(0, 0, "x"))
    np.testing.assert_allclose(p.times, [0.0, 0.5, 1.0, 1.5, 2.0])
    assert p.dt == 0.5
    q = GridPath(0.7, 513, np.zeros(514), Provenance(0, 0, "x"))
    assert q.times is q.times
    np.testing.assert_array_equal(q.times, np.arange(514) * (0.7 / 513))


# ---------------------------------------------------------------- generators


@pytest.mark.parametrize("seed", [1, 2, 77])
def test_every_generator_starts_at_zero(seed):
    assert simulate_fbm(0.7, 32, 1.0, RngState(seed, 0)).values[0] == 0.0
    assert simulate_partial_sum(2, 0.7, 32, 8, 1.0, RngState(seed, 0)).values[0] == 0.0


def test_fbm_h05_unit_variance():
    ends = np.array(
        [simulate_fbm(0.5, 64, 1.0, RngState(SEED, s)).values[-1] for s in range(4000)]
    )
    est, band = mc_band(ends**2)
    assert abs(est - 1.0) < band


def test_fbm_h07_midpoint_covariance():
    vals = np.array(
        [simulate_fbm(0.7, 64, 1.0, RngState(SEED + 1, s)).values[[32, 64]] for s in range(4000)]
    )
    est, band = mc_band(vals[:, 0] * vals[:, 1])
    assert abs(est - 0.5) < band  # 0.5*(0.5^1.4 + 1 - 0.5^1.4)


def test_fbm_rejects_bad_arguments():
    with pytest.raises(ValueError):
        simulate_fbm(1.2, 64, 1.0, RngState(0, 0))
    with pytest.raises(ValueError):
        simulate_fbm(0.7, 1, 1.0, RngState(0, 0))


@pytest.mark.parametrize(
    "build, name",
    [
        (lambda rng: simulate_fbm(0.7, 16.0, 1.0, rng), "grid size n"),
        (lambda rng: simulate_partial_sum(2, 0.7, 16.0, 4, 1.0, rng), "grid size n"),
        (lambda rng: simulate_partial_sum(2, 0.7, 16, 4.0, 1.0, rng), "m"),
        (lambda rng: sample_stationary_gaussian(0.7, 16.0, rng), "n"),
        (lambda rng: GridPath(1.0, 4.0, np.zeros(5), Provenance(0, 0, "x")), "n"),
    ],
    ids=["fbm-n", "partial-sum-n", "partial-sum-m", "sampler-n", "grid-path-n"],
)
def test_sizes_must_be_integers(build, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        build(RngState(0, 0))


def test_samplers_take_numpy_integer_sizes_as_ints():
    rng = RngState(0, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow in a uint8 product n * m
        pairs = [
            (simulate_fbm(0.7, np.int64(16), 1.0, rng), simulate_fbm(0.7, 16, 1.0, rng)),
            (
                simulate_partial_sum(2, 0.7, np.uint8(16), np.uint8(32), 1.0, rng),
                simulate_partial_sum(2, 0.7, 16, 32, 1.0, rng),
            ),
        ]
        sample = sample_stationary_gaussian(0.7, np.int64(17), rng)
    for got, want in pairs:
        assert type(got.n) is int and got.provenance == want.provenance
        assert got.values.tobytes() == want.values.tobytes()
    assert sample.tobytes() == sample_stationary_gaussian(0.7, 17, rng).tobytes()


@pytest.mark.parametrize("q", range(1, 7))
def test_hermite_in_place_matches_hermeval_bit_for_bit(q):
    # signed zeros, tiny values, the roots and their neighbours, |x| up to 40
    rng = np.random.default_rng(q)
    roots = hermeroots([0.0] * q + [1.0])
    x = np.concatenate([
        rng.standard_normal(4000),
        rng.uniform(-40.0, 40.0, 4000),
        [0.0, -0.0, 40.0, -40.0, 1.0, -1.0, 5e-324, -5e-324, 1e-160, -1e-160],
        roots, -roots, np.nextafter(roots, np.inf), np.nextafter(roots, -np.inf),
    ])
    want = hermeval(x, [0.0] * q + [1.0])
    got = x.copy()
    assert hermite._hermite_in_place(got, q) is got
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_partial_sum_q1_matches_fbm_in_law():
    # same covariance grid as the exact fBm generator, 3 SE bands
    idx = [16, 32, 48, 64]
    a = np.array(
        [simulate_partial_sum(1, 0.7, 64, 16, 1.0, RngState(SEED + 2, s)).values[idx] for s in range(4000)]
    )
    b = np.array(
        [simulate_fbm(0.7, 64, 1.0, RngState(SEED + 3, s)).values[idx] for s in range(4000)]
    )
    for i in range(4):
        for j in range(i, 4):
            pa = a[:, i] * a[:, j]
            pb = b[:, i] * b[:, j]
            gap = pa.mean() - pb.mean()
            band = 3 * np.sqrt(pa.var(ddof=1) / 4000 + pb.var(ddof=1) / 4000)
            assert abs(gap) < band, (i, j, gap, band)


def test_partial_sum_q2_endpoint_matches_its_exact_law():
    # Z_1 = (xi'xi - N) / sd with xi ~ N(0, R), R the N x N FGN(H0) Toeplitz
    # correlation, so Z_1 = sum_k lam_k (g_k^2 - 1) exactly, with
    # lam = eig(R) / sd and i.i.d. standard normals g_k (the eigenvalue form
    # of the Rosenblatt law, Veillette & Taqqu 2013).  A Gaussian path with
    # the same covariance is rejected by this comparison.
    n, m = 64, 8
    big_n, h0 = n * m, hermite_exponent(2, 0.7)
    lam = eigvalsh(toeplitz(fgn_autocov(h0, big_n)))
    lam /= hermite._partial_sum_std(2, h0, big_n)
    assert 2 * np.sum(lam**2) == pytest.approx(1.0, rel=1e-12)
    gen = np.random.default_rng(SEED + 30)
    exact = np.concatenate([(gen.standard_normal((4000, big_n)) ** 2 - 1) @ lam for _ in range(5)])
    ends = np.array(
        [simulate_partial_sum(2, 0.7, n, m, 1.0, RngState(SEED + 30, s)).values[-1] for s in range(4000)]
    )
    assert ks_2samp(ends, exact).pvalue > 0.01


class _Sampled(Exception):
    """Raised by a stand-in for the sampler or fgn_autocov: the size check
    let the grid through."""


@pytest.mark.parametrize(
    "simulate, largest",
    [
        # 2^23 increments embed in 2^24 points, 2^23 + 1 in 2^25
        (lambda n, t_max: simulate_fbm(0.7, n, t_max, RngState(0, 0)), 1 << 23),
        (
            lambda n, t_max: simulate_partial_sum(2, 0.7, n, 32, t_max, RngState(0, 0)),
            1 << 18,
        ),
    ],
    ids=["fbm", "partial-sum"],
)
def test_samplers_size_the_embedding_before_allocating(simulate, largest):
    sampled = mock.Mock(side_effect=_Sampled)
    with mock.patch.object(hermite, "sample_stationary_gaussian", sampled):
        with pytest.raises(_Sampled):
            simulate(largest, 1.0)
        assert sampled.call_count == 1
        for n in (largest + 1, 10**8, 10**10):
            with pytest.raises(ValueError, match=rf"^grid size n = {n}\b"):
                simulate(n, 1.0)
        assert sampled.call_count == 1


def test_partial_sum_sizes_its_normalization_before_allocating():
    # the normalization builds n m / t_max autocovariance lags
    sampled = mock.Mock(side_effect=_Sampled)
    with mock.patch.object(hermite, "fgn_autocov", sampled):
        with pytest.raises(ValueError, match=r"^t_max = 1e-07 with n = 512 and m = 32"):
            simulate_partial_sum(2, 0.7, 512, 32, 1e-7, RngState(0, 0))
        with pytest.raises(_Sampled):
            simulate_partial_sum(2, 0.7, 512, 32, 512 * 32 / (1 << 24), RngState(0, 0))


def test_partial_sum_rejects_a_fractional_unit_of_summands():
    # n m / t_max summands per unit of time must be whole: at t_max = 100 and
    # 1000 the normalization rounded 2.56 to 3 and 0.256 to 1, and Var(Z_T) / T^(2H)
    # read about 0.80 and 0.15 over 3000 paths, against 1.01 at t_max = 1
    for t_max in (100.0, 1000.0, 3.0):
        with pytest.raises(ValueError, match=rf"^t_max = {t_max:g} with n = 64 and m = 4: "):
            simulate_partial_sum(1, 0.7, 64, 4, t_max, RngState(0, 0))
    for t_max in (0.5, 1.0, 4.0, 256.0):
        assert simulate_partial_sum(1, 0.7, 64, 4, t_max, RngState(0, 0)).t_max == t_max


def test_partial_sum_of_one_summand_has_unit_variance():
    # one step of one summand samples a 2-lag embedding; E Z_1^2 = 1 exactly
    for q in (1, 2):
        ends = np.array([simulate_partial_sum(q, 0.7, 1, 1, 1.0, RngState(SEED + 40, s)).values[-1] for s in range(4000)])
        se = np.std(ends**2, ddof=1) / np.sqrt(ends.size)
        assert abs(np.mean(ends**2) - 1.0) < 3 * se, q


def _partial_sum_std_reference(q, h0, k):
    rho = fgn_autocov(h0, k)
    lags = np.arange(1, k, dtype=float)
    var = math.factorial(q) * (k + 2.0 * np.sum((k - lags) * rho[1:] ** q))
    return math.sqrt(var)


@settings(max_examples=60, deadline=None)
@given(
    q=st.integers(1, 6),
    h=st.floats(0.51, 0.99),
    k=st.one_of(st.integers(1, 40), st.sampled_from([512, 4097, 16384])),
)
def test_partial_sum_std_matches_reference_bit_for_bit(q, h, k):
    h0 = hermite_exponent(q, h)
    got = inspect.unwrap(hermite._partial_sum_std)(q, h0, k)  # the uncached function
    assert got == _partial_sum_std_reference(q, h0, k)


def test_racing_workers_fill_the_normalization_once(monkeypatch):
    # a slowed autocovariance keeps both workers inside the cold fill at once
    def slow_autocov(h, n):
        time.sleep(0.05)
        return fgn_autocov(h, n)

    monkeypatch.setattr(hermite, "fgn_autocov", slow_autocov)
    key = (2, 0.8090169943, 257)  # a key no other test uses
    misses = hermite._partial_sum_std.cache_info().misses
    barrier = threading.Barrier(2, timeout=30)

    def fill(_):
        barrier.wait()
        return hermite._partial_sum_std(*key)

    with ThreadPoolExecutor(max_workers=2) as pool:
        a, b = pool.map(fill, range(2), timeout=60)
    assert hermite._partial_sum_std.cache_info().misses - misses == 1
    assert a == b == _partial_sum_std_reference(*key)


@pytest.fixture
def warm_path_memory(monkeypatch):
    """Peak bytes traced while simulate() draws a path, after one warm-up
    draw has filled the caches and grown the sampler's workspace."""
    monkeypatch.setattr(rng_module, "_free_workspaces", [])

    def peak(simulate):
        simulate(RngState(8, 0))
        tracemalloc.start()
        try:
            path = simulate(RngState(8, 1))
            return tracemalloc.get_traced_memory()[1], path
        finally:
            tracemalloc.stop()

    return peak


def test_partial_sum_path_is_reduced_inside_the_workspace(warm_path_memory):
    # 65,536 increments in a 131,072-point embedding (2 MiB of workspace)
    peak, path = warm_path_memory(lambda rng: simulate_partial_sum(2, 0.7, 2048, 32, 1.0, rng))
    assert path.n == 2048
    assert peak <= 256 * 1024, peak


def test_fbm_path_is_reduced_inside_the_workspace(warm_path_memory):
    n = 65536  # a 131,072-point embedding
    peak, path = warm_path_memory(lambda rng: simulate_fbm(0.7, n, 1.0, rng))
    assert path.n == n
    assert peak <= 8 * (n + 1) + 256 * 1024, peak


# ------------------------------------------------------------- running max


def test_running_max_monotone_input():
    np.testing.assert_array_equal(running_max_abs(np.array([0.0, 1.0, 2.0, 3.0])), [0, 1, 2, 3])


def test_running_max_handles_signs():
    # one row per path: each row is its own running maximum
    values = np.array([[0.0, -2.0, 1.0], [0.0, 0.5, -3.0]])
    np.testing.assert_array_equal(running_max_abs(values), [[0, 2, 2], [0, 0.5, 3]])


def test_running_max_dominates_endpoint():
    z = simulate_fbm(0.7, 64, 1.0, RngState(9, 9))
    out = running_max_abs(z.values)
    assert out[-1] >= abs(z.values[-1])
    assert np.all(np.diff(out) >= 0)


# ----------------------------------------------------------- law invariants


def test_stationary_increments_ks_q1():
    # Z_{t+h} - Z_h vs Z_t over independent path sets, level 0.01
    n, reps = 64, 4000
    a = np.array(
        [simulate_fbm(0.7, n, 1.0, RngState(SEED + 7, s)).values[[16, 48]] for s in range(reps)]
    )
    b = np.array(
        [simulate_fbm(0.7, n, 1.0, RngState(SEED + 8, s)).values[32] for s in range(reps)]
    )
    assert ks_2samp(a[:, 1] - a[:, 0], b).pvalue > 0.01


def test_stationary_increments_ks_q2():
    n, reps = 64, 4000
    a = np.array(
        [
            simulate_partial_sum(2, 0.7, n, 16, 1.0, RngState(SEED + 9, s)).values[[16, 48]]
            for s in range(reps)
        ]
    )
    b = np.array(
        [
            simulate_partial_sum(2, 0.7, n, 16, 1.0, RngState(SEED + 10, s)).values[32]
            for s in range(reps)
        ]
    )
    assert ks_2samp(a[:, 1] - a[:, 0], b).pvalue > 0.01


@pytest.mark.parametrize("a_scale", [0.5, 2.0])
def test_self_similarity_ks_q1(a_scale):
    # law of Z_{a t} vs a^H Z_t, paths generated on the matching grids
    h, reps = 0.7, 4000
    za = np.array(
        [
            simulate_fbm(h, int(64 * max(a_scale, 1)), a_scale, RngState(SEED + 11, s)).values[-1]
            for s in range(reps)
        ]
    )
    z1 = np.array(
        [simulate_fbm(h, 64, 1.0, RngState(SEED + 12, s)).values[-1] for s in range(reps)]
    )
    assert ks_2samp(za, a_scale**h * z1).pvalue > 0.01


@pytest.mark.parametrize("a_scale", [0.5, 2.0])
def test_self_similarity_ks_q2(a_scale):
    h, reps = 0.7, 4000
    n_a = int(64 * max(a_scale, 1))
    za = np.array(
        [
            simulate_partial_sum(2, h, n_a, 16, a_scale, RngState(SEED + 13, s)).values[-1]
            for s in range(reps)
        ]
    )
    z1 = np.array(
        [
            simulate_partial_sum(2, h, 64, 16, 1.0, RngState(SEED + 14, s)).values[-1]
            for s in range(reps)
        ]
    )
    assert ks_2samp(za, a_scale**h * z1).pvalue > 0.01


@pytest.mark.parametrize("q,h", [(1, 0.7), (2, 0.7)])
def test_moment_growth_is_bounded(grid_samples, q, h):
    # E|Z_t|^p / t^(pH) stays within fixed bounds over t, p in {1, 2}
    vals = grid_samples(q, h)
    for p in (1, 2):
        for i, t in [(0, 0.25), (1, 0.5), (3, 1.0)]:
            ratio = np.mean(np.abs(vals[:, i]) ** p) / t ** (p * h)
            assert 0.2 < ratio < 3.0, (p, t, ratio)


# -------------------------------------------------------------- CSV export


def _csv_roundtrip(path):
    buf = io.StringIO()
    write_path_csv(path, buf)
    buf.seek(0)
    return read_path_csv(buf)


def test_path_csv_roundtrip():
    z = simulate_fbm(0.7, 32, 2.0, RngState(5, 6))
    back = _csv_roundtrip(z)
    assert back.n == z.n and back.t_max == z.t_max
    np.testing.assert_array_equal(back.values, z.values)


_PATH_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1e-300, 1e-300),  # subnormals included
    st.floats(1e299, 1.7e308) | st.floats(-1.7e308, -1e299),
)


@settings(max_examples=80, deadline=None)
@given(
    values=st.lists(_PATH_VALUES, min_size=2, max_size=40),
    t_max=st.floats(1e-300, 1e300, allow_subnormal=False),
)
@example(values=[0.0] * 101, t_max=1.7)  # times[-1] reads back as 1.7000000000000002
@example(values=[-5e-324, 2.2250738585072014e-308, -1.7976931348623157e308], t_max=1.0)
def test_path_csv_roundtrip_is_exact(values, t_max):
    z = GridPath(t_max, len(values) - 1, np.array(values), Provenance(0, 0, "x"))
    back = _csv_roundtrip(z)
    assert back.n == z.n
    assert type(back.t_max) is float and back.t_max == t_max
    np.testing.assert_array_equal(back.values.view(np.uint64), z.values.view(np.uint64))


def test_path_csv_without_t_max_line_uses_last_time():
    text = "t,value\n0,0\n0.625,1\n1.25,-2\n"
    back = read_path_csv(io.StringIO(text))
    assert type(back.t_max) is float and back.t_max == 1.25
    with pytest.raises(ValueError, match="could not convert"):
        read_path_csv(io.StringIO("# t_max= n=2\n" + text))


def _times_csv(times):
    return "t,value\n" + "".join(f"{t},0\n" for t in times)


def test_path_csv_rejects_a_time_off_its_grid_point():
    # a tolerance relative to t accepted each of these: one point 3 off on a
    # grid of step 1000, a grid read as [0, 1000005, 2000010], and a midpoint
    # 0.4 steps off at t_max = 1e-12, where an absolute 1e-9 accepts any times
    shifted = np.arange(1001) * 1000.0
    shifted[500] = 500003.0
    for times in (shifted, [0, 1e6, 2000010], [0, 3e-13, 1e-12]):
        with pytest.raises(ValueError, match="uniform grid"):
            read_path_csv(io.StringIO(_times_csv(times)))


@pytest.mark.parametrize("n", [3, 512, 1000])
def test_path_csv_accepts_times_written_with_nine_digits(n):
    times = [format(t, ".9g") for t in np.arange(n + 1) / n]
    assert read_path_csv(io.StringIO(_times_csv(times))).n == n


def test_path_csv_format():
    z = simulate_fbm(0.7, 4, 1.0, RngState(5, 6))
    buf = io.StringIO()
    write_path_csv(z, buf)
    lines = buf.getvalue().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    assert any("seed=5" in c and "stream=6" in c for c in comments)
    data = [ln for ln in lines if not ln.startswith("#")]
    assert data[0] == "t,value"
    assert len(data) == 1 + 5
    assert data[1] == "0,0"
