import dataclasses
import hashlib
import importlib.util
import io
import math
import os
import sys
import threading
import time
import tracemalloc
from concurrent.futures import Future
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import kolmogorov

from hermite_ou import RngState, cli, harness, hermite
from hermite_ou.harness import (
    SCHEMAS,
    ExperimentConfig,
    _driver,
    band_summaries,
    ks_two_sample,
    run_experiment,
    write_rows_csv,
)
from hermite_ou.estimator import EstimatorConfig, minimize_l1, tangent_l1_coefficient
from hermite_ou.hermite import hermite_exponent, simulate_fbm, simulate_partial_sum
from hermite_ou.integrals import covariance_functional, discounted_integral_rows, noise_response
from hermite_ou.ou import exact_solution


def render(rows, kind):
    buf = io.StringIO()
    write_rows_csv(rows, kind, buf)
    return buf.getvalue()


# -------------------------------------------------------------- two-sample KS


def test_ks_identical_samples():
    stat, p = ks_two_sample([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert stat == 0.0
    assert p == 1.0


def test_ks_disjoint_singletons():
    stat, _ = ks_two_sample([0.0], [1.0])
    assert stat == 1.0


def test_ks_rejects_empty():
    with pytest.raises(ValueError):
        ks_two_sample([], [1.0])


def test_ks_level_is_calibrated():
    # same continuous law: rejection rate at level 0.05 stays near 0.05
    trials, n = 200, 1000
    rejections = 0
    for k in range(trials):
        a = RngState(777, 2 * k).generator().standard_normal(n)
        b = RngState(777, 2 * k + 1).generator().standard_normal(n)
        rejections += ks_two_sample(a, b)[1] <= 0.05
    rate = rejections / trials
    band = 3 * math.sqrt(0.05 * 0.95 / trials)
    assert abs(rate - 0.05) < band, rate


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.uint64)


def _assert_kolmogorov_bits_match(xs) -> None:
    xs = np.asarray(xs, dtype=float)
    ours = np.array([harness._kolmogorov_sf(float(x)) for x in xs])
    bad = np.flatnonzero(_bits(ours) != _bits(kolmogorov(xs)))
    assert bad.size == 0, list(zip(xs[bad][:5], ours[bad][:5], kolmogorov(xs[bad][:5])))


def test_kolmogorov_tail_matches_scipy_bit_for_bit_on_a_dense_grid():
    _assert_kolmogorov_bits_match(np.linspace(0.0, 10.0, 100_001))


def test_kolmogorov_tail_matches_scipy_at_thresholds_and_special_values():
    edges = []
    for edge in (math.pi / math.sqrt(5968), 0.82):  # underflow limit, series cut-over
        edges += [math.nextafter(edge, -math.inf), edge, math.nextafter(edge, math.inf)]
    special = [0.0, -0.0, -1.0, -1e300, 5e-324, 1e-310, 1e200, math.inf, -math.inf, math.nan]
    # just above the underflow limit e^(-pi^2 / (8 x^2)) still underflows to 0,
    # so the series gives a cdf of 0 and the tail is 1
    underflow = np.linspace(harness._KOLMOGOROV_MIN, 0.0407, 2001).tolist()
    _assert_kolmogorov_bits_match(edges + special + underflow)


@settings(max_examples=500, deadline=None)
@given(st.floats(0.0, 50.0))
def test_kolmogorov_tail_matches_scipy_on_any_finite_point(x):
    _assert_kolmogorov_bits_match([x])


def _ks_two_sample_scipy(a, b) -> tuple:
    """ks_two_sample as it was with scipy.special.kolmogorov: the oracle."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    pooled = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, pooled, side="right") / a.size
    cdf_b = np.searchsorted(b, pooled, side="right") / b.size
    stat = float(np.max(np.abs(cdf_a - cdf_b)))
    n_eff = a.size * b.size / (a.size + b.size)
    lam = (math.sqrt(n_eff) + 0.12 + 0.11 / math.sqrt(n_eff)) * stat
    return stat, float(min(1.0, max(0.0, kolmogorov(lam))))


_SAMPLES = st.lists(
    st.floats(-1e6, 1e6) | st.sampled_from([0.0, 1.0]), min_size=1, max_size=80
)


@settings(max_examples=300, deadline=None)
@given(_SAMPLES, _SAMPLES)
def test_ks_two_sample_matches_the_scipy_version_bit_for_bit(a, b):
    got = ks_two_sample(a, b)
    assert _bits(got).tolist() == _bits(_ks_two_sample_scipy(a, b)).tolist()


# ------------------------------------------------------------- configuration


def test_config_rejects_unknown_kind():
    with pytest.raises(ValueError, match="consistency"):
        ExperimentConfig(kind="bogus")


def test_config_rejects_empty_sweep():
    with pytest.raises(ValueError):
        ExperimentConfig(kind="maximal", T=())


def test_config_rejects_bad_eps():
    # every sweep must be positive and finite, checked when the config is built
    for name, sweep in (
        ("eps", (0.1, -0.5)), ("delta", (0.5, 0.0)), ("p", (-1.0,)), ("T", (0.0,)),
        ("eps", (math.nan,)), ("T", (1.0, math.inf)),
    ):
        with pytest.raises(ValueError, match=f"{name} values must be positive and finite"):
            ExperimentConfig(kind="consistency", **{name: sweep})


@pytest.mark.parametrize("x0", [0.0, -0.0, 1e-320, -sys.float_info.min / 2])
def test_config_rejects_zero_start(x0):
    # a subnormal x0 leaves every skeleton x0 e^(theta t) nearly 0 as well
    with pytest.raises(ValueError, match="x0 must be nonzero"):
        ExperimentConfig(kind="consistency", x0=x0)


@pytest.mark.parametrize(
    "kind, name, sweep",
    [("limit-dist", "eps", (0.1, 0.1)), ("consistency", "delta", (0.5, 0.25, 0.5)),
     ("maximal", "T", (1, 1.0)), ("maximal", "p", (1.0, 2.0, 1.0))],
)
def test_config_rejects_a_sweep_that_repeats_a_value(kind, name, sweep):
    # a band across a sweep would compare a value with itself: two equal
    # limit-dist medians read FAIL, one maximal horizon twice reads PASS
    with pytest.raises(ValueError, match=f"sweep {name} = .* repeats a value"):
        ExperimentConfig(kind=kind, **{name: sweep})


@pytest.mark.parametrize("eps", [1e-5, 1e-17])
def test_config_rejects_a_limit_dist_eps_below_the_minimizer_resolution(eps):
    # u = (theta_hat - theta0) / eps is resolved to refine_tol / eps at best:
    # past 1e-4 the median gap measures the minimiser, not the limit law
    with pytest.raises(ValueError, match=rf"eps = {eps:g} .* refine_tol = 1e-08"):
        ExperimentConfig(kind="limit-dist", eps=(0.1, eps))
    ExperimentConfig(kind="limit-dist", eps=(0.1, 1e-4))
    ExperimentConfig(kind="limit-dist", eps=(0.1, eps), refine_tol=1e-5 * eps)
    ExperimentConfig(kind="consistency", eps=(0.1, eps))


def test_config_rejects_a_start_whose_tangent_weights_are_subnormal():
    # x0 = 2.3e-308 is normal, but at n = 64 the tangent-fit weight
    # t x0 e^(theta0 t) at t = 1/64 is 3.65e-310: a ratio would overflow,
    # after every path was sampled
    with pytest.raises(ValueError, match=r"x0 = 2\.3e-308 is too small"):
        ExperimentConfig(kind="limit-dist", x0=2.3e-308, n=64, replications=4, ks_samples=4)
    ExperimentConfig(kind="limit-dist", x0=1e-300, n=64, replications=4, ks_samples=4)


def test_config_grids():
    assert ExperimentConfig(kind="consistency", T=(4.0,)).grids() == [(512, 1.0)]
    cfg = ExperimentConfig(kind="maximal", n=100, T=(2.0, 0.001, 0.5))
    assert cfg.grids() == [(2, 0.001), (50, 0.5), (200, 2.0)]


@pytest.mark.parametrize(
    "fields",
    [
        # fbm: 2^23 + 1 grid steps need an embedding of 2^25 points
        {"kind": "consistency", "q": 1, "n": (1 << 23) + 1},
        {"kind": "maximal", "q": 1, "n": 1 << 20, "T": (1.0, 8.5)},
        # partial sums: n m values, and n m / T normalization lags
        {"kind": "limit-dist", "q": 2, "n": 1 << 18, "m": 33},
        {"kind": "maximal", "q": 2, "n": 512, "T": (1.0, 1e-7)},
        {"kind": "maximal", "q": 2, "n": 512, "T": (1e306,)},
    ],
)
def test_config_rejects_grids_above_the_embedding_limit(fields, monkeypatch):
    def sampled(*args, **kwargs):
        raise AssertionError("sample_stationary_gaussian called")

    monkeypatch.setattr(hermite, "sample_stationary_gaussian", sampled)
    with pytest.raises(ValueError, match="grid size n|t_max"):
        ExperimentConfig(**fields)


def test_config_rejects_a_horizon_with_a_fractional_unit_of_summands(monkeypatch):
    # T = 0.7 on 2 grid steps of m = 1: 2.857 summands per unit of time
    def sampled(*args, **kwargs):
        raise AssertionError("sample_stationary_gaussian called")

    monkeypatch.setattr(hermite, "sample_stationary_gaussian", sampled)
    with pytest.raises(ValueError, match=r"^t_max = 0.7 with n = 2 and m = 1"):
        ExperimentConfig(kind="maximal", q=2, n=2, m=1, T=(0.7,))


def test_config_accepts_grids_at_the_embedding_limit():
    ExperimentConfig(kind="consistency", q=1, n=1 << 23)
    ExperimentConfig(kind="maximal", q=2, n=1 << 14, m=32, T=(0.5, 16.0))


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_config_rejects_seed_outside_64_bits(seed):
    with pytest.raises(ValueError, match=f"seed must be a 64-bit unsigned integer, got {seed}"):
        ExperimentConfig(kind="maximal", seed=seed)


# a value that is not an integer, and the name its ValueError must start with
NOT_INTEGERS = {
    "seed=1.5": ("seed", lambda: ExperimentConfig(kind="maximal", seed=1.5)),
    "q=2.0": ("q", lambda: ExperimentConfig(kind="maximal", q=2.0)),
    "q=True": ("q", lambda: ExperimentConfig(kind="maximal", q=True)),
    "n=64.0": ("n", lambda: ExperimentConfig(kind="maximal", n=64.0)),
    "m=4.0": ("m", lambda: ExperimentConfig(kind="maximal", q=2, m=4.0)),
    "m=float64": ("m", lambda: ExperimentConfig(kind="maximal", q=2, m=np.float64(4.0))),
    "replications=2.0": ("replications", lambda: ExperimentConfig(kind="maximal", replications=2.0)),
    "ks_samples=2.5": ("ks_samples", lambda: ExperimentConfig(kind="limit-dist", ks_samples=2.5)),
    "coarse_points=201.5": ("coarse_points", lambda: ExperimentConfig(kind="consistency", coarse_points=201.5)),
    "estimator-coarse_points": ("coarse_points", lambda: EstimatorConfig(-2.0, 2.0, coarse_points=201.5)),
    "hermite_exponent-q": ("order q", lambda: hermite_exponent(2.0, 0.7)),
    "partial_sum-q": ("order q", lambda: simulate_partial_sum(2.0, 0.7, 16, 4, 1.0, RngState(0, 0))),
}


@pytest.mark.parametrize("name, build", NOT_INTEGERS.values(), ids=list(NOT_INTEGERS))
def test_integer_fields_reject_everything_but_integers(name, build):
    # a float seed would run as its integer part and q = True as q = 1; the
    # other values would fail only when a run reaches them, with no field named
    with pytest.raises(ValueError, match=rf"^{name} must be an integer, got "):
        build()


def test_integer_fields_take_numpy_integers_as_ints():
    fields = dict(q=2, n=16, m=4, replications=3, seed=2**64 - 1)
    numpy_fields = dict(
        q=np.int64(2), n=np.int32(16), m=np.uint8(4), replications=np.int16(3), seed=np.uint64(2**64 - 1)
    )
    cfg, want = ExperimentConfig(kind="maximal", **numpy_fields), ExperimentConfig(kind="maximal", **fields)
    assert all(type(getattr(cfg, name)) is int for name in numpy_fields)
    assert cfg == want
    assert render(run_experiment(cfg), "maximal") == render(run_experiment(want), "maximal")
    assert type(EstimatorConfig(-2.0, 2.0, coarse_points=np.int64(5)).coarse_points) is int


def test_config_rejects_bad_process():
    with pytest.raises(ValueError):
        ExperimentConfig(kind="maximal", q=0)
    with pytest.raises(ValueError):
        ExperimentConfig(kind="maximal", H=0.4)
    # checked at construction: q! overflows a double from q = 171 on
    with pytest.raises(ValueError, match="order q"):
        ExperimentConfig(kind="maximal", q=171)
    # the generator choice and the audit's quarter grid are checked at
    # construction too, not when the runner starts
    with pytest.raises(ValueError, match="unknown generator"):
        ExperimentConfig(kind="maximal", generator="bogus")
    with pytest.raises(ValueError, match="the fbm generator needs order q = 1"):
        ExperimentConfig(kind="consistency", generator="fbm", q=2)
    with pytest.raises(ValueError, match="divisible by 4"):
        ExperimentConfig(kind="covariance-audit", n=30)
    # the audit's noise response depends on theta0 and overflows far out
    ExperimentConfig(kind="covariance-audit", theta0=-88.7)
    for theta0 in (88.8, -1e3):
        with pytest.raises(ValueError, match=r"covariance audit needs \|theta0\| <= 88.72"):
            ExperimentConfig(kind="covariance-audit", theta0=theta0)


def test_config_rejects_an_estimand_outside_the_window():
    # consistency needs [theta0 - delta, theta0 + delta] inside the window for
    # every delta; limit-dist needs theta0 inside it, or theta_hat is pinned at an edge
    ExperimentConfig(kind="consistency", theta0=1.4, delta=(0.25, 0.5))
    with pytest.raises(ValueError, match=r"\[theta0 - delta, theta0 \+ delta\] = \[1.1, 2.1\]"):
        ExperimentConfig(kind="consistency", theta0=1.6, delta=(0.25, 0.5))
    ExperimentConfig(kind="limit-dist", theta0=-1.9)
    for theta0 in (3.0, 2.0, -2.0):
        with pytest.raises(ValueError, match=rf"theta0 = {theta0} must lie inside \(-2.0, 2.0\)"):
            ExperimentConfig(kind="limit-dist", theta0=theta0)
    ExperimentConfig(kind="maximal", theta0=3.0)


def test_config_rejects_limit_dist_stream_collision():
    # paired streams 0..R-1 must stay below the KS sample's streams from 10^6
    ExperimentConfig(kind="limit-dist", replications=10**6)
    with pytest.raises(ValueError, match="replications"):
        ExperimentConfig(kind="limit-dist", replications=10**6 + 1)
    ExperimentConfig(kind="maximal", replications=10**6 + 1)


@pytest.mark.parametrize("kind", ["maximal", "covariance-audit"])
def test_config_needs_two_replications_for_a_standard_error(kind):
    # a one-value sample standard deviation does not exist
    with pytest.raises(ValueError, match="replications >= 2"):
        ExperimentConfig(kind=kind, replications=1)
    ExperimentConfig(kind=kind, replications=2)


# ------------------------------------------------------------ driver dispatch


def test_driver_auto_picks_by_order():
    rng = RngState(4, 1)
    fbm = _driver("auto", 1, 0.7, 32, 8, 2.0)(rng)
    np.testing.assert_array_equal(fbm.values, simulate_fbm(0.7, 32, 2.0, rng).values)
    ps = _driver("auto", 2, 0.7, 32, 8, 2.0)(rng)
    want = simulate_partial_sum(2, 0.7, 32, 8, 2.0, rng)
    np.testing.assert_array_equal(ps.values, want.values)


def test_driver_rejects_bad_choices():
    with pytest.raises(ValueError, match="order q"):
        _driver("fbm", 2, 0.7, 32, 8, 1.0)(RngState(0, 0))
    with pytest.raises(ValueError, match="order q"):
        _driver("partial-sum", 165, 0.7, 8, 1, 1.0)(RngState(0, 0))
    with pytest.raises(ValueError, match="unknown generator"):
        _driver("bogus", 2, 0.7, 32, 8, 1.0)(RngState(0, 0))


@pytest.mark.parametrize("t_max", [0.0, -1.0, math.nan, math.inf])
def test_every_sampler_rejects_a_bad_horizon_before_sampling(t_max, monkeypatch):
    # t_max = 0 divided by zero, -1 failed in numpy after sampling and inf
    # blamed n: each must fail up front with a ValueError that names t_max
    def sampled(*args, **kwargs):
        raise AssertionError("sample_stationary_gaussian called")

    monkeypatch.setattr(hermite, "sample_stationary_gaussian", sampled)
    samplers = [
        lambda rng: simulate_fbm(0.7, 16, t_max, rng),
        lambda rng: simulate_partial_sum(2, 0.7, 16, 4, t_max, rng),
        lambda rng: _driver("auto", 1, 0.7, 16, 4, t_max)(rng),
        lambda rng: _driver("auto", 2, 0.7, 16, 4, t_max)(rng),
    ]
    for simulate in samplers:
        with pytest.raises(ValueError, match=r"^t_max must be positive and finite"):
            simulate(RngState(0, 0))


def test_run_experiment_resolves_each_grid_sampler_once(monkeypatch):
    # the sampler of a grid is chosen and checked once per experiment, not
    # once per block: two horizons, each split into several blocks on 2 workers
    cfg = ExperimentConfig(kind="maximal", q=2, n=16, m=4, T=(1.0, 2.0), replications=40, seed=3)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    monkeypatch.setenv("HERMITE_OU_THREADS", "2")
    units = [(n, cfg.replications, 0) for n, _ in cfg.grids()]
    assert len(harness._block_plan(units, 2, cfg.coarse_points)) >= 2 * len(units)
    calls = []
    driver = harness._driver

    def counted(generator, q, H, n, m, t_max):
        calls.append((n, t_max))
        return driver(generator, q, H, n, m, t_max)

    monkeypatch.setattr(harness, "_driver", counted)
    run_experiment(cfg)
    assert sorted(calls) == sorted(cfg.grids())


def test_experiments_run_only_through_run_experiment():
    import hermite_ou

    for name in ("run_consistency", "run_limit_dist", "run_maximal", "run_covariance_audit"):
        assert not hasattr(harness, name) and name not in hermite_ou.__all__, name
    assert harness.KINDS == tuple(SCHEMAS) == tuple(harness._RUNNERS)


# ------------------------------------------------------------------- maximal


@pytest.fixture(scope="module")
def maximal_rows():
    cfg = ExperimentConfig(
        kind="maximal", q=1, H=0.7, n=64, T=(2.0, 1.0), p=(2.0, 1.0), replications=200, seed=5
    )
    return run_experiment(cfg)


@pytest.mark.parametrize(
    "fields",
    [
        {"p": (800.0,), "T": (2.0,)},  # sup^p (here up to 2.16^800) squared overflows
        {"p": (150.0,), "T": (1e-3,)},  # T^(pH) and the squares underflow
    ],
)
def test_maximal_rejects_moments_beyond_the_double_range(fields):
    cfg = ExperimentConfig(kind="maximal", n=16, replications=3, seed=5, **fields)
    with pytest.raises(ValueError, match=f"p = {fields['p'][0]:g} is too large"):
        run_experiment(cfg)


def test_maximal_rows_sorted_and_complete(maximal_rows):
    keys = [(r["T"], r["p"]) for r in maximal_rows]
    assert keys == sorted(keys)
    assert len(keys) == 4


def test_maximal_grid_grows_with_horizon(maximal_rows):
    by_t = {r["T"]: r["n"] for r in maximal_rows}
    assert by_t[2.0] == 2 * by_t[1.0]


def test_maximal_moments_positive_with_se(maximal_rows):
    for r in maximal_rows:
        assert r["moment_hat"] > 0
        assert r["se"] > 0
        assert r["ratio_to_TpH"] == pytest.approx(r["moment_hat"] / r["T"] ** (r["p"] * 0.7))


def test_maximal_square_dominates_endpoint_variance(maximal_rows):
    # the supremum dominates the endpoint, whose second moment is 1
    row = next(r for r in maximal_rows if r["T"] == 1.0 and r["p"] == 2.0)
    assert row["moment_hat"] >= 1.0 - 3 * row["se"]


def test_maximal_scaling_constant_is_horizon_free(maximal_rows):
    # the ratio at T = 1 estimates the same constant as the ratio at T = 2
    by_t = {r["T"]: r for r in maximal_rows if r["p"] == 1.0}
    a, b = by_t[1.0], by_t[2.0]
    se_combined = math.hypot(a["se"] / 1.0**0.7, b["se"] / 2.0**0.7)
    assert abs(a["ratio_to_TpH"] - b["ratio_to_TpH"]) <= 3 * se_combined


# --------------------------------------------------------------- consistency


@pytest.fixture(scope="module")
def consistency_rows():
    cfg = ExperimentConfig(
        kind="consistency",
        theta0=1.0,
        eps=(0.5, 0.1),
        delta=(0.5, 0.25),
        n=64,
        replications=120,
        seed=6,
    )
    return run_experiment(cfg)


def test_consistency_rows_sorted(consistency_rows):
    keys = [(r["eps"], r["delta"]) for r in consistency_rows]
    assert keys == sorted(keys)
    assert len(keys) == 4


def test_consistency_probabilities_and_se(consistency_rows):
    for r in consistency_rows:
        assert 0.0 <= r["p_hat"] <= 1.0
        assert r["se"] > 0
        assert r["bound_coeff"] == pytest.approx(r["p_hat"] / r["eps"])
        assert r["m_hat"] > 0
        assert r["g_delta"] > 0


def test_consistency_threshold_logic(consistency_rows):
    for r in consistency_rows:
        expected = math.exp(-abs(r["theta0"])) * r["g_delta"] / (2 * r["eps"]) > r["m_hat"]
        assert r["threshold_ok"] == int(expected)


def test_consistency_smaller_eps_means_smaller_error(consistency_rows):
    by_key = {(r["eps"], r["delta"]): r["p_hat"] for r in consistency_rows}
    assert by_key[(0.1, 0.5)] <= by_key[(0.5, 0.5)]


# ---------------------------------------------------------------- limit-dist


LIMIT_CFG = ExperimentConfig(
    kind="limit-dist",
    theta0=1.0,
    eps=(1e-2, 1e-3),
    n=64,
    replications=60,
    ks_samples=80,
    seed=7,
)


@pytest.fixture(scope="module")
def limit_rows():
    return run_experiment(LIMIT_CFG)


def test_limit_rows_sorted_by_eps(limit_rows):
    assert [r["eps"] for r in limit_rows] == [1e-3, 1e-2]


def test_limit_gap_quantiles_ordered(limit_rows):
    for r in limit_rows:
        assert 0.0 <= r["med_abs_gap"] <= r["q90_abs_gap"]
        assert 0.0 <= r["ks_p"] <= 1.0
        assert 0.0 <= r["ks_stat"] <= 1.0


def test_limit_gap_shrinks_with_eps(limit_rows):
    bands = {name: passed for name, passed, _ in band_summaries(LIMIT_CFG, limit_rows)}
    assert bands["paired-gap-decreasing-in-eps"] is True


# ---------------------------------------------------------- covariance audit


def response_target(s, t, theta, n, h=0.7):
    # Cov(Y_s, Y_t) of the grid sums Y_s = sum_(t_i < s) e^(theta (s - t_i)) dZ_i
    times = np.arange(n + 1) / n
    f = {u: np.exp(theta * (u - times)) * (times < u) for u in (s, t)}
    return covariance_functional(f[s], f[t], h)


@pytest.fixture(scope="module")
def audit_rows():
    cfg = ExperimentConfig(kind="covariance-audit", q=1, n=64, replications=150, seed=8)
    return cfg, run_experiment(cfg)


def test_covariance_audit_response_block_is_the_noise_response_covariance(audit_rows):
    cfg, rows = audit_rows
    assert len(rows) == 20
    idx = {s: round(s * cfg.n) for s in (0.25, 0.5, 0.75, 1.0)}
    paths = [
        _driver(cfg.generator, cfg.q, cfg.H, cfg.n, cfg.m, 1.0)(RngState(cfg.seed, i))
        for i in range(cfg.replications)
    ]
    ys = np.array([
        noise_response(discounted_integral_rows(z.values, z.times, cfg.theta0), np.exp(cfg.theta0 * z.times))
        for z in paths
    ])
    assert [(r["s"], r["t"]) for r in rows[10:]] == [(r["s"], r["t"]) for r in rows[:10]]
    for r in rows[10:]:
        assert r["estimate"] == float(np.mean(ys[:, idx[r["s"]]] * ys[:, idx[r["t"]]])), (r["s"], r["t"])
        assert r["target"] == pytest.approx(response_target(r["s"], r["t"], cfg.theta0, cfg.n), rel=1e-14)
        assert abs(r["estimate"] - r["target"]) <= 3 * r["se"], (r["s"], r["t"])
    assert band_summaries(cfg, rows)[0][1]


@pytest.mark.parametrize("theta", [0.5, 0.0])
def test_covariance_audit_response_block_fails_for_a_wrong_drift(audit_rows, theta):
    # the response rows against the target of another drift; at theta = 0
    # it is the fBm covariance, the path block's target
    cfg, rows = audit_rows
    wrong = [dict(r, target=response_target(r["s"], r["t"], theta, cfg.n)) for r in rows[10:]]
    assert band_summaries(cfg, wrong)[0][1] is False


def test_covariance_audit_needs_quarter_grid():
    with pytest.raises(ValueError):
        run_experiment(ExperimentConfig(kind="covariance-audit", n=62, replications=10))


def test_covariance_audit_q2_within_widened_band():
    # non-Gaussian driver: the band grants its q >= 2 allowance on top of 3 SE
    cfg = ExperimentConfig(
        kind="covariance-audit", q=2, H=0.7, n=256, m=16, replications=800, seed=21
    )
    bands = band_summaries(cfg, run_experiment(cfg))
    assert bands[0][1]


def test_bands_take_the_audit_allowance_from_the_config():
    # worst deviation 3 SE + 0.01: inside the q >= 2 allowance, outside 3 SE
    rows = [
        {"s": 0.5, "t": 1.0, "target": 0.5, "estimate": 0.5 + 3 * 0.004 + 0.01, "se": 0.004, "z_score": 5.5},
        {"s": 1.0, "t": 1.0, "target": 1.0, "estimate": 1.0, "se": 0.004, "z_score": 0.0},
    ]
    wide = ExperimentConfig(kind="covariance-audit", q=2, n=16, m=4, replications=2)
    narrow = dataclasses.replace(wide, q=1)
    assert band_summaries(wide, rows)[0][1] is True
    assert band_summaries(narrow, rows)[0][1] is False


# ------------------------------------------------------- output and summaries


def test_csv_matches_schema_and_determinism():
    cfg = ExperimentConfig(kind="maximal", n=32, T=(1.0,), p=(1.0,), replications=25, seed=9)
    text_a = render(run_experiment(cfg), "maximal")
    text_b = render(run_experiment(cfg), "maximal")
    assert text_a == text_b
    header = text_a.splitlines()[0]
    assert header == ",".join(SCHEMAS["maximal"])


def test_concurrency_does_not_change_output(monkeypatch):
    cfg = ExperimentConfig(kind="consistency", eps=(0.3,), n=32, replications=40, seed=10)
    sequential = render(run_experiment(cfg), "consistency")
    monkeypatch.setenv("HERMITE_OU_THREADS", "4")
    threaded = render(run_experiment(cfg), "consistency")
    assert sequential == threaded


@pytest.mark.parametrize("q", [1, 2])
@pytest.mark.parametrize("kind", harness.KINDS)
def test_threads_do_not_change_output(kind, q, monkeypatch):
    # two CPUs reported, so the pool really runs on a one-CPU machine
    cfg = ExperimentConfig(
        kind=kind, q=q, eps=(1e-2,), n=32, m=4, T=(1.0, 2.0), replications=20, ks_samples=30, seed=12
    )
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    monkeypatch.setenv("HERMITE_OU_THREADS", "1")
    sequential = render(run_experiment(cfg), kind)
    monkeypatch.setenv("HERMITE_OU_THREADS", "2")
    assert render(run_experiment(cfg), kind) == sequential


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("q", [1, 2])
def test_stream_layout_of_every_kind(q, threads, monkeypatch):
    # one replication-to-stream map: which (seed, stream) drives which grid
    reps, ks, seed = 5, 4, 13
    calls = []
    driver = harness._driver

    def recording(generator, q, H, n, m, t_max):
        draw = driver(generator, q, H, n, m, t_max)

        def recorded(rng):
            calls.append((rng.seed, rng.stream, n, t_max))
            return draw(rng)

        return recorded

    monkeypatch.setattr(harness, "_driver", recording)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    monkeypatch.setenv("HERMITE_OU_THREADS", threads)
    for kind in harness.KINDS:
        calls.clear()
        run_experiment(ExperimentConfig(
            kind=kind, q=q, eps=(0.5, 0.1), n=16, m=4, T=(2.0, 0.05),
            replications=reps, ks_samples=ks, seed=seed,
        ))
        streams = sorted(stream for _, stream, _, _ in calls)
        assert len(set(streams)) == len(streams), kind  # no stream repeats
        assert {s for s, _, _, _ in calls} == {seed}
        if kind == "maximal":
            # grid g, in increasing T, on (max(2, round(n T)), T): streams g R .. g R + R - 1
            grids = [(2, 0.05), (32, 2.0)]
            want = {(g * reps + i, n, t) for g, (n, t) in enumerate(grids) for i in range(reps)}
            assert {c[1:] for c in calls} == want
            continue
        want = list(range(reps))
        if kind == "limit-dist":
            want += list(range(10**6, 10**6 + ks))
        assert streams == want, kind
        assert {c[2:] for c in calls} == {(16, 1.0)}


@settings(max_examples=20, deadline=None)
@given(
    workers=st.integers(1, 4),
    reps=st.integers(1, 7),
    per_block=st.integers(1, 7),
    first_stream=st.integers(0, 3),
    kind=st.sampled_from(["maximal", "limit-dist"]),
)
def test_map_paths_gives_each_path_its_own_result_under_any_block_plan(
    workers, reps, per_block, first_stream, kind
):
    # a block-wide fn (noise responses and tangent fits as row passes) must
    # give, in replication order, what each path gives alone from its stream;
    # the sample's count is reps, so cfg.replications goes unread
    cfg = ExperimentConfig(kind=kind, q=2, n=16, m=4, T=(1.0, 2.0), seed=21)
    sizes = []

    def fn(grid, drivers):
        sizes.append((grid.n, len(drivers)))
        ys = noise_response(*harness._discounted_block(grid, drivers, 0.8))
        zetas = tangent_l1_coefficient(ys, grid, 0.8, 1.0)
        return np.column_stack((np.full(len(drivers), grid.n), drivers[:, -1], zetas))

    budget = per_block * (cfg.n * 2 + 1)  # per_block paths of the widest grid
    with (
        mock.patch.object(harness, "_BLOCK_VALUES", budget),
        mock.patch.object(harness.os, "cpu_count", lambda: 4),
        mock.patch.dict(os.environ, {"HERMITE_OU_THREADS": str(workers)}),
    ):
        (got,) = harness._map_paths(cfg, [harness._Sample(fn, reps, first_stream)])
        plan = harness._block_plan([(n, reps, 0) for n, _ in cfg.grids()], workers, cfg.coarse_points)
    want = []
    for g, (n, t_max) in enumerate(cfg.grids()):
        for i in range(reps):
            stream = first_stream + g * reps + i
            z = _driver(cfg.generator, cfg.q, cfg.H, n, cfg.m, t_max)(RngState(cfg.seed, stream))
            y = noise_response(discounted_integral_rows(z.values, z.times, 0.8), np.exp(0.8 * z.times))
            want.append((n, z.values[-1], float(tangent_l1_coefficient(y, z, 0.8, 1.0))))
    assert got.tobytes() == np.array(want).tobytes()
    steps = [n for n, _ in cfg.grids()]
    assert sorted(sizes) == sorted((steps[u], hi - lo) for u, lo, hi in plan)
    assert all(size <= max(1, budget // (n + 1)) for n, size in sizes)


def test_limit_dist_pairs_u_and_zeta_of_one_stream(monkeypatch):
    # every row equals the one computed path by path: u and zeta of
    # replication i both from stream i, the KS sample from 10^6 + i
    cfg = ExperimentConfig(
        kind="limit-dist", q=2, eps=(0.3, 0.05), n=32, m=4, replications=7, ks_samples=5,
        seed=17, theta0=0.6, x0=1.5,
    )
    monkeypatch.setattr(harness, "_BLOCK_VALUES", 2 * len(cfg.eps) * cfg.coarse_points)  # 2 paths a block
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    monkeypatch.setenv("HERMITE_OU_THREADS", "2")
    rows = run_experiment(cfg)

    def driver(stream):
        return _driver(cfg.generator, cfg.q, cfg.H, cfg.n, cfg.m, 1.0)(RngState(cfg.seed, stream))

    def zeta(z):
        y = noise_response(discounted_integral_rows(z.values, z.times, cfg.theta0), np.exp(cfg.theta0 * z.times))
        return float(tangent_l1_coefficient(y, z, cfg.theta0, cfg.x0))

    est_cfg = cfg.estimator_config()
    zetas, us = [], []
    for i in range(cfg.replications):
        z = driver(i)
        zetas.append(zeta(z))
        integral, growth = discounted_integral_rows(z.values, z.times, cfg.theta0), np.exp(cfg.theta0 * z.times)
        us.append([
            (minimize_l1(z.with_values(exact_solution(integral, growth, eps, cfg.x0), "ou"), cfg.x0, est_cfg)
             .theta_hat - cfg.theta0) / eps
            for eps in sorted(cfg.eps)
        ])
    indep = [zeta(driver(10**6 + i)) for i in range(cfg.ks_samples)]
    for k, row in enumerate(rows):
        u = np.array([r[k] for r in us])
        gaps = np.abs(u - np.array(zetas))
        assert row["med_abs_gap"] == float(np.median(gaps))
        assert row["q90_abs_gap"] == float(np.quantile(gaps, 0.9))
        assert (row["ks_stat"], row["ks_p"]) == ks_two_sample(u, indep)


def test_ou_rows_is_one_array_of_the_one_path_solutions():
    # row k E + e of a block's OU rows is path k at eps e, bit for bit
    theta0, x0, eps_values = 0.8, -1.3, (0.5, 0.05, 0.2)
    paths = [simulate_fbm(0.7, 64, 1.0, RngState(3, i)) for i in range(5)]
    integral, growth = harness._discounted_block(paths[0], np.stack([z.values for z in paths]), theta0)
    rows = harness._ou_rows(integral, growth, eps_values, x0)
    assert rows.shape == (len(paths) * len(eps_values), 65)
    assert rows.flags.c_contiguous
    for k, z in enumerate(paths):
        integral = discounted_integral_rows(z.values, z.times, theta0)
        for e, eps in enumerate(eps_values):
            want = exact_solution(integral, np.exp(theta0 * z.times), eps, x0)
            assert rows[k * len(eps_values) + e].tobytes() == want.tobytes()


def test_consistency_block_memory_is_bounded_by_its_row_array():
    # a block of 25 paths x 4 eps holds its OU row array once: no per-row
    # paths and no stacked copy of them beside it
    cfg = ExperimentConfig(kind="consistency", q=1, n=512, eps=(0.5, 0.2, 0.1, 0.05), replications=25, seed=3)
    paths = [_driver(cfg.generator, 1, cfg.H, cfg.n, cfg.m, 1.0)(RngState(cfg.seed, i)) for i in range(25)]
    drivers = np.stack([z.values for z in paths])
    samples = []

    def capture(cfg, sample_list):
        samples.extend(sample_list)
        return [np.ones((cfg.replications, 1 + len(cfg.eps)))]

    with mock.patch.object(harness, "_map_paths", capture):
        run_experiment(cfg)
    block = samples[0].fn
    block(paths[0], drivers)  # warm: grid times and first-call allocations
    tracemalloc.start()
    try:
        block(paths[0], drivers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    row_array_bytes = len(paths) * len(cfg.eps) * (cfg.n + 1) * 8
    assert peak <= 3.6 * row_array_bytes, peak / row_array_bytes


# sha256 of each kind's CSV for small configs: a change that alters an output
# byte fails here, not only in the benchmark; a deliberate draw change re-records them
_RECORDED_BYTES = [
    (dict(kind="consistency", q=1, n=512, eps=(0.5, 0.2, 0.1, 0.05), replications=100, seed=31),
     "1401cc3c03c69a51d28048f58f7654e876063a537405fe19de5df9ca661faaa8"),
    (dict(kind="consistency", q=2, n=256, m=8, eps=(0.5, 0.1), delta=(0.5, 0.25), replications=80, seed=32),
     "cbd3e80320d3d69fde9681e577e82ec441d9d711cb3081ce1edadee5ab3f4fa7"),
    (dict(kind="limit-dist", q=1, n=257, eps=(0.1, 0.02), replications=40, ks_samples=40,
          coarse_points=4001, seed=33),
     "90e7896d2fb22cec321cd6ea43c4d3668221fb7e2f84434b00fc6c0fb3981d57"),
    (dict(kind="limit-dist", q=2, n=256, m=8, eps=(0.2, 0.05, 0.01), replications=80, ks_samples=60, seed=34),
     "462c5b5ae2cf1384b8a19d4cd5ee981285cd42aa4a54f1fec2f60e069a891796"),
    (dict(kind="maximal", q=2, n=64, m=8, T=(1.0, 2.0), p=(1.0, 2.0), replications=60, seed=35),
     "9fc0e06d403bd675e4c0e161a3c452630faa53f78655e182b9329946cdf5806b"),
    (dict(kind="covariance-audit", q=2, n=64, m=8, replications=100, seed=36),
     "00d6e1881e46725e82664412e632a7cef930b958921245bdb6d44edeeadbd629"),
]


def test_every_kind_keeps_its_recorded_bytes():
    for fields, digest in _RECORDED_BYTES:
        cfg = ExperimentConfig(**fields)
        assert hashlib.sha256(render(run_experiment(cfg), cfg.kind).encode()).hexdigest() == digest, fields


@pytest.mark.parametrize(
    "steps, count, coarse_points",
    [([512], 10**6, 201), ([512], 400, 1 << 20), ([2, 32, 2048], 50, 201), ([16], 3, 201)],
)
@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("rows_per_path", [1, 4])
def test_block_plan_bounds_the_memory_of_a_block(steps, count, coarse_points, workers, rows_per_path):
    # the plan alone, nothing allocated: a minimiser unit (rows_per_path rows
    # per path) and a per-path unit on each grid.  A block's rows times its
    # row width stay within the budget unless the block is one replication,
    # and a minimiser unit is split evenly into as few blocks as the budget
    # allows, whatever the worker count
    units = [(n, count, rows_per_path) for n in steps] + [(n, count, 0) for n in steps]
    plan = harness._block_plan(units, workers, coarse_points)
    # minimiser units first, then the per-path ones, each longest grid first
    order = [(units[u][2] == 0, -units[u][0]) for u, _, _ in plan]
    assert order == sorted(order)
    for u, (n, _, rows) in enumerate(units):
        bounds = [(lo, hi) for unit, lo, hi in plan if unit == u]
        assert [lo for lo, _ in bounds] == [0] + [hi for _, hi in bounds[:-1]]
        assert bounds[-1][1] == count
        sizes = [hi - lo for lo, hi in bounds]
        assert min(sizes) >= 1
        width = rows * max(n + 1, coarse_points) if rows else n + 1
        if rows:
            assert len(bounds) == -(-count // max(1, harness._BLOCK_VALUES // width))
            assert max(sizes) - min(sizes) <= 1
        assert all(size == 1 or size * width <= harness._BLOCK_VALUES for size in sizes)


class _Planned(Exception):
    """Carries the block plan of an experiment out before any path is sampled."""


def _plan_of(cfg, workers):
    """The _block_plan that run_experiment(cfg) makes at ``workers`` workers
    on as many CPUs; no path is sampled."""
    block_plan = harness._block_plan

    def planned(*args):
        raise _Planned(block_plan(*args))

    with (
        mock.patch.object(harness, "_block_plan", planned),
        mock.patch.object(harness.os, "cpu_count", lambda: workers),
        mock.patch.dict(os.environ, {"HERMITE_OU_THREADS": str(workers)}),
        pytest.raises(_Planned) as caught,
    ):
        run_experiment(cfg)
    return caught.value.args[0]


@pytest.mark.parametrize("ks_samples, budget, minimiser_blocks", [(50, None, 1), (1, None, 1), (1, 20 * 201, 2)])
def test_limit_dist_plans_its_minimiser_by_its_memory_alone(monkeypatch, ks_samples, budget, minimiser_blocks):
    # at 2 workers the 20 paired paths x 2 eps fit the budget, so their
    # lockstep minimisation is one block beside a KS sample of any size;
    # only a budget of 10 paths' rows splits them
    if budget is not None:
        monkeypatch.setattr(harness, "_BLOCK_VALUES", budget)
    cfg = ExperimentConfig(kind="limit-dist", q=1, n=64, eps=(0.2, 0.1), replications=20, ks_samples=ks_samples)
    plan = _plan_of(cfg, 2)
    assert sum(u == 0 for u, _, _ in plan) == minimiser_blocks
    assert sum(hi - lo for u, lo, hi in plan if u == 0) == 20


def test_consistency_of_25_paths_is_one_block_at_2_workers():
    # 25 paths x 4 eps of 513 doubles fit the budget; two blocks of them
    # would run their short row passes at once, slower than one block
    cfg = ExperimentConfig(kind="consistency", q=1, n=512, eps=(0.5, 0.2, 0.1, 0.05), replications=25)
    assert _plan_of(cfg, 2) == [(0, 0, 25)]


def load_bench_workloads():
    """bench/workloads.py as a module, read only."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(sys.modules, {spec.name: module}):  # dataclasses look their module up
        spec.loader.exec_module(module)
    return module


def test_the_benchmarked_workloads_keep_their_2_worker_plans():
    # the plans the gated workloads run at HERMITE_OU_THREADS=2; a plan
    # change there moves the benchmark's wall_2t_s, so it must be deliberate
    workloads = load_bench_workloads().WORKLOADS
    recorded = {
        "limit-rosenblatt": [
            (0, 0, 20), (1, 0, 13), (1, 13, 23), (1, 23, 30), (1, 30, 35), (1, 35, 39), (1, 39, 42),
            (1, 42, 44), (1, 44, 46), (1, 46, 47), (1, 47, 48), (1, 48, 49), (1, 49, 50),
        ],
        "maximal-rosenblatt": [
            (2, 0, 9), (2, 9, 16), (2, 16, 20), (1, 0, 8), (1, 8, 14), (1, 14, 18), (1, 18, 20),
            (0, 0, 5), (0, 5, 9), (0, 9, 12), (0, 12, 14), (0, 14, 16), (0, 16, 17), (0, 17, 18),
            (0, 18, 19), (0, 19, 20),
        ],
    }
    for name, plan in recorded.items():
        w = workloads[name]
        fields = cli._coerce_config({key: str(value) for key, value in w.config.items()})
        assert _plan_of(ExperimentConfig(kind=w.kind, **fields), 2) == plan, name


@settings(max_examples=200, deadline=None)
@given(
    units=st.lists(
        st.tuples(st.integers(2, 5000), st.integers(0, 300), st.sampled_from([0, 0, 1, 3])),
        min_size=1,
        max_size=5,
    ),
    workers=st.integers(1, 4),
    budget=st.integers(1, 1 << 17),
    coarse_points=st.integers(3, 400),
)
def test_block_plan_is_guided_for_per_path_units(units, workers, budget, coarse_points):
    with mock.patch.object(harness, "_BLOCK_VALUES", budget):
        plan = harness._block_plan(units, workers, coarse_points)

    def even_split(count, width):
        # as few blocks as the budget allows, whatever the worker count
        blocks = -(-count // max(1, budget // width))
        return [(b * count // blocks, (b + 1) * count // blocks) for b in range(blocks)]

    for u, (n, count, rows) in enumerate(units):
        # every replication once, contiguously, in replication order
        bounds = [(lo, hi) for unit, lo, hi in plan if unit == u]
        assert [i for lo, hi in bounds for i in range(lo, hi)] == list(range(count))
        assert all(hi > lo for lo, hi in bounds)
        width = rows * max(n + 1, coarse_points) if rows else n + 1
        assert all(hi - lo == 1 or (hi - lo) * width <= budget for lo, hi in bounds)
        if rows:
            assert bounds == even_split(count, width)
    # minimiser units are queued before every per-path unit
    kinds = [units[u][2] == 0 for u, _, _ in plan]
    assert kinds == sorted(kinds)
    # at every worker count, one included, a guided block takes at most half
    # a worker's share of the per-path work left, counted in steps times
    # paths and rounded up to whole paths
    guided = [(units[u][0], hi - lo) for u, lo, hi in plan if units[u][2] == 0]
    remaining = sum(n * size for n, size in guided)
    for n, size in guided:
        assert size <= -(-remaining // (2 * workers * n))
        remaining -= n * size
    if guided:
        assert guided[-1][1] == 1


@pytest.mark.parametrize(
    "requested, count, cpus, expected",
    [
        ("1000000", 5, 8, 5),  # no more workers than tasks
        ("1000000", 100, 8, 8),  # no more workers than CPUs
        ("3", 100, 8, 3),
        ("0", 100, 8, 8),  # 0 = one per CPU
        ("0", 3, 8, 3),
        ("4", 100, 1, 1),  # one CPU: one worker
        ("4", 100, None, 1),  # CPU count unknown: one worker
        ("4", 1, 8, 1),  # one task: one worker
        ("4", 0, 8, None),  # no task: no pool
    ],
)
def test_map_streams_caps_workers(monkeypatch, requested, count, cpus, expected):
    # the recorder runs tasks on the calling thread, so no real thread is started
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(harness, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
    monkeypatch.setenv("HERMITE_OU_THREADS", requested)
    assert harness._map_streams(lambda i: i * i, count) == [i * i for i in range(count)]
    assert sizes == ([] if expected is None else [expected])


@pytest.mark.parametrize("threads", ["-1", "-5", "abc", "1.5", ""])
def test_workers_rejects_a_thread_count_that_is_not_an_integer_at_least_0(threads, monkeypatch):
    monkeypatch.setenv("HERMITE_OU_THREADS", threads)
    with pytest.raises(ValueError, match=r"^HERMITE_OU_THREADS must be an integer >= 0, got "):
        harness._workers()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_map_streams_runs_tasks_off_the_main_thread(threads, monkeypatch):
    # at one thread too: on the main thread glibc's main arena trims the heap
    # after each large temporary, and the next path faults its pages in again
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    monkeypatch.setenv("HERMITE_OU_THREADS", threads)
    ran_on = harness._map_streams(lambda i: threading.current_thread(), 6)
    assert all(t is not threading.main_thread() for t in ran_on)
    assert len(set(ran_on)) <= int(threads)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_map_streams_fails_fast(threads, monkeypatch):
    # the first task raises: the tasks not yet started are cancelled
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    monkeypatch.setenv("HERMITE_OU_THREADS", threads)
    ran = []

    def task(i):
        ran.append(i)
        if i == 0:
            raise RuntimeError("task 0 failed")
        return i

    with pytest.raises(RuntimeError, match="task 0 failed"):
        harness._map_streams(task, 500)
    assert len(ran) < 10


def test_map_streams_cancels_queued_tasks_when_the_caller_is_interrupted(monkeypatch):
    def interrupted(futures, return_when):
        raise KeyboardInterrupt

    monkeypatch.setattr(harness, "wait", interrupted)
    monkeypatch.setenv("HERMITE_OU_THREADS", "1")
    ran = []

    def task(i):
        ran.append(i)
        time.sleep(0.001)

    with pytest.raises(KeyboardInterrupt):
        harness._map_streams(task, 500)
    assert len(ran) < 10


def test_band_summaries_shapes():
    cfg = ExperimentConfig(
        kind="maximal", n=64, T=(1.0, 2.0), p=(1.0,), replications=150, seed=11
    )
    bands = band_summaries(cfg, run_experiment(cfg))
    assert len(bands) == 1
    name, passed, detail = bands[0]
    assert "spread" in detail
    assert isinstance(passed, bool)


@pytest.mark.parametrize(
    "fields, skipped",
    [
        ({"kind": "maximal", "T": (1.0,), "p": (1.0, 2.0)},
         ["scaling-ratio-spread(p=1)", "scaling-ratio-spread(p=2)"]),
        ({"kind": "limit-dist", "eps": (0.1,), "ks_samples": 4}, ["paired-gap-decreasing-in-eps"]),
        ({"kind": "consistency", "eps": (0.1,), "delta": (0.5,)}, ["p-monotone-in-eps(delta=0.5)"]),
        ({"kind": "maximal", "T": (1.0, 2.0)}, []),
        ({"kind": "limit-dist", "eps": (0.2, 0.1), "ks_samples": 4}, []),
        ({"kind": "consistency", "eps": (0.2, 0.1)}, []),
    ],
    ids=["maximal-one-T", "limit-dist-one-eps", "consistency-one-eps",
         "maximal-two-T", "limit-dist-two-eps", "consistency-two-eps"],
)
def test_band_is_checked_only_over_a_sweep_of_two_or_more_values(fields, skipped):
    cfg = ExperimentConfig(n=16, m=4, q=2, replications=4, seed=3, **fields)
    bands = band_summaries(cfg, run_experiment(cfg))
    assert [name for name, passed, _ in bands if passed is None] == skipped
    for name, passed, detail in bands:
        if passed is None:
            assert detail == f"one {'T' if cfg.kind == 'maximal' else 'eps'} value, nothing to compare"
        else:
            assert isinstance(passed, bool), name


def _consistency_row(eps, p_hat, threshold_ok=0):
    # at theta0 = 0, m_hat = 1 and g_delta = 2 the bound 2 eps e^|theta0| m_hat / g_delta is eps
    return {"eps": eps, "delta": 0.5, "theta0": 0.0, "p_hat": p_hat, "se": 0.01,
            "g_delta": 2.0, "m_hat": 1.0, "threshold_ok": threshold_ok}


def _limit_rows(*med_and_ks_p):
    return [{"eps": eps, "med_abs_gap": med, "ks_p": ks_p}
            for eps, (med, ks_p) in zip((1e-3, 1e-2), med_and_ks_p)]


@pytest.mark.parametrize(
    "kind, rows, band, passed",
    [
        # relative spread of the ratios: 0.09 / 1.045, then 0.11 / 1.055
        ("maximal", [{"p": 1.0, "ratio_to_TpH": 1.0}, {"p": 1.0, "ratio_to_TpH": 1.09}],
         "scaling-ratio-spread(p=1)", True),
        ("maximal", [{"p": 1.0, "ratio_to_TpH": 1.0}, {"p": 1.0, "ratio_to_TpH": 1.11}],
         "scaling-ratio-spread(p=1)", False),
        # the smaller eps may lie at most 2 hypot(se) = 0.0283 above the larger
        ("consistency", [_consistency_row(0.1, 0.22), _consistency_row(0.2, 0.2)],
         "p-monotone-in-eps(delta=0.5)", True),
        ("consistency", [_consistency_row(0.1, 0.23), _consistency_row(0.2, 0.2)],
         "p-monotone-in-eps(delta=0.5)", False),
        # bound + 3 se = 0.13 on the one threshold row
        ("consistency", [_consistency_row(0.1, 0.12, 1), _consistency_row(0.2, 0.9)],
         "p-below-bound(delta=0.5)", True),
        ("consistency", [_consistency_row(0.1, 0.14, 1), _consistency_row(0.2, 0.9)],
         "p-below-bound(delta=0.5)", False),
        ("limit-dist", _limit_rows((0.1, 0.5), (0.2, 0.5)), "paired-gap-decreasing-in-eps", True),
        ("limit-dist", _limit_rows((0.2, 0.5), (0.1, 0.5)), "paired-gap-decreasing-in-eps", False),
        ("limit-dist", _limit_rows((0.1, 0.5), (0.1, 0.5)), "paired-gap-decreasing-in-eps", False),
        ("limit-dist", _limit_rows((0.1, 0.02), (0.2, 0.5)), "ks-not-rejected(level 0.01)", True),
        ("limit-dist", _limit_rows((0.1, 0.5), (0.2, 0.01)), "ks-not-rejected(level 0.01)", False),
    ],
    ids=["spread-pass", "spread-fail", "monotone-pass", "monotone-fail", "bound-pass",
         "bound-fail", "decreasing-pass", "decreasing-fail", "decreasing-fail-on-equal-medians",
         "ks-pass", "ks-fail"],
)
def test_band_passes_and_fails_on_synthetic_rows(kind, rows, band, passed):
    cfg = ExperimentConfig(kind=kind, n=16, m=4, replications=2)
    assert {name: ok for name, ok, _ in band_summaries(cfg, rows)}[band] is passed


def test_bound_band_is_skipped_when_no_row_passed_the_threshold_check():
    # at eps = 5 and 2 no row meets the threshold condition, so the bound
    # band checks nothing: SKIP, not PASS
    cfg = ExperimentConfig(kind="consistency", eps=(5.0, 2.0), n=64, replications=20)
    rows = run_experiment(cfg)
    assert not any(r["threshold_ok"] for r in rows)
    bands = band_summaries(cfg, rows)
    assert ("p-below-bound(delta=0.5)", None, "0 rows passed the threshold check") in bands
