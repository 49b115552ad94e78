import io
import math

import numpy as np
import pytest

from hermite_ou import harness, make_rng, normal_deviates
from hermite_ou.harness import (
    SCHEMAS,
    ExperimentConfig,
    band_summaries,
    ks_two_sample,
    run_consistency,
    run_covariance_audit,
    run_experiment,
    run_limit_dist,
    run_maximal,
    simulate_driver,
    write_rows_csv,
)
from hermite_ou.hermite import HermiteSpec, simulate_fbm, simulate_partial_sum


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
        a = normal_deviates(make_rng(777, 2 * k), n)
        b = normal_deviates(make_rng(777, 2 * k + 1), n)
        rejections += ks_two_sample(a, b)[1] <= 0.05
    rate = rejections / trials
    band = 3 * math.sqrt(0.05 * 0.95 / trials)
    assert abs(rate - 0.05) < band, rate


# ------------------------------------------------------------- configuration


def test_config_rejects_unknown_kind():
    with pytest.raises(ValueError, match="consistency"):
        ExperimentConfig(kind="bogus")


def test_config_rejects_empty_sweep():
    with pytest.raises(ValueError):
        ExperimentConfig(kind="maximal", T=())


def test_config_rejects_bad_eps():
    # every sweep must be positive, checked when the config is built
    for name, sweep in (("eps", (0.1, -0.5)), ("delta", (0.5, 0.0)), ("p", (-1.0,)), ("T", (0.0,))):
        with pytest.raises(ValueError, match=f"{name} values must be positive"):
            ExperimentConfig(kind="consistency", **{name: sweep})


def test_config_rejects_bad_process():
    with pytest.raises(ValueError):
        ExperimentConfig(kind="maximal", q=0)
    with pytest.raises(ValueError):
        ExperimentConfig(kind="maximal", H=0.4)
    # the kernel reference generator is too memory-hungry for experiments
    with pytest.raises(ValueError, match="generator"):
        ExperimentConfig(kind="maximal", generator="kernel")


# ------------------------------------------------------------ driver dispatch


def test_simulate_driver_auto_picks_by_order():
    rng = make_rng(4, 1)
    fbm = simulate_driver("auto", 1, 0.7, 32, 8, 2.0, rng)
    np.testing.assert_array_equal(fbm.values, simulate_fbm(0.7, 32, 2.0, rng).values)
    ps = simulate_driver("auto", 2, 0.7, 32, 8, 2.0, rng)
    want = simulate_partial_sum(HermiteSpec(2, 0.7), 32, 8, 2.0, rng)
    np.testing.assert_array_equal(ps.values, want.values)


def test_simulate_driver_kernel_default_truncation():
    z = simulate_driver("kernel", 1, 0.7, 8, 1, 0.5, make_rng(0, 0))
    assert z.meta["trunc"] == 5.0


def test_simulate_driver_rejects_bad_choices():
    with pytest.raises(ValueError, match="order q"):
        simulate_driver("fbm", 2, 0.7, 32, 8, 1.0, make_rng(0, 0))
    with pytest.raises(ValueError, match="order q"):
        simulate_driver("kernel", 3, 0.7, 8, 1, 1.0, make_rng(0, 0))
    with pytest.raises(ValueError, match="unknown generator"):
        simulate_driver("bogus", 2, 0.7, 32, 8, 1.0, make_rng(0, 0))


# ------------------------------------------------------------------- maximal


@pytest.fixture(scope="module")
def maximal_rows():
    cfg = ExperimentConfig(
        kind="maximal", q=1, H=0.7, n=64, T=(2.0, 1.0), p=(2.0, 1.0), replications=200, seed=5
    )
    return run_maximal(cfg)


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
    return run_consistency(cfg)


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


@pytest.fixture(scope="module")
def limit_rows():
    cfg = ExperimentConfig(
        kind="limit-dist",
        theta0=1.0,
        eps=(1e-2, 1e-3),
        n=64,
        replications=60,
        ks_samples=80,
        seed=7,
    )
    return run_limit_dist(cfg)


def test_limit_rows_sorted_by_eps(limit_rows):
    assert [r["eps"] for r in limit_rows] == [1e-3, 1e-2]


def test_limit_gap_quantiles_ordered(limit_rows):
    for r in limit_rows:
        assert 0.0 <= r["med_abs_gap"] <= r["q90_abs_gap"]
        assert 0.0 <= r["ks_p"] <= 1.0
        assert 0.0 <= r["ks_stat"] <= 1.0


def test_limit_gap_shrinks_with_eps(limit_rows):
    assert limit_rows[0]["med_abs_gap"] <= limit_rows[1]["med_abs_gap"]


# ---------------------------------------------------------- covariance audit


def test_covariance_audit_blocks_agree():
    cfg = ExperimentConfig(kind="covariance-audit", q=1, n=64, replications=150, seed=8)
    rows = run_covariance_audit(cfg)
    assert len(rows) == 20
    # indicator Wiener integrals telescope to path values, so the two blocks
    # report identical estimates
    for path_row, int_row in zip(rows[:10], rows[10:]):
        assert (path_row["s"], path_row["t"]) == (int_row["s"], int_row["t"])
        assert path_row["estimate"] == pytest.approx(int_row["estimate"], rel=1e-12)


def test_covariance_audit_needs_quarter_grid():
    with pytest.raises(ValueError):
        run_covariance_audit(ExperimentConfig(kind="covariance-audit", n=62, replications=10))


def test_covariance_audit_q2_within_widened_band():
    # non-Gaussian driver: 3 SE plus the 0.02 partial-sum bias allowance
    cfg = ExperimentConfig(
        kind="covariance-audit", q=2, H=0.7, n=256, m=16, replications=800, seed=21
    )
    rows = run_covariance_audit(cfg)
    for r in rows:
        assert abs(r["estimate"] - r["target"]) <= 3 * r["se"] + 0.02, (r["s"], r["t"])
    bands = band_summaries("covariance-audit", rows, wide_audit=True)
    assert bands[0][1]


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
    sequential = render(run_consistency(cfg), "consistency")
    monkeypatch.setenv("HERMITE_OU_THREADS", "4")
    threaded = render(run_consistency(cfg), "consistency")
    assert sequential == threaded


def test_limit_dist_threads_do_not_change_output(monkeypatch):
    cfg = ExperimentConfig(
        kind="limit-dist", eps=(1e-2,), n=32, replications=20, ks_samples=30, seed=12
    )
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    monkeypatch.setenv("HERMITE_OU_THREADS", "1")
    sequential = render(run_limit_dist(cfg), "limit-dist")
    monkeypatch.setenv("HERMITE_OU_THREADS", "2")
    assert render(run_limit_dist(cfg), "limit-dist") == sequential


@pytest.mark.parametrize(
    "requested, count, cpus, expected",
    [
        ("1000000", 5, 8, 5),  # no more workers than tasks
        ("1000000", 100, 8, 8),  # no more workers than CPUs
        ("3", 100, 8, 3),
        ("0", 100, 8, 8),  # 0 = one per CPU
        ("0", 3, 8, 3),
        ("4", 100, 1, None),  # one CPU: sequential, no pool
        ("4", 100, None, None),  # CPU count unknown: sequential
        ("4", 1, 8, None),  # one task: sequential
        ("4", 0, 8, None),
    ],
)
def test_map_streams_caps_workers(monkeypatch, requested, count, cpus, expected):
    # the recorder runs tasks sequentially, so no real thread is started
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(harness, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
    monkeypatch.setenv("HERMITE_OU_THREADS", requested)
    assert harness._map_streams(lambda i: i * i, count) == [i * i for i in range(count)]
    assert sizes == ([] if expected is None else [expected])


def test_band_summaries_shapes():
    cfg = ExperimentConfig(
        kind="maximal", n=64, T=(1.0, 2.0), p=(1.0,), replications=150, seed=11
    )
    bands = band_summaries("maximal", run_maximal(cfg))
    assert len(bands) == 1
    name, passed, detail = bands[0]
    assert "spread" in detail
    assert isinstance(bool(passed), bool)
