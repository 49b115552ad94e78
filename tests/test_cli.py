import hashlib
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from hermite_ou import hermite
from hermite_ou.cli import main
from hermite_ou.estimator import EstimatorConfig, minimize_l1
from hermite_ou.harness import ExperimentConfig
from hermite_ou.hermite import GridPath, Provenance, read_path_csv, write_path_csv


def run_cli(*argv):
    return main(list(argv))


def write_skeleton_csv(path, theta=0.5, x0=1.0, n=256):
    t = np.arange(n + 1) / n
    grid = GridPath(1.0, n, x0 * np.exp(theta * t), Provenance(0, 0, "skeleton"))
    with open(path, "w", encoding="utf-8") as fh:
        write_path_csv(grid, fh)


# ------------------------------------------------------------------ simulate


def test_simulate_hermite_row_count_and_zero_start(tmp_path):
    out = tmp_path / "z.csv"
    code = run_cli(
        "simulate", "--process", "hermite", "--q", "1", "--H", "0.7",
        "--n", "512", "--seed", "1", "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().splitlines()
    data = [ln for ln in lines if not ln.startswith("#")]
    assert data[0] == "t,value"
    assert len(data) == 1 + 513
    assert data[1].split(",")[1] == "0"


def test_simulate_ou_starts_at_x0(tmp_path):
    out = tmp_path / "x.csv"
    code = run_cli(
        "simulate", "--process", "ou", "--theta", "1", "--eps", "0.1", "--x0", "1.5",
        "--n", "128", "--seed", "2", "--out", str(out),
    )
    assert code == 0
    data = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    assert data[1].split(",")[1] == "1.5"


# sha256 of the whole CSV simulate writes, comment lines included
SIMULATE_BYTES = {
    "ou-seed-1": (["--process", "ou", "--q", "2", "--n", "64", "--m", "8", "--stream", "3",
                   "--theta", "-0.7", "--eps", "0.3", "--x0", "2", "--seed", "1"],
                  "517c771b3edab29c4f296bdf9e75aa67679c041030d2c15db06693b2ce15c847"),
    "ou-seed-7": (["--process", "ou", "--q", "2", "--n", "64", "--m", "8", "--stream", "3",
                   "--theta", "-0.7", "--eps", "0.3", "--x0", "2", "--seed", "7"],
                  "c4b529a1cca2f3ead009b124087c351e0341d219e97af3bfe536e1cde36d2faa"),
    "hermite-seed-1": (["--process", "hermite", "--q", "2", "--n", "64", "--m", "8", "--stream", "3",
                        "--seed", "1"],
                       "88f03171ed88729b534c89de1ab1ec810cdef760a58811c739ea3058886c0bfc"),
}


@pytest.mark.parametrize("flags, digest", SIMULATE_BYTES.values(), ids=SIMULATE_BYTES.keys())
def test_simulate_keeps_its_recorded_bytes(flags, digest, tmp_path):
    out = tmp_path / "p.csv"
    assert run_cli("simulate", *flags, "--out", str(out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_simulate_identical_flags_identical_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    flags = ["simulate", "--process", "hermite", "--q", "2", "--H", "0.7",
             "--n", "64", "--m", "8", "--seed", "7"]
    assert run_cli(*flags, "--out", str(a)) == 0
    assert run_cli(*flags, "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


# every simulate rejection: (flags, the flag the error line must name)
BAD_SIMULATE_FLAGS = {
    "n-1": (["--n", "1"], "--n"),
    "m-0": (["--m", "0"], "--m"),
    "t-max-0": (["--t-max", "0"], "--t-max"),
    "t-max-nan": (["--t-max", "nan"], "--t-max"),
    "t-max-inf": (["--t-max", "inf"], "--t-max"),
    "ps-t-max-tiny": (["--q", "2", "--t-max", "1e-9"], "--t-max"),
    "eps-0": (["--eps", "0"], "--eps"),
    "eps-nan": (["--eps", "nan"], "--eps"),
    "eps-inf": (["--eps", "inf"], "--eps"),
    "theta-nan": (["--theta", "nan"], "--theta"),
    "x0-inf": (["--x0", "inf"], "--x0"),
    "x0-nan": (["--x0", "nan"], "--x0"),
    "theta-800": (["--theta", "800"], "--theta/--eps/--x0"),  # e^(800 t) overflows
    "theta-neg-800": (["--theta=-800"], "--theta/--eps/--x0"),  # its discount e^(800 t) overflows
    "fbm-q2": (["--generator", "fbm", "--q", "2"], "--q"),
    "q2-H1.4": (["--q", "2", "--H", "1.4"], "--H"),
    "q-165": (["--q", "165"], "--q"),  # q! k^2 may overflow the normalization
    "q-171": (["--q", "171"], "--q"),  # q! itself overflows a double
}


def simulate_ou(tmp_path, *flags):
    return run_cli(
        "simulate", "--process", "ou", "--n", "16", "--m", "4",
        "--out", str(tmp_path / "x.csv"), *flags,
    )


@pytest.mark.parametrize("case", BAD_SIMULATE_FLAGS)
def test_simulate_rejects_bad_flag(case, tmp_path, capsys):
    flags, named = BAD_SIMULATE_FLAGS[case]
    assert simulate_ou(tmp_path, *flags) == 2
    err = capsys.readouterr().err.splitlines()  # the one error line, no numpy warnings
    assert len(err) == 1 and err[0].startswith("error: ") and named in err[0], err
    assert not (tmp_path / "x.csv").exists()


def test_simulate_fbm_accepts_any_hurst(tmp_path):
    # exact fBm is defined for every H in (0, 1), not just the Hermite range
    assert simulate_ou(tmp_path, "--generator", "fbm", "--q", "1", "--H", "0.3") == 0


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--generator", "kernel"], "error: argument --generator: invalid choice: 'kernel'"),
        (["--trunc", "10"], "error: unrecognized arguments: --trunc 10"),
    ],
    ids=["generator-kernel", "trunc"],
)
def test_simulate_has_no_kernel_generator(flags, message, tmp_path, capsys):
    assert simulate_ou(tmp_path, "--q", "2", *flags) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    "flags",
    [
        ["--q", "2", "--n", "100000000"],  # 3.2e9 partial-sum values, 32 GiB before
        ["--q", "1", "--n", "10000000000"],  # 128 GiB before
        ["--q", "2", "--n", str((1 << 18) + 1)],
        ["--q", "1", "--n", str((1 << 23) + 1)],
    ],
)
def test_simulate_sizes_the_embedding_before_allocating(flags, tmp_path, capsys):
    fail = mock.Mock(side_effect=AssertionError("sample_stationary_gaussian called"))
    with mock.patch.object(hermite, "sample_stationary_gaussian", fail):
        code = run_cli("simulate", "--process", "hermite", *flags, "--out", str(tmp_path / "z.csv"))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --n: grid size n = {flags[-1]}")
    assert err.count("\n") == 1
    assert not (tmp_path / "z.csv").exists()


def test_simulate_rejects_a_horizon_with_a_fractional_unit_of_summands(tmp_path, capsys):
    # n m / t_max = 512 * 32 / 1000 = 16.384 summands per unit of time: the
    # normalization would divide by the standard deviation of 16
    fail = mock.Mock(side_effect=AssertionError("sample_stationary_gaussian called"))
    with mock.patch.object(hermite, "sample_stationary_gaussian", fail):
        code = run_cli("simulate", "--process", "hermite", "--q", "2", "--t-max", "1000",
                       "--out", str(tmp_path / "z.csv"))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --t-max: t_max = 1000 with n = 512 and m = 32")
    assert err.count("\n") == 1
    assert not (tmp_path / "z.csv").exists()


@pytest.mark.parametrize("field", ["x0=nan", "x0=-inf", "theta0=nan", "theta0=inf"])
def test_experiment_rejects_non_finite_start_before_sampling(field, tmp_path, capsys):
    cfg = tmp_path / "l.cfg"
    write_config(cfg, kind="limit-dist", q=2, n=16, m=4, replications=4, ks_samples=4)
    fail = mock.Mock(side_effect=AssertionError("sample_stationary_gaussian called"))
    with mock.patch.object(hermite, "sample_stationary_gaussian", fail):
        code = run_cli("experiment", "--config", str(cfg), "--set", field,
                       "--out-dir", str(tmp_path / "out"))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert f"{field.partition('=')[0]} must be finite" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", ["consistency", "limit-dist"])
def test_experiment_rejects_zero_start_before_sampling(kind, tmp_path, capsys):
    # x0 = 0 makes every skeleton the same curve: consistency would report a
    # separation of 0 with both bands passing, limit-dist has no fit coefficient
    cfg = tmp_path / "z.cfg"
    write_config(cfg, kind=kind, q=2, n=16, m=4, replications=4, ks_samples=4)
    fail = mock.Mock(side_effect=AssertionError("sample_stationary_gaussian called"))
    with mock.patch.object(hermite, "sample_stationary_gaussian", fail):
        code = run_cli("experiment", "--config", str(cfg), "--set", "x0=0",
                       "--out-dir", str(tmp_path / "out"))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "x0 must be nonzero" in err
    assert not (tmp_path / "out").exists()


def test_experiment_rejects_a_subnormal_start_that_overflows_the_tangent_fit(tmp_path, capsys):
    # x0 = 1e-320 is finite and nonzero, but every skeleton is then nearly 0:
    # consistency cannot identify theta (it printed p_hat = 1 and a PASS),
    # and Y_i / (t_i x0 e^(theta0 t_i)) overflows in the limit-dist tangent fit.
    # Both kinds reject it before sampling
    for kind in ("consistency", "limit-dist"):
        cfg = tmp_path / f"{kind}.cfg"
        write_config(cfg, kind=kind, n=64, replications=4, ks_samples=4)
        fail = mock.Mock(side_effect=AssertionError("sample_stationary_gaussian called"))
        with mock.patch.object(hermite, "sample_stationary_gaussian", fail):
            code = run_cli("experiment", "--config", str(cfg), "--set", "x0=1e-320",
                           "--out-dir", str(tmp_path / "out"))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid experiment configuration: x0 must be nonzero and normal, got 1e-320")
        assert err.count("\n") == 1, err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "kind, message",
    [
        ("consistency", "[theta0 - delta, theta0 + delta] = [1.3, 2.3] must lie inside (-2.0, 2.0)"),
        ("limit-dist", "theta0 = 3.0 must lie inside (-2.0, 2.0)"),
    ],
    ids=["consistency", "limit-dist"],
)
def test_experiment_rejects_an_estimand_outside_the_window_before_sampling(kind, message, tmp_path, capsys):
    # outside the window every theta_hat is pinned at its edge, so the
    # config must fail before any path is sampled
    cfg = tmp_path / "w.cfg"
    write_config(cfg, kind=kind, q=2, n=16, m=4, replications=4, ks_samples=4)
    theta0 = "1.8" if kind == "consistency" else "3"
    fail = mock.Mock(side_effect=AssertionError("sample_stationary_gaussian called"))
    with mock.patch.object(hermite, "sample_stationary_gaussian", fail):
        code = run_cli("experiment", "--config", str(cfg), "--set", f"theta0={theta0}",
                       "--out-dir", str(tmp_path / "out"))
    assert code == 2
    assert capsys.readouterr().err == f"error: invalid experiment configuration: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", ["consistency", "limit-dist"])
def test_experiment_rejects_an_overflowing_window_before_sampling(kind, tmp_path, capsys):
    # e^(800 t) overflows a double on [0, 1] for every path, so the config
    # must fail before the first block is sampled, not in the estimator
    with pytest.raises(ValueError, match=r"^window \[-2.0, 800.0\] overflows"):
        ExperimentConfig(kind=kind, theta_hi=800.0, n=64, replications=4)
    cfg = tmp_path / "w.cfg"
    write_config(cfg, kind=kind, q=2, n=16, m=4, replications=4, ks_samples=4)
    fail = mock.Mock(side_effect=AssertionError("sample_stationary_gaussian called"))
    with mock.patch.object(hermite, "sample_stationary_gaussian", fail):
        code = run_cli("experiment", "--config", str(cfg), "--set", "theta_hi=800",
                       "--out-dir", str(tmp_path / "out"))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "window [-2.0, 800.0] overflows" in err
    assert not (tmp_path / "out").exists()
    assert fail.call_count == 0


def test_experiment_rejects_grid_above_the_embedding_limit(tmp_path, capsys):
    cfg = tmp_path / "m.cfg"
    write_config(cfg, q=2, n=1 << 18, T="1,2")
    fail = mock.Mock(side_effect=AssertionError("sample_stationary_gaussian called"))
    with mock.patch.object(hermite, "sample_stationary_gaussian", fail):
        code = run_cli("experiment", "--config", str(cfg), "--out-dir", str(tmp_path / "out"))
    assert code == 2
    assert "grid size n = 524288 with m = 32" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "kind, overrides, message",
    [
        ("consistency", ["generator=fbm", "q=2"], "the fbm generator needs order q = 1, got q=2"),
        ("covariance-audit", ["n=30"], "covariance audit needs n divisible by 4, got n = 30"),
        ("covariance-audit", ["theta0=400"], "covariance audit needs |theta0| <= 88.72, got theta0 = 400.0: "
         "the noise response and its squared products would overflow"),
    ],
    ids=["fbm-q2", "audit-n30", "audit-theta0"],
)
def test_experiment_rejects_bad_generator_or_grid_before_sampling(
    kind, overrides, message, tmp_path, capsys
):
    cfg = tmp_path / "b.cfg"
    write_config(cfg, kind=kind, n=16, m=4, replications=4)
    flags = [arg for item in overrides for arg in ("--set", item)]
    fail = mock.Mock(side_effect=AssertionError("sample_stationary_gaussian called"))
    with mock.patch.object(hermite, "sample_stationary_gaussian", fail):
        code = run_cli("experiment", "--config", str(cfg), *flags,
                       "--out-dir", str(tmp_path / "out"))
    assert code == 2
    assert capsys.readouterr().err == f"error: invalid experiment configuration: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "flags, seed",
    [(["--set", "seed=-1"], -1), (["--seed", str(2**64)], 2**64)],
    ids=["set-negative", "flag-2^64"],
)
def test_experiment_rejects_out_of_range_seed_before_sampling(flags, seed, tmp_path, capsys):
    cfg = tmp_path / "s.cfg"
    write_config(cfg, n=16, replications=4)
    fail = mock.Mock(side_effect=AssertionError("sample_stationary_gaussian called"))
    with mock.patch.object(hermite, "sample_stationary_gaussian", fail):
        code = run_cli("experiment", "--config", str(cfg), *flags, "--out-dir", str(tmp_path / "out"))
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: invalid experiment configuration: seed must be a 64-bit unsigned integer, got {seed}\n"
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("threads", ["-1", "abc"])
def test_experiment_rejects_a_bad_thread_count_before_sampling(threads, tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "t.cfg"
    write_config(cfg, n=16, replications=4)
    monkeypatch.setenv("HERMITE_OU_THREADS", threads)
    fail = mock.Mock(side_effect=AssertionError("sample_stationary_gaussian called"))
    with mock.patch.object(hermite, "sample_stationary_gaussian", fail):
        code = run_cli("experiment", "--config", str(cfg), "--out-dir", str(tmp_path / "out"))
    assert code == 2
    assert capsys.readouterr().err == f"error: HERMITE_OU_THREADS must be an integer >= 0, got {threads!r}\n"
    assert not (tmp_path / "out").exists()


def test_experiment_maximal_rejects_moments_beyond_the_double_range(tmp_path, capsys):
    # sup |Z|^800 and its square overflow a double: the run must stop with an
    # error naming p instead of writing inf or nan
    cfg = tmp_path / "m.cfg"
    write_config(cfg, n=16, T="1,2", p="800", replications=3)
    code = run_cli("experiment", "--config", str(cfg), "--out-dir", str(tmp_path / "out"))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: p = 800 is too large") and err.count("\n") == 1, err
    assert not (tmp_path / "out" / "maximal.csv").exists()


# ------------------------------------------------------------------ estimate


def test_estimate_recovers_noise_free_drift(tmp_path, capsys):
    src = tmp_path / "skel.csv"
    write_skeleton_csv(src, theta=0.5)
    code = run_cli("estimate", "--input", str(src), "--x0", "1.0")
    assert code == 0
    out = capsys.readouterr().out
    theta_hat = float(next(ln for ln in out.splitlines() if ln.startswith("theta_hat=")).split("=")[1])
    assert abs(theta_hat - 0.5) < 1e-7


def test_estimate_missing_file_names_path(tmp_path, capsys):
    missing = tmp_path / "nope.csv"
    code = run_cli("estimate", "--input", str(missing), "--x0", "1.0")
    assert code != 0
    assert str(missing) in capsys.readouterr().err


def test_estimate_rejects_inverted_bounds(tmp_path, capsys):
    src = tmp_path / "skel.csv"
    write_skeleton_csv(src)
    code = run_cli(
        "estimate", "--input", str(src), "--x0", "1.0",
        "--theta-lo", "2", "--theta-hi", "-2",
    )
    assert code != 0
    assert "theta-lo" in capsys.readouterr().err


def test_estimate_writes_result_csv(tmp_path):
    src = tmp_path / "skel.csv"
    out = tmp_path / "res.csv"
    write_skeleton_csv(src)
    assert run_cli("estimate", "--input", str(src), "--x0", "1.0", "--out", str(out)) == 0
    header, row = out.read_text().splitlines()
    assert header == "theta_hat,objective_value,n_evals,bracket_lo,bracket_hi"
    assert len(row.split(",")) == 5


def test_estimate_overflowing_window_exits_2_under_warnings_as_errors(tmp_path):
    src = tmp_path / "skel.csv"
    write_skeleton_csv(src)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "hermite_ou", "estimate", "--input", str(src),
         "--x0", "1", "--theta-lo", "-800", "--theta-hi", "800"],
        capture_output=True, text=True, env=env, check=False,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: --theta-lo/--theta-hi:")
    assert "Traceback" not in proc.stderr


def test_estimate_rejects_path_values_near_double_range(tmp_path, capsys):
    src = tmp_path / "huge.csv"
    with open(src, "w", encoding="utf-8") as fh:
        write_path_csv(GridPath(1.0, 512, np.full(513, 1e307), Provenance(0, 0, "huge")), fh)
    with open(src, "r", encoding="utf-8") as fh:
        path = read_path_csv(fh)
    with pytest.raises(ValueError, match="overflow"):
        minimize_l1(path, 1.0, EstimatorConfig(-2.0, 2.0))
    assert run_cli("estimate", "--input", str(src), "--x0", "1") == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: --input/--x0: path values overflow")
    assert err.count("\n") == 1


# every estimate rejection: (flags, the flag the error line must name)
BAD_ESTIMATE_FLAGS = {
    "refine-tol-nan": (["--refine-tol", "nan"], "--refine-tol"),
    "refine-tol-inf": (["--refine-tol", "inf"], "--refine-tol"),
    "refine-tol-0": (["--refine-tol", "0"], "--refine-tol"),
    "coarse-points-huge": (["--coarse-points", "10000000000"], "--coarse-points"),
    "coarse-points-2": (["--coarse-points", "2"], "--coarse-points"),
    "x0-nan": (["--x0", "nan"], "--x0"),
    "x0-inf": (["--x0=-inf"], "--x0"),
    # every skeleton is (nearly) 0: the config rejects these starts as well
    "x0-0": (["--x0", "0"], "--x0"),
    "x0-neg0": (["--x0=-0.0"], "--x0"),
    "x0-subnormal": (["--x0", "1e-320"], "--x0"),
}


@pytest.mark.parametrize("case", BAD_ESTIMATE_FLAGS)
def test_estimate_rejects_bad_flag(case, tmp_path, capsys):
    src = tmp_path / "skel.csv"
    write_skeleton_csv(src)
    flags, named = BAD_ESTIMATE_FLAGS[case]
    out = tmp_path / "res.csv"
    assert run_cli("estimate", "--input", str(src), "--x0", "1", *flags, "--out", str(out)) == 2
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert err.startswith(f"error: {named}: ") and err.count("\n") == 1, err
    assert not out.exists()


def test_estimate_warns_when_estimate_sits_on_window_edge(tmp_path, capsys):
    src = tmp_path / "skel.csv"
    write_skeleton_csv(src, theta=1.0)
    edge = ("--input", str(src), "--x0", "1.0", "--theta-lo", "1.5", "--theta-hi", "3")
    assert run_cli("estimate", *edge, "--out", str(tmp_path / "edge.csv")) == 0
    out, err = capsys.readouterr()
    assert out.splitlines()[0] == "theta_hat=1.5"
    assert len(out.splitlines()) == 4
    assert err.startswith("warning: theta_hat=1.5 lies at the edge of the window [1.5, 3]")
    assert err.count("\n") == 1
    assert (tmp_path / "edge.csv").read_text().splitlines()[1].startswith("1.5,")
    assert run_cli("estimate", "--input", str(src), "--x0", "1.0") == 0
    assert capsys.readouterr().err == ""


# ---------------------------------------------------------------- experiment


def write_config(path, **extra):
    base = {
        "kind": "maximal", "q": 1, "H": 0.7, "n": 64,
        "T": "1,2", "p": "1", "replications": 40, "seed": 5,
    }
    base.update(extra)
    path.write_text("".join(f"{k} = {v}\n" for k, v in base.items()))


def test_experiment_writes_schema_csv(tmp_path):
    cfg = tmp_path / "m.cfg"
    write_config(cfg)
    code = run_cli("experiment", "--kind", "maximal", "--config", str(cfg),
                   "--out-dir", str(tmp_path / "out"))
    assert code == 0
    lines = (tmp_path / "out" / "maximal.csv").read_text().splitlines()
    assert lines[0] == "T,p,q,H,n,reps,moment_hat,se,ratio_to_TpH"
    assert len(lines) == 3


def test_experiment_consistency_row_order(tmp_path):
    cfg = tmp_path / "c.cfg"
    write_config(cfg, kind="consistency", eps="0.5,0.2", delta="0.5,0.25", replications=30)
    code = run_cli("experiment", "--config", str(cfg), "--out-dir", str(tmp_path / "out"))
    assert code == 0
    rows = (tmp_path / "out" / "consistency.csv").read_text().splitlines()[1:]
    keys = [(float(r.split(",")[0]), float(r.split(",")[1])) for r in rows]
    assert keys == sorted(keys)


@pytest.mark.parametrize(
    "fields, skip_line",
    [
        ({"kind": "maximal", "T": 1, "p": "1"},
         "band scaling-ratio-spread(p=1): SKIP (one T value, nothing to compare)"),
        ({"kind": "limit-dist", "q": 2, "m": 4, "eps": 0.1, "ks_samples": 4},
         "band paired-gap-decreasing-in-eps: SKIP (one eps value, nothing to compare)"),
    ],
    ids=["maximal-one-T", "limit-dist-one-eps"],
)
def test_experiment_prints_skip_for_a_band_over_one_sweep_value(fields, skip_line, tmp_path, capsys):
    cfg = tmp_path / "b.cfg"
    write_config(cfg, n=16, replications=4, **fields)
    assert run_cli("experiment", "--config", str(cfg), "--out-dir", str(tmp_path / "out")) == 0
    bands = [line for line in capsys.readouterr().out.splitlines() if line.startswith("band ")]
    assert skip_line in bands
    assert all(": SKIP (" not in line for line in bands if line != skip_line)


def test_experiment_unknown_kind_lists_valid(tmp_path, capsys):
    cfg = tmp_path / "m.cfg"
    write_config(cfg)
    code = run_cli("experiment", "--kind", "bogus", "--config", str(cfg))
    assert code != 0
    err = capsys.readouterr().err
    assert "maximal" in err and "consistency" in err


def test_experiment_seed_determinism(tmp_path):
    cfg = tmp_path / "m.cfg"
    write_config(cfg)
    for sub in ("o1", "o2"):
        assert run_cli("experiment", "--config", str(cfg), "--seed", "99",
                       "--out-dir", str(tmp_path / sub)) == 0
    assert (tmp_path / "o1" / "maximal.csv").read_bytes() == (
        tmp_path / "o2" / "maximal.csv"
    ).read_bytes()


def test_experiment_set_override_wins(tmp_path):
    cfg = tmp_path / "m.cfg"
    write_config(cfg, replications=40)
    assert run_cli("experiment", "--config", str(cfg), "--set", "replications=7",
                   "--out-dir", str(tmp_path / "out")) == 0
    rows = (tmp_path / "out" / "maximal.csv").read_text().splitlines()[1:]
    assert all(r.split(",")[5] == "7" for r in rows)


def test_experiment_rejects_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "m.cfg"
    write_config(cfg)
    code = run_cli("experiment", "--config", str(cfg), "--set", "bogus_key=1")
    assert code != 0
    assert "bogus_key" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, path",
    [
        ("experiment --config {dir}", "{dir}"),
        ("estimate --x0 1.0 --input {dir}", "{dir}"),
        ("estimate --x0 1.0 --input {csv} --out {missing}/x.csv", "{missing}/x.csv"),
        ("simulate --process hermite --n 16 --out {missing}/p.csv", "{missing}/p.csv"),
        ("experiment --config {cfg} --out-dir {csv}", "{csv}"),
    ],
    ids=["config-is-a-directory", "input-is-a-directory", "estimate-out-in-missing-dir",
         "simulate-out-in-missing-dir", "out-dir-is-a-file"],
)
def test_file_errors_exit_2_with_one_error_line_naming_the_path(command, path, tmp_path, capsys):
    names = {"dir": tmp_path / "d", "csv": tmp_path / "skel.csv", "cfg": tmp_path / "m.cfg",
             "missing": tmp_path / "missing"}
    names["dir"].mkdir()
    write_skeleton_csv(names["csv"])
    write_config(names["cfg"], n=16, T="1", replications=2)
    code = run_cli(*command.format(**names).split())
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert code == 2
    assert len(errors) == 1 and path.format(**names) in errors[0], err
    assert "Traceback" not in err


def test_experiment_missing_config(tmp_path, capsys):
    code = run_cli("experiment", "--kind", "maximal", "--config", str(tmp_path / "none.cfg"))
    assert code != 0
    assert "none.cfg" in capsys.readouterr().err
