import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hermite_ou.cli import main
from hermite_ou.hermite import GridPath, Provenance, write_path_csv


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
    "trunc-neg": (["--trunc", "-1"], "--trunc"),
    "t-max-0": (["--t-max", "0"], "--t-max"),
    "eps-0": (["--eps", "0"], "--eps"),
    "fbm-q2": (["--generator", "fbm", "--q", "2"], "--q"),
    "q2-H1.4": (["--q", "2", "--H", "1.4"], "--H"),
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
    error = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("error:")]
    assert len(error) == 1 and named in error[0], error
    assert not (tmp_path / "x.csv").exists()


def test_simulate_fbm_accepts_any_hurst(tmp_path):
    # exact fBm is defined for every H in (0, 1), not just the Hermite range
    assert simulate_ou(tmp_path, "--generator", "fbm", "--q", "1", "--H", "0.3") == 0


def test_simulate_kernel_generator(tmp_path):
    out = tmp_path / "k.csv"
    code = run_cli(
        "simulate", "--process", "hermite", "--generator", "kernel", "--q", "2",
        "--H", "0.7", "--n", "16", "--seed", "3", "--out", str(out),
    )
    assert code == 0
    assert "truncation_bias" in out.read_text()


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


def test_experiment_missing_config(tmp_path, capsys):
    code = run_cli("experiment", "--kind", "maximal", "--config", str(tmp_path / "none.cfg"))
    assert code != 0
    assert "none.cfg" in capsys.readouterr().err
