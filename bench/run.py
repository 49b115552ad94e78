"""hermite-ou benchmark: wall time of `hermite-ou experiment` at 1 and 2 threads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload consistency-fbm [--seed 20250810] [--seconds 50] [--trace 0]

Workloads: consistency-fbm, maximal-rosenblatt, limit-rosenblatt (see
bench/README.md).  The package is imported from ``src/`` of the checkout;
nothing is installed or built.

``--trace 0`` prints the end-to-end metrics: median wall time of one
experiment at HERMITE_OU_THREADS=1 and 2, set-up time (fresh interpreter to
``hermite_ou.cli`` imported and warmed up, median over several child
processes) and the peak RSS of the measuring child.  ``--trace 1`` prints
the per-layer metrics from a run with every layer boundary wrapped in a
span, and the tracing overhead against untraced runs of the same input.

Every experiment run is checked: a zero exit code, a CSV that matches its
schema, CSV bytes equal across 1 and 2 threads and across repeats, and for
the default seed the CSV digest and band lines recorded in workloads.py.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the details (quartiles, sample counts, machine metadata, failures).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

SETUP_ONLY_CHILDREN = 5  # set-up samples besides the measuring child's own
DEADLINE_S = 170.0  # whole run, below the 180 s a run may take

# embedding point -> bytes: its normal deviate (8), its eigenvalue (8), and
# one complex FFT input and output value (16 + 16); a computed figure
BYTES_PER_NORMAL = 8
BYTES_PER_FFT_POINT = 40


def _share(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


class TracedRun:
    """Span totals and counters of one traced experiment, as the worker sent them."""

    def __init__(self, raw: dict):
        self.wall = raw["wall"]
        self.spans = raw["spans"]
        self.counters = raw["counts"]
        self.fgn_cache = raw["fgn_cache"]
        self.worker_busy_s = raw["worker_busy_s"]

    def calls(self, name: str) -> int:
        return self.spans.get(name, {}).get("calls", 0)

    def total(self, name: str) -> float:
        return self.spans.get(name, {}).get("total_s", 0.0)

    def self_s(self, name: str) -> float:
        return self.spans.get(name, {}).get("self_s", 0.0)

    def count(self, counter: str) -> int:
        return self.counters.get(counter, 0)


# name, unit, value from one traced 1-thread run
LAYER_METRICS = (
    ("estimator.minimize_l1.calls", "count", lambda r: r.calls("estimator.minimize_l1")),
    ("estimator.minimize_l1.self_s", "s", lambda r: r.self_s("estimator.minimize_l1")),
    ("estimator.minimize_l1.ms_per_call", "ms",
     lambda r: _share(r.total("estimator.minimize_l1"), r.calls("estimator.minimize_l1"), 1e3)),
    ("estimator.minimize_l1.boundary_hits", "count", lambda r: r.count("estimator.minimize_l1.boundary_hits")),
    ("estimator.l1_objective.evals", "count", lambda r: r.count("estimator.l1_objective.evals")),
    ("estimator.l1_objective.total_s", "s", lambda r: r.total("estimator.l1_objective")),
    ("estimator.l1_objective.us_per_eval", "us",
     lambda r: _share(r.total("estimator.l1_objective"), r.calls("estimator.l1_objective"), 1e6)),
    ("estimator.evals_per_estimate", "count",
     lambda r: _share(r.count("estimator.l1_objective.evals"), r.calls("estimator.minimize_l1"))),
    ("estimator.tangent_l1_coefficient.total_s", "s", lambda r: r.total("estimator.tangent_l1_coefficient")),
    ("estimator.wall_share", "ratio",
     lambda r: _share(r.total("estimator.minimize_l1") + r.total("estimator.tangent_l1_coefficient"), r.wall)),
    ("rng.sample_stationary_gaussian.calls", "count", lambda r: r.calls("rng.sample_stationary_gaussian")),
    ("rng.sample_stationary_gaussian.total_s", "s", lambda r: r.total("rng.sample_stationary_gaussian")),
    ("rng.sample_stationary_gaussian.ms_per_call", "ms",
     lambda r: _share(r.total("rng.sample_stationary_gaussian"), r.calls("rng.sample_stationary_gaussian"), 1e3)),
    ("rng.normals_drawn", "count", lambda r: r.count("rng.normals_drawn")),
    ("rng.fft_points", "count", lambda r: r.count("rng.fft_points")),
    ("rng.bytes_moved", "bytes",
     lambda r: BYTES_PER_NORMAL * r.count("rng.normals_drawn") + BYTES_PER_FFT_POINT * r.count("rng.fft_points")),
    ("rng.fgn_autocov.cache_hit_ratio", "ratio", lambda r: _share(r.fgn_cache[0], sum(r.fgn_cache))),
    ("rng.wall_share", "ratio", lambda r: _share(r.total("rng.sample_stationary_gaussian"), r.wall)),
    ("hermite.simulate_partial_sum.self_s", "s", lambda r: r.self_s("hermite.simulate_partial_sum")),
    ("hermite.simulate_partial_sum.ms_per_call", "ms",
     lambda r: _share(r.total("hermite.simulate_partial_sum"), r.calls("hermite.simulate_partial_sum"), 1e3)),
    ("hermite.simulate_fbm.total_s", "s", lambda r: r.total("hermite.simulate_fbm")),
    ("ou.exact_solution.total_s", "s", lambda r: r.total("ou.exact_solution")),
    ("integrals.noise_response.total_s", "s", lambda r: r.total("integrals.noise_response")),
    ("harness.ks_two_sample.total_s", "s", lambda r: r.total("harness.ks_two_sample")),
    ("harness.self_s", "s",
     lambda r: sum(r.self_s(n) for n in ("harness.run_experiment", "harness.map_streams", "harness.task"))),
    ("cli.write_validate_s", "s", lambda r: r.wall - r.total("harness.run_experiment")),
    ("trace.wall_1t_s", "s", lambda r: r.wall),
)
COMPUTED = ("rng.normals_drawn", "rng.fft_points", "rng.bytes_moved")


def quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "n": len(values), "samples": values}


def cache_sizes() -> dict:
    """Cache sizes of CPU 0 by level, as the kernel reports them."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "caches": cache_sizes(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


class Child:
    """One worker process; its set-up time runs from spawn to its ``ready`` line."""

    def __init__(self, args, work_dir: Path, setup_only: bool, deadline: float):
        cmd = [
            sys.executable, str(BENCH_DIR / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--work-dir", str(work_dir),
        ] + (["--setup-only"] if setup_only else [])
        env = {k: v for k, v in os.environ.items() if k != "HERMITE_OU_THREADS"}
        self.deadline = deadline
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
        ready, _, _ = select.select([self.proc.stdout], [], [], self._remaining())
        line = self.proc.stdout.readline() if ready else ""
        self.setup_s = time.perf_counter() - start
        if line.strip() != "ready":
            self.stop()
            raise RuntimeError(f"worker did not become ready (got {line!r})")

    def _remaining(self) -> float:
        return max(0.0, self.deadline - time.perf_counter())

    def finish(self) -> str:
        try:
            out, _ = self.proc.communicate(timeout=self._remaining())
        except subprocess.TimeoutExpired:
            self.stop()
            raise RuntimeError("worker passed the run deadline") from None
        if self.proc.returncode != 0:
            raise RuntimeError(f"worker exited with code {self.proc.returncode}")
        return out.splitlines()[-1] if out.strip() else ""

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()


def end_to_end(result: dict, setup: list) -> tuple:
    samples = {
        "wall_1t_s": result["walls"]["1"],
        "wall_2t_s": result["walls"]["2"],
        "setup_s": setup,
    }
    metrics = {name: {"value": statistics.median(v), "unit": "s"} for name, v in samples.items()}
    metrics["peak_rss_mib"] = {"value": result["maxrss_kib"] / 1024.0, "unit": "MiB"}
    return metrics, {name: quartiles(v) for name, v in samples.items()}


def per_layer(result: dict, setup: list) -> tuple:
    traced = result["traced"]["runs"]
    one = [TracedRun(r) for r in traced["1"]]
    two = [TracedRun(r) for r in traced["2"]]
    untraced_1t = statistics.median(result["walls"]["1"])
    untraced_2t = statistics.median(result["walls"]["2"])
    # counts repeat exactly run to run (the worker checks its counters), so
    # they come from the first run; times are medians over the traced runs
    metrics = {
        name: {"value": fn(one[0]) if unit == "count" else statistics.median(fn(r) for r in one), "unit": unit}
        for name, unit, fn in LAYER_METRICS
    }
    overhead = metrics["trace.wall_1t_s"]["value"] - untraced_1t
    metrics.update({
        "harness.thread_speedup": {"value": _share(untraced_1t, untraced_2t), "unit": "ratio"},
        "harness.busy_ratio_2t": {
            "value": statistics.median(_share(r.worker_busy_s, 2 * r.wall) for r in two), "unit": "ratio"},
        "trace.overhead_s": {"value": overhead, "unit": "s"},
        "trace.overhead_ratio": {"value": _share(overhead, untraced_1t), "unit": "ratio"},
    })
    detail = {
        "untraced_wall_1t_s": quartiles(result["walls"]["1"]),
        "untraced_wall_2t_s": quartiles(result["walls"]["2"]),
        "traced_wall_1t_s": quartiles([r.wall for r in one]),
        "traced_wall_2t_s": quartiles([r.wall for r in two]),
        "setup_s": quartiles(setup),
        "computed_not_measured": list(COMPUTED),
        "missing_wraps": result["traced"]["missing_wraps"],
        "spans_file": os.path.relpath(result["spans_file"], ROOT),
    }
    return metrics, detail


def main() -> int:
    parser = argparse.ArgumentParser(description="hermite-ou benchmark (see bench/README.md)")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "hermite_ou" / "cli.py").is_file():
        print(f"error: no hermite_ou sources under {ROOT / 'src'}; run from a hermite-ou checkout",
              file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64:
        print("error: --seed must be a 64-bit unsigned integer", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + DEADLINE_S
    work_dir = OUT_DIR / f"run-{os.getpid()}"
    try:
        setup = []
        for _ in range(SETUP_ONLY_CHILDREN):
            child = Child(args, work_dir, True, deadline)
            setup.append(child.setup_s)
            child.finish()
        child = Child(args, work_dir, False, deadline)
        setup.append(child.setup_s)
        result = json.loads(child.finish())
    except (RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    metrics, timing = (per_layer if args.trace else end_to_end)(result, setup)
    failures = result["failures"]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "threads": {"wall_1t_s": "HERMITE_OU_THREADS=1", "wall_2t_s": "HERMITE_OU_THREADS=2"},
        "runs_attempted": result["attempted"],
        "runs_failed": len(failures),
        "failures": failures,
        "timings": timing,
        "machine": {**machine(), **result["versions"]},
        "package": os.path.relpath(result["package"], ROOT),
    }
    for name, metric in metrics.items():
        print(f"{name:45s} {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    print(f"{'runs_attempted':45s} {result['attempted']}", file=sys.stderr)
    print(f"{'runs_failed':45s} {len(failures)}", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not failures,
        "attempted": result["attempted"],
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
