"""Benchmark child process: set up hermite_ou, then time or trace one workload.

Started by run.py, one process per sample of set-up time.  The child
imports ``hermite_ou.cli``, warms its lazy caches with a small experiment
of the workload's kind at 1 and 2 threads, and prints ``ready``; run.py
times the interval up to that line as set-up.  With ``--setup-only`` it
exits there.  Otherwise it checks the default-seed reference, runs the
timed (or traced) experiments through ``cli.main`` in this process, and
prints one JSON line of raw samples for run.py to turn into metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import io
import json
import os
import resource
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402
from hermite_ou import cli, rng  # noqa: E402
from hermite_ou.harness import SCHEMAS  # noqa: E402

from tracer import Tracer, summarize  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

MIN_RUNS = 2  # runs per thread count and phase, however short --seconds is


@dataclass
class Outcome:
    wall: float
    csv: bytes | None
    bands: tuple
    error: str | None


def schema_problem(data: bytes, kind: str) -> str | None:
    """Why the CSV breaks the experiment schema, or None if it conforms.

    Checked here as well as by the CLI, so that a change which weakens the
    CLI's own check still fails the benchmark."""
    columns = SCHEMAS[kind]
    lines = data.decode("utf-8", errors="replace").split("\n")
    if lines[-1] != "":
        return "CSV does not end with a newline"
    lines = lines[:-1]
    if not lines or lines[0] != ",".join(columns):
        return "CSV header does not match the schema"
    if len(lines) < 2:
        return "CSV has no data rows"
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(columns):
            return f"CSV line {lineno} has {len(cells)} cells, expected {len(columns)}"
        try:
            [float(cell) for cell in cells]
        except ValueError:
            return f"CSV line {lineno} holds a non-numeric cell"
    return None


class Runner:
    """Runs experiments of one workload and counts the failed ones."""

    def __init__(self, workload, work_dir: Path):
        self.workload = workload
        self.out_dir = work_dir
        self.timed_config = work_dir / "timed.cfg"
        self.timed_config.write_text(workload.config_text())
        self.warmup_config = work_dir / "warmup.cfg"
        self.warmup_config.write_text(workload.config_text(workload.warmup))
        self.attempted = 0
        self.failures: list[str] = []
        self._first_csv: dict = {}

    def run(self, config: Path, seed: int, threads: int) -> Outcome:
        csv_path = self.out_dir / f"{self.workload.kind}.csv"
        csv_path.unlink(missing_ok=True)
        os.environ["HERMITE_OU_THREADS"] = str(threads)
        argv = ["experiment", "--config", str(config), "--seed", str(seed), "--out-dir", str(self.out_dir)]
        captured = io.StringIO()
        gc.collect()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(captured):
                code = cli.main(argv)
        except Exception as exc:  # a raising experiment is a failed run, not a benchmark crash
            return Outcome(time.perf_counter() - start, None, (), f"raised {exc!r}")
        wall = time.perf_counter() - start
        if code != 0:
            return Outcome(wall, None, (), f"exit code {code}")
        if not csv_path.exists():
            return Outcome(wall, None, (), "no CSV written")
        data = csv_path.read_bytes()
        bands = tuple(line for line in captured.getvalue().splitlines() if line.startswith("band "))
        return Outcome(wall, data, bands, schema_problem(data, self.workload.kind))

    def check(self, outcome: Outcome, config: Path, seed: int, label: str) -> None:
        """Count the run; a run fails on an error, on CSV bytes that differ
        from the first run of the same config and seed (which is how the
        1-thread/2-thread identity is checked), or on a mismatch with the
        recorded default-seed reference."""
        self.attempted += 1
        problem = outcome.error
        if problem is None:
            first = self._first_csv.setdefault((config, seed), outcome.csv)
            if outcome.csv != first:
                problem = "CSV bytes differ from the first run of the same config and seed"
        if problem is None and config == self.timed_config and seed == DEFAULT_SEED:
            if hashlib.sha256(outcome.csv).hexdigest() != self.workload.csv_sha256:
                problem = "CSV digest differs from the reference"
            elif outcome.bands != self.workload.bands:
                problem = f"band lines differ from the reference: {list(outcome.bands)}"
        if problem is not None:
            self.failures.append(f"{label}: {problem}")

    def checked(self, config: Path, seed: int, threads: int, label: str) -> Outcome:
        outcome = self.run(config, seed, threads)
        self.check(outcome, config, seed, f"{label} ({threads} thread(s))")
        return outcome


def interleave(seconds: float, run_one, kinds=(1, 2)) -> dict:
    """Call run_one(kind) -> (wall, result) until ``seconds`` have passed.

    Each call goes to the kind of run (a thread count, or a thread count
    and whether it is traced) with the least wall time so far, so all kinds
    take equal shares of the window and see the same drift in machine
    speed, however different their run times.  Returns {kind: [results]}.
    """
    results = {kind: [] for kind in kinds}
    spent = dict.fromkeys(kinds, 0.0)
    deadline = time.perf_counter() + seconds
    while min(map(len, results.values())) < MIN_RUNS or time.perf_counter() < deadline:
        kind = min(kinds, key=spent.get)
        wall, result = run_one(kind)
        spent[kind] += wall
        results[kind].append(result)
    return results


def untraced_run(runner: Runner, seed: int, threads: int, label: str) -> tuple:
    wall = runner.checked(runner.timed_config, seed, threads, label).wall
    return wall, wall


def fgn_cache_counts() -> tuple:
    info = getattr(rng.fgn_autocov, "cache_info", None)
    return (info().hits, info().misses) if info else (0, 0)


def write_spans(path: Path, runs) -> None:
    with path.open("w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(("run", "threads", "id", "parent", "name", "thread", "start", "end", "self_s"))
        for index, (threads, spans) in enumerate(runs):
            for span in spans:
                out.writerow((index, threads, *span))


def traced_runs(runner: Runner, seed: int, seconds: float, spans_path: Path) -> tuple:
    """Untraced and traced runs at 1 and 2 threads, interleaved over the
    window so that the tracing overhead is not confounded with drift."""
    tracer = Tracer()
    kept = {}
    main_thread = threading.main_thread().ident

    def run_one(kind):
        threads, traced = kind
        if not traced:
            return untraced_run(runner, seed, threads, "untraced")
        tracer.reset()
        hits0, misses0 = fgn_cache_counts()
        with tracer.installed():
            outcome = runner.checked(runner.timed_config, seed, threads, "traced")
        hits1, misses1 = fgn_cache_counts()
        kept.setdefault(threads, tracer.spans)
        return outcome.wall, {
            "wall": outcome.wall,
            "spans": summarize(tracer.spans),
            "counts": dict(tracer.counts),
            "fgn_cache": [hits1 - hits0, misses1 - misses0],
            "worker_busy_s": sum(
                s.end - s.start for s in tracer.spans if s.name == "harness.task" and s.thread != main_thread
            ),
        }

    runs = interleave(seconds, run_one, kinds=((1, False), (2, False), (1, True), (2, True)))
    traced = {threads: runs[threads, True] for threads in (1, 2)}
    for threads, traced_at in traced.items():
        if any(r["counts"] != traced_at[0]["counts"] for r in traced_at):
            runner.failures.append(f"traced ({threads} thread(s)): counts differ between runs of one input")
    write_spans(spans_path, kept.items())
    walls = {threads: runs[threads, False] for threads in (1, 2)}
    return walls, {"runs": traced, "missing_wraps": tracer.missing}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    args.work_dir.mkdir(parents=True, exist_ok=True)
    runner = Runner(WORKLOADS[args.workload], args.work_dir)
    for threads in (1, 2):
        runner.checked(runner.warmup_config, args.seed, threads, "warm-up")
    print("ready", flush=True)
    if args.setup_only:
        return 0

    runner.checked(runner.timed_config, DEFAULT_SEED, 1, "reference")
    result = {
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
        "package": str(Path(cli.__file__).resolve().parent),
    }
    if args.trace:
        spans_path = args.work_dir.parent / f"spans-{args.workload}-seed{args.seed}.csv"
        walls, result["traced"] = traced_runs(runner, args.seed, args.seconds, spans_path)
        result["spans_file"] = str(spans_path)
    else:
        walls = interleave(args.seconds, lambda threads: untraced_run(runner, args.seed, threads, "timed"))
    result.update(
        walls=walls,
        attempted=runner.attempted,
        failures=runner.failures,
        maxrss_kib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
