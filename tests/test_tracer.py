"""The benchmark tracer in bench/tracer.py must find every layer it wraps.

The tracer patches functions at the names their callers look them up
under; a refactor that moves or renames one of those silently drops its
per-layer metrics.  This test only reads bench/ and changes nothing there.
"""

import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_wrap_point():
    import hermite_ou.harness

    original = hermite_ou.harness.simulate_partial_sum
    tracer = load_tracer().Tracer()
    with tracer.installed():
        assert tracer.missing == []
        assert hermite_ou.harness.simulate_partial_sum is not original
    assert hermite_ou.harness.simulate_partial_sum is original


@pytest.mark.parametrize(
    "kind, samples", [("consistency", 1), ("limit-dist", 2), ("maximal", 1), ("covariance-audit", 1)]
)
def test_every_path_is_simulated_in_a_task_of_one_map_per_sample(kind, samples, monkeypatch):
    # per-layer attribution needs each path under a task span, and one
    # map_streams span per independent sample (the limit-dist KS sample is
    # the second)
    from hermite_ou import harness

    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    monkeypatch.setenv("HERMITE_OU_THREADS", "2")
    cfg = harness.ExperimentConfig(
        kind=kind, q=2, eps=(0.5, 0.1), n=16, m=4, T=(1.0, 2.0),
        replications=4, ks_samples=4, seed=3,
    )
    tracer = load_tracer().Tracer()
    with tracer.installed():
        harness.run_experiment(cfg)
    names = {span.id: span.name for span in tracer.spans}
    assert [s.name for s in tracer.spans].count("harness.map_streams") == samples
    tasks = [s for s in tracer.spans if s.name == "harness.task"]
    assert tasks and all(names.get(s.parent) == "harness.map_streams" for s in tasks)
    # a task simulates a block of paths: every path once, each under a task,
    # and no task without a path
    paths = [s for s in tracer.spans if s.name.startswith("hermite.simulate_")]
    ks = cfg.ks_samples if kind == "limit-dist" else 0
    assert len(paths) == cfg.replications * len(cfg.grids()) + ks
    assert all(names.get(s.parent) == "harness.task" for s in paths)
    assert {s.parent for s in paths} == {s.id for s in tasks}
