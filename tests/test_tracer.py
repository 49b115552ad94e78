"""The benchmark tracer in bench/tracer.py must find every layer it wraps.

The tracer patches functions at the names their callers look them up
under; a refactor that moves or renames one of those silently drops its
per-layer metrics.  This test only reads bench/ and changes nothing there.
"""

import ast
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
    # map_streams span per experiment, which runs the blocks of all of its
    # independent samples (the limit-dist KS sample is the second)
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
    assert [s.name for s in tracer.spans].count("harness.map_streams") == 1
    tasks = [s for s in tracer.spans if s.name == "harness.task"]
    assert tasks and all(names.get(s.parent) == "harness.map_streams" for s in tasks)
    # a task simulates a block of paths: every path once, each under a task,
    # and no task without a path
    paths = [s for s in tracer.spans if s.name.startswith("hermite.simulate_")]
    ks = cfg.ks_samples * (samples - 1)
    assert len(paths) == cfg.replications * len(cfg.grids()) + ks
    assert all(names.get(s.parent) == "harness.task" for s in paths)
    assert {s.parent for s in paths} == {s.id for s in tasks}


@pytest.mark.parametrize("kind, q", [("consistency", 1), ("limit-dist", 2), ("maximal", 2)])
def test_every_path_is_one_sampler_span_under_its_generator(kind, q):
    # a path's grid reduction runs inside the sampler call, and the
    # rng.sample_stationary_gaussian span still counts one call per path
    from hermite_ou import harness

    cfg = harness.ExperimentConfig(
        kind=kind, q=q, eps=(0.5, 0.1), n=16, m=4, T=(1.0, 2.0),
        replications=4, ks_samples=4, seed=3,
    )
    tracer = load_tracer().Tracer()
    with tracer.installed():
        harness.run_experiment(cfg)
    names = {span.id: span.name for span in tracer.spans}
    paths = {s.id for s in tracer.spans if s.name.startswith("hermite.simulate_")}
    samples = [s for s in tracer.spans if s.name == "rng.sample_stationary_gaussian"]
    assert paths and len(samples) == len(paths)
    assert {s.parent for s in samples} == paths
    assert all(names[s.parent].startswith("hermite.simulate_") for s in samples)


@pytest.mark.parametrize("kind", ["limit-dist", "covariance-audit"])
def test_every_block_solve_is_one_span_in_its_task(kind, monkeypatch):
    # the block-wide OU solve, noise response and tangent fit run under the
    # names the tracer wraps: one span of each per task that computes it.  A
    # limit-dist task of the paired sample solves the OU rows, and each of
    # its tasks takes the noise response and the tangent fit; an audit task
    # takes only the noise response
    from hermite_ou import harness

    cfg = harness.ExperimentConfig(
        kind=kind, q=2, eps=(0.5, 0.1), n=16, m=4, replications=6, ks_samples=5, seed=3,
    )
    monkeypatch.setattr(harness, "_BLOCK_VALUES", 2 * len(cfg.eps) * cfg.coarse_points)  # 2 paired paths a block
    tracer = load_tracer().Tracer()
    with tracer.installed():
        harness.run_experiment(cfg)
    solves = ("ou.exact_solution", "integrals.noise_response", "estimator.tangent_l1_coefficient")
    tasks = {s.id: [] for s in tracer.spans if s.name == "harness.task"}
    for s in tracer.spans:
        if s.name in solves or s.name.startswith("hermite.simulate_"):
            tasks[s.parent].append(s.name)
    paths = {True: 0, False: 0}  # by whether the task solved OU rows
    for children in tasks.values():
        count = {name: children.count(name) for name in solves}
        size = len(children) - sum(count.values())
        assert size >= 1
        paths[count["ou.exact_solution"] == 1] += size
        if kind == "limit-dist":
            assert count["integrals.noise_response"] == count["estimator.tangent_l1_coefficient"] == 1
            assert count["ou.exact_solution"] in (0, 1)
        else:
            assert count == dict(zip(solves, (0, 1, 0)))
    assert paths == ({True: cfg.replications, False: cfg.ks_samples} if kind == "limit-dist"
                     else {True: 0, False: cfg.replications})
    assert len(tasks) < sum(paths.values())  # some block holds more than one path


def test_the_only_unused_package_imports_of_harness_are_tracer_wrap_points():
    # harness imports minimize_l1 only so that the tracer can wrap it there;
    # any other import it never uses is dead code
    import hermite_ou.harness

    tree = ast.parse(Path(hermite_ou.harness.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    wrapped = {attr for module, attr, _, _ in load_tracer().WRAPS if module == "hermite_ou.harness"}
    assert imported - used == wrapped - used == {"minimize_l1"}
