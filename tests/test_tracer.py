"""The benchmark tracer in bench/tracer.py must find every layer it wraps.

The tracer patches functions at the names their callers look them up
under; a refactor that moves or renames one of those silently drops its
per-layer metrics.  This test only reads bench/ and changes nothing there.
"""

import importlib.util
from pathlib import Path

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
