"""In-memory span tracer for hermite_ou, installed from outside the package.

Each public function is wrapped at the name its caller looks it up under
(``harness.minimize_l1``, ``hermite.sample_stationary_gaussian``, ...), so
the package itself is untouched.  Spans are named ``<module>.<function>``
after the module that defines the function.  Every thread keeps its own
span stack, because ``harness._map_streams`` runs replications on a thread
pool; a task span's parent is the ``harness.map_streams`` span that
submitted it.  Self time is a span's duration minus the time of its direct
children on the same thread.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from importlib import import_module
from typing import NamedTuple


class Span(NamedTuple):
    id: int
    parent: int | None
    name: str
    thread: int
    start: float
    end: float
    self_s: float


def _count_estimate(tracer, args, kwargs, result):
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    lo, hi = result.bracket
    tracer.add("estimator.l1_objective.evals", result.n_evals)
    tracer.add("estimator.minimize_l1.boundary_hits", int(lo <= cfg.theta_lo or hi >= cfg.theta_hi))


def _count_sample(tracer, args, kwargs, result):
    # one embedding of m = 2(n - 1) points: m normals and one length-m FFT
    n = args[1] if len(args) > 1 else kwargs["n"]
    m = 2 * (n - 1) if n > 1 else 0
    tracer.add("rng.normals_drawn", m if n > 1 else 1)
    tracer.add("rng.fft_points", m)


# (module, attribute its caller looks up, span name, counter hook)
WRAPS = (
    ("hermite_ou.cli", "run_experiment", "harness.run_experiment", None),
    ("hermite_ou.harness", "simulate_fbm", "hermite.simulate_fbm", None),
    ("hermite_ou.harness", "simulate_partial_sum", "hermite.simulate_partial_sum", None),
    ("hermite_ou.harness", "running_max_abs", "hermite.running_max_abs", None),
    ("hermite_ou.harness", "exact_solution", "ou.exact_solution", None),
    ("hermite_ou.harness", "noise_response", "integrals.noise_response", None),
    ("hermite_ou.harness", "minimize_l1", "estimator.minimize_l1", _count_estimate),
    ("hermite_ou.harness", "tangent_l1_coefficient", "estimator.tangent_l1_coefficient", None),
    ("hermite_ou.harness", "skeleton_separation", "estimator.skeleton_separation", None),
    ("hermite_ou.harness", "ks_two_sample", "harness.ks_two_sample", None),
    ("hermite_ou.hermite", "sample_stationary_gaussian", "rng.sample_stationary_gaussian", _count_sample),
    ("hermite_ou.estimator", "l1_objective", "estimator.l1_objective", None),
)
MAP_STREAMS = ("hermite_ou.harness", "_map_streams")


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def reset(self) -> None:
        self.spans = []
        self.counts = {}

    def add(self, counter: str, amount: int) -> None:
        with self._lock:
            self.counts[counter] = self.counts.get(counter, 0) + amount

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, parent=None):
        """fn(*args, **kwargs) inside a span named ``name``."""
        stack = self._stack()
        span_id = next(self._ids)
        if parent is None and stack:
            parent = stack[-1][0]
        frame = [span_id, 0.0]  # id, time covered by direct children
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            if stack:
                stack[-1][1] += end - start
            self.spans.append(
                Span(span_id, parent, name, threading.get_ident(), start, end, end - start - frame[1])
            )

    def _wrap(self, fn, name, hook):
        def traced(*args, **kwargs):
            result = self.call(name, fn, args, kwargs)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def _wrap_map_streams(self, map_streams):
        def traced(fn, count):
            def submit():
                parent = self._stack()[-1][0]

                def task(i):
                    return self.call("harness.task", fn, (i,), {}, parent=parent)

                return map_streams(task, count)

            return self.call("harness.map_streams", submit, (), {})

        return traced

    @contextmanager
    def installed(self):
        """Patch every wrap point for the duration of the block; a wrap
        point the package no longer has is listed in ``missing``."""
        patched = []
        self.missing = []

        def patch(module_name, attr, make):
            module = import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                return
            setattr(module, attr, make(original))
            patched.append((module, attr, original))

        try:
            for module_name, attr, name, hook in WRAPS:
                patch(module_name, attr, lambda fn: self._wrap(fn, name, hook))
            patch(*MAP_STREAMS, self._wrap_map_streams)
            yield self
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)


def summarize(spans) -> dict:
    """name -> {"calls", "total_s", "self_s"} over the given spans."""
    out: dict[str, dict] = {}
    for span in spans:
        entry = out.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += span.end - span.start
        entry["self_s"] += span.self_s
    return out
