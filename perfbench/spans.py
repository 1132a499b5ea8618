"""Outside-in tracing of chms layers, kept entirely in the benchmark.

Every public function of the traced modules is wrapped so that each call
records a span (name, start, end, parent span, run id).  `from .x import f`
binds `f` into the importing module, so a wrapper is patched into every
chms module namespace that holds the original function object, not only
into the defining module.  Spans stay in memory; aggregates are computed
when the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

TRACED_MODULES = ("del_solver", "lagrangian", "geometry_checks", "bridges", "cli", "config")

#: The writers' per-value formatter: at ~400k calls per coarse_march run
#: its wrapper would cost more than the writer itself, so its time stays
#: in the writer's self time.
UNTRACED = frozenset({"cli.format_float"})


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans
    run_id: int


class Tracer:
    """Collects spans; `observers` maps a span name to a callback that
    receives the wrapped function's return value."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.run_id = 0
        self.observers: dict = {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            stack.append(len(spans))
            span = Span(name, clock(), 0.0, parent, self.run_id)
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            observer = self.observers.get(name)
            if observer is not None:
                observer(result)
            return result

        traced.__wrapped__ = fn
        return traced


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.end - s.start
    return [(s.end - s.start) - c for s, c in zip(spans, covered)]


def aggregate(spans: list[Span]) -> dict[str, dict]:
    """Per span name: calls, total_s, self_s and the list of durations."""
    out: dict[str, dict] = {}
    for s, own in zip(spans, self_times(spans)):
        agg = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []})
        agg["calls"] += 1
        agg["total_s"] += s.end - s.start
        agg["self_s"] += own
        agg["durations"].append(s.end - s.start)
    return out


def _public_functions():
    for short in TRACED_MODULES:
        mod = importlib.import_module(f"chms.{short}")
        for attr, fn in vars(mod).items():
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not attr.startswith("_"):
                name = f"{short}.{attr}"
                if name not in UNTRACED:
                    yield name, fn


@contextmanager
def installed(tracer: Tracer):
    """Patch wrappers into every chms module namespace; restore on exit."""
    wrappers = {fn: tracer.wrap(name, fn) for name, fn in _public_functions()}
    patched = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "chms" or mod_name.startswith("chms.")):
            continue
        for attr, val in list(vars(mod).items()):
            if inspect.isfunction(val) and val in wrappers:
                patched.append((mod, attr, val))
                setattr(mod, attr, wrappers[val])
    try:
        yield
    finally:
        for mod, attr, val in patched:
            setattr(mod, attr, val)
