"""Per-layer tracing from outside the program.

:class:`LayerTracer` replaces the public entry point of each runtime layer
with a wrapper that counts calls and, when timing is on, accumulates the
layer's *self time*: the wall time spent inside the entry minus the time
spent in wrapped entries it called.  Spans are kept as per-entry running
sums, not as individual records, so the traced pass allocates nothing per
call beyond one stack slot.

Wrappers are installed on the classes (before the context or serving system
is built, so bound methods cached at construction see them) and restored
when the ``with tracer.installed():`` block ends.
"""

from __future__ import annotations

import contextlib
import functools
import time
from typing import Dict, List, Tuple

from repro.core.context import Context
from repro.core.planning.planner import Planner
from repro.core.planning.window import LaunchWindow
from repro.runtime.executors import TaskExecutor
from repro.runtime.memory import MemoryManager
from repro.runtime.scheduler import Scheduler
from repro.runtime.serving import FairShareClock, ServingSystem
from repro.runtime.system import RuntimeSystem
from repro.simulator.engine import Engine
from repro.simulator.resources import BandwidthResource, ChannelResource

__all__ = ["LayerTracer", "LAYER_ENTRIES", "OPS_ENTRIES", "OPS_KEY", "ROOT"]

#: (class, method, span key) of every wrapped layer entry point
LAYER_ENTRIES: List[Tuple[type, str, str]] = [
    (Planner, "prepare_launch", "planning.prepare"),
    (LaunchWindow, "flush", "window.flush"),
    (RuntimeSystem, "submit_plan", "system.submit_plan"),
    (RuntimeSystem, "notify_completion", "system.notify"),
    (Scheduler, "submit", "scheduler.submit"),
    (MemoryManager, "stage", "memory.stage"),
    (MemoryManager, "unstage", "memory.unstage"),
    (MemoryManager, "reserve", "memory.reserve"),
    (MemoryManager, "release", "memory.release"),
    (TaskExecutor, "execute", "executors.execute"),
    (ChannelResource, "request", "resources.request"),
    (BandwidthResource, "request", "resources.request"),
    (Engine, "run", "engine.run"),
    (Context, "stats", "stats.collect"),
    (RuntimeSystem, "stats", "stats.collect"),
    (ServingSystem, "run", "serving.loop"),
    (FairShareClock, "select", "serving.select"),
    (FairShareClock, "charge", "serving.charge"),
]

#: the op counter: one op of a batch workload is one ``Context.launch``.
#: Untraced passes install it alone, count-only; traced passes also time it.
OPS_KEY = "context.launch"
OPS_ENTRIES: List[Tuple[type, str, str]] = [(Context, "launch", OPS_KEY)]

#: span key of the benchmark's own top-level span around one timed pass
ROOT = "pass"


class LayerTracer:
    """Counts calls of wrapped entry points and, if ``timed``, their self time."""

    def __init__(self, entries, timed: bool = True):
        self.entries = list(entries)
        self.timed = timed
        self.calls: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        self._stack: List[float] = []
        self._saved: List[Tuple[type, str, object]] = []

    def reset(self) -> None:
        """Forget every count and time (in place: the wrappers hold the dicts)."""
        if self._stack:
            raise RuntimeError("cannot reset the tracer inside a span")
        self.calls.clear()
        self.self_s.clear()

    @contextlib.contextmanager
    def installed(self):
        """Wrap every entry point for the duration of the block."""
        for cls, attr, key in self.entries:
            original = cls.__dict__[attr]
            self._saved.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, key))
        try:
            yield self
        finally:
            while self._saved:
                cls, attr, original = self._saved.pop()
                setattr(cls, attr, original)

    @contextlib.contextmanager
    def span(self, key: str):
        """A span opened by the benchmark itself (the root of a timed pass)."""
        stack, self_s = self._stack, self.self_s
        self.calls[key] = self.calls.get(key, 0) + 1
        stack.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self_s[key] = self_s.get(key, 0.0) + elapsed - stack.pop()
            if stack:
                stack[-1] += elapsed

    def _wrap(self, fn, key: str):
        calls = self.calls
        if not self.timed:
            def counted(*args, **kwargs):
                calls[key] = calls.get(key, 0) + 1
                return fn(*args, **kwargs)

            return functools.wraps(fn)(counted)

        stack, self_s, clock = self._stack, self.self_s, time.perf_counter

        def traced(*args, **kwargs):
            calls[key] = calls.get(key, 0) + 1
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[key] = self_s.get(key, 0.0) + elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed

        return functools.wraps(fn)(traced)
