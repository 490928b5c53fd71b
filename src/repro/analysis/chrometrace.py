"""Timeline export and overlap analysis for simulator traces.

Every simulated resource (GPU compute engines, PCIe buses, NICs, disks, the
driver's planning thread, each worker's scheduler) records the intervals it
was busy.  This module turns that record into:

* Chrome trace-event JSON (``chrome://tracing`` / Perfetto compatible), so a
  run of the reproduction can be inspected on the same kind of timeline the
  paper's authors used to argue that data movement overlaps kernel execution;
* utilisation and overlap reports, which the tests and
  ``examples/plan_inspection.py`` use to show the overlap claim
  quantitatively.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..simulator.trace import Trace

__all__ = [
    "trace_to_chrome_events",
    "trace_to_chrome_json",
    "utilisation_report",
    "overlap_report",
    "OverlapReport",
]

#: Seconds → microseconds (the unit Chrome trace events use).
_US = 1e6


def _split_resource(resource: str) -> tuple:
    """Split a resource name like ``w0.gpu1.compute`` into (process, thread)."""
    if "." in resource:
        process, thread = resource.split(".", 1)
    else:
        process, thread = resource, resource
    return process, thread


def trace_to_chrome_events(trace: Trace) -> List[Dict[str, object]]:
    """Convert a trace to a list of Chrome complete ('X') events.

    Resources map to process/thread rows: the part of the resource name before
    the first dot (the worker, or ``driver``) becomes the process and the rest
    becomes the thread, so the timeline groups naturally per node.
    """
    events: List[Dict[str, object]] = []
    process_ids: Dict[str, int] = {}
    thread_ids: Dict[tuple, int] = {}
    for interval in sorted(trace.intervals, key=lambda iv: (iv.resource, iv.start)):
        process, thread = _split_resource(interval.resource)
        pid = process_ids.setdefault(process, len(process_ids))
        tid = thread_ids.setdefault((process, thread), len(thread_ids))
        events.append(
            {
                "name": interval.label or interval.resource,
                "cat": interval.resource,
                "ph": "X",
                "ts": interval.start * _US,
                "dur": max(interval.duration, 0.0) * _US,
                "pid": pid,
                "tid": tid,
                "args": {"resource": interval.resource},
            }
        )
    # Metadata events give the rows readable names in the viewer.
    for process, pid in process_ids.items():
        events.append(
            {"name": "process_name", "ph": "M", "pid": pid,
             "args": {"name": process}}
        )
    for (process, thread), tid in thread_ids.items():
        events.append(
            {"name": "thread_name", "ph": "M", "pid": process_ids[process], "tid": tid,
             "args": {"name": thread}}
        )
    return events


def trace_to_chrome_json(trace: Trace, path: Optional[str] = None) -> str:
    """Serialise the trace to Chrome trace JSON; optionally write it to ``path``."""
    document = {"traceEvents": trace_to_chrome_events(trace), "displayTimeUnit": "ms"}
    text = json.dumps(document, indent=2)
    if path is not None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    return text


def utilisation_report(trace: Trace, makespan: float) -> Dict[str, float]:
    """Fraction of ``makespan`` each resource was busy (0 when makespan is 0)."""
    if makespan <= 0:
        return {name: 0.0 for name in trace.summary()}
    return {
        name: busy / makespan for name, busy in sorted(trace.summary().items())
    }


@dataclass(frozen=True)
class OverlapReport:
    """How much two groups of resources were busy at the same time."""

    busy_a: float
    busy_b: float
    overlap: float

    @property
    def overlap_fraction(self) -> float:
        """Overlap relative to the smaller of the two busy times (0 when idle)."""
        smallest = min(self.busy_a, self.busy_b)
        if smallest <= 0:
            return 0.0
        return self.overlap / smallest


def overlap_report(
    trace: Trace,
    resources_a: Sequence[str],
    resources_b: Sequence[str],
) -> OverlapReport:
    """Overlap between two groups of resources (e.g. GPU compute vs. PCIe).

    Resource names may be given exactly or as prefixes; a trace resource
    belongs to a group when it equals or starts with one of the group's names.
    """

    def merged(names: Sequence[str]) -> List[tuple]:
        intervals = [
            (iv.start, iv.end)
            for iv in trace.intervals
            if any(iv.resource == n or iv.resource.startswith(n) for n in names)
        ]
        intervals.sort()
        out: List[tuple] = []
        for start, end in intervals:
            if out and start <= out[-1][1]:
                out[-1] = (out[-1][0], max(out[-1][1], end))
            else:
                out.append((start, end))
        return out

    def total(intervals: List[tuple]) -> float:
        return sum(end - start for start, end in intervals)

    merged_a, merged_b = merged(resources_a), merged(resources_b)
    overlap = 0.0
    i = j = 0
    while i < len(merged_a) and j < len(merged_b):
        a0, a1 = merged_a[i]
        b0, b1 = merged_b[j]
        lo, hi = max(a0, b0), min(a1, b1)
        if hi > lo:
            overlap += hi - lo
        if a1 < b1:
            i += 1
        else:
            j += 1
    return OverlapReport(busy_a=total(merged_a), busy_b=total(merged_b), overlap=overlap)
