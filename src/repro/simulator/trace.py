"""Execution-trace recording for the simulator.

Every resource records the intervals during which it was busy and on behalf of
which task.  Tests use the trace to check that the runtime actually overlaps
data movement with kernel execution (one of the paper's central claims), and
benchmark harnesses use it to report utilisation.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, List, Optional

__all__ = ["TraceInterval", "Trace"]

_NEG_INF = float("-inf")


@dataclass(frozen=True)
class TraceInterval:
    """One busy interval of one resource."""

    resource: str
    label: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        """Seconds the interval spans."""
        return self.end - self.start


class Trace:
    """Collection of busy intervals, indexed by resource name.

    :meth:`record` sits on the simulation's hot path (every completed work
    item appends one interval), so intervals are stored as plain tuples and
    only materialised into :class:`TraceInterval` objects when the
    :attr:`intervals` API is actually consulted (analysis/report time).

    Busy time is kept as intervals arrive.  Resources record an interval when
    it ends, at the engine's current time, so per resource the ends never
    decrease.  The merged busy components of a resource then form a stack
    ordered by time, and a new interval absorbs exactly the components that
    end at or after its start.  Each component carries the running total of
    the component lengths, summed left to right from 0.0 as a sort-and-merge
    over the whole history would sum them, so busy totals are read in O(1)
    and are the same floats bit for bit.
    """

    __slots__ = ("_raw", "_materialised", "_busy")

    def __init__(self) -> None:
        #: raw (resource, label, start, end) tuples, in record order
        self._raw: List[tuple] = []
        self._materialised: Optional[List[TraceInterval]] = None
        #: resource -> flat ``array("d")`` of (start, end, total) triples, one
        #: per merged busy component in time order, where ``total`` is the busy
        #: time through that component.  A sentinel triple (-inf, -inf, 0.0)
        #: comes first, so the merge loop needs no emptiness check.
        self._busy: Dict[str, array] = {}

    @property
    def intervals(self) -> List[TraceInterval]:
        """Every recorded interval, as :class:`TraceInterval` objects."""
        cached = self._materialised
        if cached is None or len(cached) != len(self._raw):
            cached = [TraceInterval(*raw) for raw in self._raw]
            self._materialised = cached
        return cached

    def record(self, resource: str, label: str, start: float, end: float) -> None:
        """Append one busy interval for ``resource``.

        Raises :class:`ValueError` when ``end`` is earlier than the end of the
        resource's previous interval: busy time is only kept for ends that
        never decrease.
        """
        busy = self._busy.get(resource)
        if busy is None:
            busy = self._busy[resource] = array("d", (_NEG_INF, _NEG_INF, 0.0))
        if end < busy[-2]:
            raise ValueError(
                f"trace interval of {resource!r} ends at {end!r}, before the "
                f"previous end {busy[-2]!r}"
            )
        # Absorb every component that ends at or after ``start``.
        merged = start
        while busy[-2] >= start:
            merged = busy[-3]
            del busy[-3:]
        if start < merged:
            merged = start
        busy.append(merged)
        busy.append(end)
        busy.append(busy[-3] + (end - merged))
        self._raw.append((resource, label, start, end))

    def for_resource(self, resource: str) -> List[TraceInterval]:
        """All recorded intervals of one resource."""
        return [TraceInterval(*raw) for raw in self._raw if raw[0] == resource]

    def busy_time(self, resource: str) -> float:
        """Total busy time of ``resource`` (intervals may overlap for shared resources)."""
        busy = self._busy.get(resource)
        return busy[-1] if busy is not None else 0.0

    def utilisation(self, resource: str, makespan: float) -> float:
        """Busy fraction of a resource over the traced horizon."""
        if makespan <= 0:
            return 0.0
        return self.busy_time(resource) / makespan

    def overlap_time(self, resource_a: str, resource_b: str) -> float:
        """Total virtual time during which both resources were busy simultaneously."""
        merged_a = self._merged(resource_a)
        merged_b = self._merged(resource_b)
        total = 0.0
        i = j = 0
        while i < len(merged_a) and j < len(merged_b):
            a0, a1 = merged_a[i]
            b0, b1 = merged_b[j]
            lo, hi = max(a0, b0), min(a1, b1)
            if hi > lo:
                total += hi - lo
            if a1 < b1:
                i += 1
            else:
                j += 1
        return total

    def _merged(self, resource: str) -> List[tuple]:
        busy = self._busy.get(resource)
        return list(zip(busy[3::3], busy[4::3])) if busy is not None else []

    def summary(self) -> Dict[str, float]:
        """Busy time per resource."""
        busy = self._busy
        return {name: busy[name][-1] for name in sorted(busy)}
