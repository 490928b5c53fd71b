"""Simulated resources: FIFO channels and shared-bandwidth links.

Two resource flavours cover everything the runtime needs:

* :class:`ChannelResource` — ``k`` identical servers with a FIFO queue.  Used
  for GPU compute engines (k=1), per-GPU copy engines, the per-worker
  scheduler/control path and the driver's planner.

* :class:`BandwidthResource` — a processor-sharing link: concurrent transfers
  split the bandwidth equally, which is how a PCIe bus shared by several GPUs
  or a NIC carrying several messages behaves to first order.  This is the
  mechanism behind the paper's observation that multi-GPU nodes stop
  benefiting from host-memory spilling because the GPUs share the PCIe bus
  (Sec. 4.4), while spreading the same GPUs over multiple nodes restores the
  benefit (Sec. 4.5).

The processor-sharing link uses the classic *virtual service* formulation:
instead of decrementing every active transfer's remaining bytes at every
event (O(n) per event, as the first implementation did), the link maintains a
cumulative normalized-service clock ``V`` that advances at ``bandwidth / n``
bytes per second, and every transfer admitted at clock value ``V0`` completes
when ``V`` reaches its *finish tag* ``V0 + size``.  Finish tags live in a
min-heap, so an arrival or completion costs O(log n), and the link keeps
exactly one pending wake-up armed at the earliest finish time — cancelled and
re-armed whenever an arrival or completion moves that time.

Re-arming is what makes the model correct, not just fast.  The first
implementation never re-armed its pending wake-up when the active set
changed, so

* an arrival that *slowed* the link made the armed wake-up fire early as a
  spurious no-op event, and
* an arrival that would finish *before* the armed wake-up (a short transfer
  joining a long one) was only detected at the old wake time and completed
  late, stealing bandwidth from the other transfers in the meantime.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Callable, Deque, List, Optional, Tuple

from .engine import Engine, EventHandle
from .trace import Trace

__all__ = ["Resource", "ChannelResource", "BandwidthResource"]

Callback = Callable[[], None]

#: Transfers are considered complete when less than half a byte remains.  The
#: processor-sharing arithmetic leaves tiny floating-point residuals; treating
#: them as unfinished can produce wake-ups whose delay underflows below the
#: clock's floating-point resolution and the simulation stops making progress.
_BYTE_EPSILON = 0.5


class Resource:
    """Common interface: request work, get a callback when it completes."""

    #: Fault-injection wiring (:mod:`repro.simulator.faults`): ``fault_role``
    #: tags what kind of faults can hit this resource ("transfer" for links,
    #: "compute" for channels) and is set by the runtime's resource factory;
    #: ``injector`` is installed by ``FaultInjector.install``.  Both stay the
    #: class-level ``None`` in fault-free runs, and every hook sits behind an
    #: ``is None`` fast path, so the fault layer costs nothing when disabled.
    fault_role: Optional[str] = None
    injector = None

    def __init__(self, engine: Engine, name: str, trace: Optional[Trace] = None):
        self.engine = engine
        self.name = name
        self.trace = trace
        self.completed_items = 0
        #: Engine events this resource's callbacks consumed (wake-ups and
        #: work-item completions).  The perf harness tracks this per resource
        #: to show where simulated event traffic goes.
        self.events_processed = 0

    def request(self, amount: float, callback: Callback, label: str = "") -> None:
        """Consume ``amount`` of the resource, then invoke the callback."""
        raise NotImplementedError


class _QueuedWork:
    """One channel work item, recycled through the owning resource's slab.

    The record carries everything its completion event needs, and ``_fire``
    (a bound method created once per record) is the event callback — no
    per-item closure, no steady-state allocation.
    """

    __slots__ = ("resource", "duration", "callback", "label", "start", "attempt", "fire")

    def __init__(self, resource: "ChannelResource"):
        self.resource = resource
        self.duration = 0.0
        self.callback: Optional[Callback] = None
        self.label = ""
        self.start = 0.0
        self.attempt = 1
        self.fire = self._fire  # bind once; reused across recycles

    def _fire(self) -> None:
        resource = self.resource
        injector = resource.injector
        if injector is not None and injector.intercept_work(resource, self):
            # Injected transient failure: the server frees up, the item is
            # re-queued by ``retry_work`` after the injector's backoff delay.
            resource._busy -= 1
            resource.events_processed += 1
            resource._dispatch()
            return
        callback = self.callback
        resource._busy -= 1
        resource.completed_items += 1
        resource.events_processed += 1
        if resource.trace is not None:
            resource.trace.record(
                resource.name, self.label, self.start, resource.engine.now
            )
        # Recycle before invoking the callback: the callback may request new
        # work on this resource, which can then reuse this record immediately.
        self.callback = None
        self.label = ""
        resource._free.append(self)
        callback()
        resource._dispatch()


class ChannelResource(Resource):
    """``channels`` identical servers with a FIFO queue.

    ``request(duration)`` enqueues a work item lasting ``duration`` seconds.
    An optional ``per_item_overhead`` is added to every item, modelling fixed
    scheduling/launch costs.
    """

    def __init__(
        self,
        engine: Engine,
        name: str,
        channels: int = 1,
        per_item_overhead: float = 0.0,
        trace: Optional[Trace] = None,
    ):
        super().__init__(engine, name, trace)
        if channels < 1:
            raise ValueError("channels must be >= 1")
        self.channels = channels
        self.per_item_overhead = per_item_overhead
        self._queue: Deque[_QueuedWork] = deque()
        self._busy = 0
        #: slab of recycled work records (bounded by peak queue + busy depth)
        self._free: List[_QueuedWork] = []

    def request(self, amount: float, callback: Callback, label: str = "") -> None:
        """Occupy one server for ``amount`` seconds, then invoke the callback."""
        if amount < 0:
            raise ValueError(f"negative duration {amount!r}")
        free = self._free
        work = free.pop() if free else _QueuedWork(self)
        work.duration = amount + self.per_item_overhead
        work.callback = callback
        work.label = label
        if self.injector is not None:
            work.attempt = 1
        self._queue.append(work)
        self._dispatch()

    def retry_work(self, work: "_QueuedWork") -> None:
        """Re-queue a work item whose previous attempt the injector failed."""
        work.attempt += 1
        self._queue.append(work)
        self._dispatch()

    def _dispatch(self) -> None:
        engine = self.engine
        queue = self._queue
        while self._busy < self.channels and queue:
            work = queue.popleft()
            self._busy += 1
            work.start = engine.now
            engine.schedule(work.duration, work.fire)


class _Transfer:
    """One in-flight transfer, recycled through the owning link's slab."""

    __slots__ = (
        "size", "callback", "label", "started", "admit_virtual",
        "attempt", "first_started",
    )

    def __init__(self, size: float, callback: Callback, label: str, started: float):
        self.size = size  # bytes of service owed, including the latency charge
        self.callback = callback
        self.label = label
        self.started = started
        #: Virtual-clock value when the transfer was admitted to the active set.
        self.admit_virtual = 0.0
        #: Retry bookkeeping, only maintained while an injector is installed.
        self.attempt = 1
        self.first_started = started

    def remaining(self, virtual: float) -> float:
        """Service bytes still owed at virtual-clock value ``virtual``.

        Computed from the admission snapshot rather than the (rounded) finish
        tag so that a transfer whose active set never changes completes at
        exactly ``size / rate``.
        """
        return self.size - (virtual - self.admit_virtual)


class BandwidthResource(Resource):
    """Processor-sharing link with a fixed total bandwidth (bytes/second).

    Active transfers progress simultaneously, each at ``bandwidth / n`` where
    ``n`` is the number of active transfers.  Each transfer additionally pays a
    fixed ``latency`` once (charged as ``latency * bandwidth`` extra service
    bytes, so the latency of concurrent transfers is itself shared — matching
    a link whose setup handshake rides on the same wire).

    Incrementally maintained via the virtual-service clock (module docstring):
    arrivals and completions are O(log n), and exactly one wake-up is armed at
    the earliest finish time; the wake-up is cancelled and re-armed whenever
    that time moves, so no spurious early wake-ups are ever processed.
    """

    def __init__(
        self,
        engine: Engine,
        name: str,
        bandwidth: float,
        latency: float = 0.0,
        trace: Optional[Trace] = None,
        max_concurrency: Optional[int] = None,
    ):
        super().__init__(engine, name, trace)
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        self.bandwidth = bandwidth
        #: The healthy bandwidth; ``rescale_bandwidth`` degrades relative to it.
        self.nominal_bandwidth = bandwidth
        self.latency = latency
        self.max_concurrency = max_concurrency
        #: Cumulative normalized service: bytes a transfer active since t=0
        #: would have received.  Monotonically non-decreasing.
        self._virtual = 0.0
        self._last_update = 0.0
        #: Min-heap of (finish_tag, seq, transfer) over the active set.
        self._finish_heap: List[Tuple[float, int, _Transfer]] = []
        self._seq = itertools.count()
        self._waiting: Deque[_Transfer] = deque()
        self._wakeup: Optional[EventHandle] = None
        self._wakeup_time = 0.0
        #: slab of recycled transfer records (bounded by peak concurrency)
        self._free: List[_Transfer] = []
        self.bytes_transferred = 0.0
        #: Wake-ups that were armed but superseded before firing (never
        #: processed as spurious no-op events, see the module docstring).
        self.wakeups_cancelled = 0

    @property
    def queued_transfers(self) -> int:
        """Always 0: a processor-sharing link admits every transfer at once."""
        return len(self._waiting)

    def request(self, amount: float, callback: Callback, label: str = "") -> None:
        """Start transferring ``amount`` bytes; ``callback`` fires on completion."""
        if amount < 0:
            raise ValueError(f"negative transfer size {amount!r}")
        self.bytes_transferred += amount
        free = self._free
        if free:
            transfer = free.pop()
            transfer.size = float(amount) + self.latency * self.bandwidth
            transfer.callback = callback
            transfer.label = label
            transfer.started = self.engine.now
            transfer.admit_virtual = 0.0
        else:
            transfer = _Transfer(
                float(amount) + self.latency * self.bandwidth,
                callback,
                label,
                self.engine.now,
            )
        if self.injector is not None:
            transfer.attempt = 1
            transfer.first_started = self.engine.now
        self._advance()
        if (
            self.max_concurrency is not None
            and len(self._finish_heap) >= self.max_concurrency
        ):
            self._waiting.append(transfer)
            return  # active set unchanged: the armed wake-up stays valid
        self._admit(transfer)
        self._rearm()

    # ------------------------------------------------------------------ #
    # fault hooks (no-ops unless a FaultInjector is installed)
    # ------------------------------------------------------------------ #
    def retry_transfer(self, transfer: _Transfer) -> None:
        """Re-admit a transfer whose previous attempt the injector failed.

        The retried attempt redoes the full service (payload plus the latency
        charge captured in ``transfer.size``); ``attempt``/``first_started``
        carry the retry budget across attempts.
        """
        transfer.attempt += 1
        transfer.started = self.engine.now
        self._advance()
        if (
            self.max_concurrency is not None
            and len(self._finish_heap) >= self.max_concurrency
        ):
            self._waiting.append(transfer)
            return
        self._admit(transfer)
        self._rearm()

    def rescale_bandwidth(self, scale: float) -> None:
        """Run the link at ``scale`` x nominal bandwidth (degradation windows).

        Settles accrued service at the old rate, switches the rate, and
        re-arms the wake-up so in-flight transfers finish at the new speed.
        An outage (``scale=0``) is clamped to a tiny positive floor: queued
        transfers survive the window and complete once bandwidth is restored.
        """
        self._advance()
        self.bandwidth = self.nominal_bandwidth * max(scale, 1e-9)
        if self._wakeup is not None:
            self._wakeup.cancel()
            self.wakeups_cancelled += 1
            self._wakeup = None
        self._rearm()

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _rate(self) -> float:
        return self.bandwidth / max(1, len(self._finish_heap))

    def _advance(self) -> None:
        """Advance the virtual-service clock to the engine's current time."""
        now = self.engine.now
        elapsed = now - self._last_update
        self._last_update = now
        if elapsed > 0 and self._finish_heap:
            # inline _rate(): the heap is non-empty here, same arithmetic
            self._virtual += self.bandwidth / len(self._finish_heap) * elapsed

    def _admit(self, transfer: _Transfer) -> None:
        transfer.admit_virtual = self._virtual
        # The finish tag orders the heap; wake times and completion checks use
        # ``_Transfer.remaining`` (see its docstring for the FP rationale).
        heapq.heappush(
            self._finish_heap, (self._virtual + transfer.size, next(self._seq), transfer)
        )

    def _rearm(self) -> None:
        """Keep exactly one wake-up armed at the earliest finish time."""
        if not self._finish_heap:
            return
        head = self._finish_heap[0][2]
        rate = self.bandwidth / len(self._finish_heap)  # inline _rate()
        delay = max(0.0, head.remaining(self._virtual) / rate)
        due = self.engine.now + delay
        if self._wakeup is not None:
            if due == self._wakeup_time:
                return  # earliest finish unchanged: keep the armed wake-up
            self._wakeup.cancel()
            self.wakeups_cancelled += 1
        self._wakeup = self.engine.schedule_cancellable(delay, self._wake)
        self._wakeup_time = due

    def _wake(self) -> None:
        """Complete *every* finished transfer in one pass, then re-arm.

        One wake-up event handles the whole batch of transfers that are done
        at this instant (plus any waiting admissions they unblock), instead of
        burning one engine event per completion.
        """
        self._wakeup = None
        self.events_processed += 1
        self._advance()
        heap = self._finish_heap
        virtual = self._virtual
        finished: List[_Transfer] = []
        # inline _Transfer.remaining(): size - (virtual - admit_virtual)
        while heap:
            head = heap[0][2]
            if head.size - (virtual - head.admit_virtual) > _BYTE_EPSILON:
                break
            finished.append(heapq.heappop(heap)[2])
        while self._waiting and (
            self.max_concurrency is None
            or len(self._finish_heap) < self.max_concurrency
        ):
            self._admit(self._waiting.popleft())
        trace = self.trace
        free = self._free
        injector = self.injector
        for transfer in finished:
            if injector is not None and injector.intercept_transfer(self, transfer):
                # Injected transient failure: the record is parked until the
                # injector's backoff event calls ``retry_transfer`` — neither
                # recycled nor completed now.
                continue
            self.completed_items += 1
            if trace is not None:
                trace.record(self.name, transfer.label, transfer.started, self.engine.now)
            callback = transfer.callback
            # Recycle before invoking: the callback may start a new transfer
            # on this link, which can then reuse the record immediately.
            transfer.callback = None
            transfer.label = ""
            free.append(transfer)
            callback()
        self._advance()  # callbacks may have consumed virtual time via nested runs
        self._rearm()
        if not self._finish_heap and not self._waiting:
            # Idle link: rewind the clock so it is bounded by one busy period.
            # Otherwise ulp(_virtual) eventually exceeds _BYTE_EPSILON on
            # high-bandwidth links and the completion check can never pass.
            self._virtual = 0.0
