"""Multi-tenant serving: concurrent jobs multiplexed onto one runtime.

The paper's runtime executes one application's launches at a time; this
module turns the reproduction into a small *service*: several tenants, each
with its own :class:`~repro.core.context.Context` (own planner, launch
window, kernel namespace and arrays), share one
:class:`~repro.runtime.system.RuntimeSystem` — one simulated cluster, one
event engine, one memory manager per worker.

Three mechanisms make that safe and fair:

* **Weighted fair queueing** (:class:`FairShareClock`): admission of job
  *quanta* (one workload iteration each, see
  :meth:`~repro.kernels.base.Workload.steps`) is ordered by per-tenant
  virtual finish tags — the same finish-tag min-heap formulation the
  simulator's :class:`~repro.simulator.resources.BandwidthResource` uses for
  link sharing, with task-count as the service metric.  A tenant with weight
  2 drains twice the launches per unit of virtual service as a tenant with
  weight 1, and an idle tenant's tag is lifted to the current virtual time
  when it next becomes busy, so backlogs never build up credit.
* **Memory quotas** (:meth:`~repro.runtime.memory.MemoryManager.set_tenant_quota`):
  each tenant may be capped at a fraction of every memory space.  Quotas
  are soft (work-conserving) — a tenant can exceed its share of idle
  capacity, but only its overage is evictable by rivals, and residency
  within the quota is protected from foreign spill pressure like a pin.
* **Tenant-tagged plans**: every plan a tenant's planner builds carries its
  tenant id, so the runtime tracks per-tenant outstanding work: a job
  completes when its tenant's outstanding count reaches zero, and a quota
  protects residency only while its tenant has work outstanding.

Runtime-wide features are configured once, on the serving system, and
reach the shared runtime through its keyword arguments:
``ServingSystem(faults=..., disk=...)`` turns on fault injection and the
compressed disk tier for every tenant (a tenant context rejects both).  A
permanent device failure is recovered by the runtime at a quiescent point
for *all* tenant contexts in one sweep — each affected tenant's arrays are
rebuilt through its own planner, and tenants with no chunks on the dead
device see no recovery plans at all.

The whole layer is driver-side orchestration of the single discrete-event
simulation; with one tenant it degenerates to exactly the single-tenant
code path (no per-tenant branch is ever taken).
"""

from __future__ import annotations

import heapq
import itertools
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.context import Context
from ..errors import ArgumentValueError
from ..hardware.specs import ClusterSpec, azure_nc24rsv2
from ..kernels.base import create_workload
from .system import ExecutionMode, RuntimeSystem

__all__ = [
    "FairShareClock",
    "JobSpec",
    "JobRecord",
    "ServingReport",
    "ServingSystem",
    "poisson_trace",
    "DEFAULT_MIX",
]

#: engine events advanced per scheduling poll while work is in flight —
#: coarse enough to amortise the poll, fine enough that admission decisions
#: track completion closely
_ENGINE_QUANTUM = 256

#: outstanding tasks a tenant may have before it stops receiving quanta, so a
#: heavy tenant cannot flood the workers' backlogs
INFLIGHT_TASKS = 96


class FairShareClock:
    """Weighted-fair-queueing virtual clock over tenants.

    The finish-tag min-heap formulation of
    :class:`~repro.simulator.resources.BandwidthResource`, applied to
    tenants: each tenant carries a virtual finish tag; charging ``service``
    units advances its tag by ``service / weight`` from ``max(tag, V)``
    (where ``V`` is the clock's virtual time), and the next quantum goes to
    the *eligible* tenant with the smallest tag.  Selection advances ``V``
    to the winner's tag, which is what lifts idle tenants to the present
    instead of letting them hoard credit.  Stale heap entries (a tenant
    charged since they were pushed) are discarded lazily on pop.
    """

    def __init__(self):
        self.weights: Dict[int, float] = {}
        self._tags: Dict[int, float] = {}
        self._virtual = 0.0
        self._heap: List[Tuple[float, int, int]] = []
        self._seq = itertools.count()

    def add_tenant(self, tenant: int, weight: float = 1.0) -> None:
        """Register a tenant; its tag starts at the current virtual time."""
        if weight <= 0:
            raise ArgumentValueError(f"tenant weight must be positive, got {weight}")
        if tenant in self.weights:
            raise ArgumentValueError(f"tenant {tenant} already registered")
        self.weights[tenant] = weight
        self._tags[tenant] = self._virtual
        heapq.heappush(self._heap, (self._virtual, next(self._seq), tenant))

    @property
    def virtual_time(self) -> float:
        """The clock's current virtual time ``V``."""
        return self._virtual

    def tag_of(self, tenant: int) -> float:
        """The tenant's current virtual finish tag (monotone per tenant)."""
        return self._tags.get(tenant, 0.0)

    def charge(self, tenant: int, service: float) -> float:
        """Charge ``service`` units against ``tenant``; returns the new tag."""
        if service < 0:
            raise ArgumentValueError(f"service must be non-negative, got {service}")
        tag = max(self._tags[tenant], self._virtual) + service / self.weights[tenant]
        self._tags[tenant] = tag
        heapq.heappush(self._heap, (tag, next(self._seq), tenant))
        return tag

    def select(self, eligible) -> Optional[int]:
        """The eligible tenant with the smallest tag, advancing ``V`` to it.

        Entries for ineligible tenants are buffered and re-pushed, so a
        tenant skipped now (job blocked on its in-flight cap) keeps its
        place in line.  Returns ``None`` when no eligible tenant exists.
        """
        buffered: List[Tuple[float, int, int]] = []
        winner: Optional[int] = None
        while self._heap:
            entry = heapq.heappop(self._heap)
            tag, _, tenant = entry
            if self._tags.get(tenant) != tag:
                continue  # stale: the tenant was charged since this push
            buffered.append(entry)
            if tenant in eligible:
                winner = tenant
                self._virtual = max(self._virtual, tag)
                break
        for entry in buffered:
            heapq.heappush(self._heap, entry)
        return winner


@dataclass(frozen=True)
class JobSpec:
    """One job of a serving trace: a workload run on behalf of a tenant."""

    arrival: float
    tenant: int
    workload: str
    n: int
    params: Dict = field(default_factory=dict)


@dataclass
class JobRecord:
    """Lifecycle of one submitted job, in virtual seconds."""

    spec: JobSpec
    job_id: int
    #: when the job left the queue and its workload was prepared
    started: Optional[float] = None
    #: when the tenant's outstanding-task count last hit zero for this job
    finished: Optional[float] = None
    #: the live workload object (kept so tests can gather/verify results)
    workload: object = None

    @property
    def latency(self) -> Optional[float]:
        """Arrival-to-completion time, or ``None`` while in flight."""
        if self.finished is None:
            return None
        return self.finished - self.spec.arrival


def _percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile of ``values`` (q in [0, 100])."""
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


@dataclass
class ServingReport:
    """Aggregate outcome of one served trace."""

    jobs: List[JobRecord]
    makespan: float
    virtual_time: float
    tenant_counters: Dict[int, Dict[str, int]]
    tenant_tags: Dict[int, float]

    @property
    def throughput(self) -> float:
        """Completed jobs per virtual second over the makespan."""
        return len(self.jobs) / max(self.makespan, 1e-12)

    def latencies(self) -> List[float]:
        """Per-job arrival-to-completion latencies."""
        return [job.latency for job in self.jobs if job.latency is not None]

    def to_dict(self) -> Dict:
        """JSON-serialisable form (benchmarks and ``serve --trace``)."""
        latencies = self.latencies()
        return {
            "jobs": [
                {
                    "job_id": job.job_id,
                    "tenant": job.spec.tenant,
                    "workload": job.spec.workload,
                    "n": job.spec.n,
                    "arrival": job.spec.arrival,
                    "started": job.started,
                    "finished": job.finished,
                    "latency": job.latency,
                }
                for job in self.jobs
            ],
            "jobs_completed": len(self.jobs),
            "makespan": self.makespan,
            "virtual_time": self.virtual_time,
            "throughput": self.throughput,
            "latency_p50": _percentile(latencies, 50.0),
            "latency_p99": _percentile(latencies, 99.0),
            "tenant_counters": {
                str(tenant): dict(counters)
                for tenant, counters in sorted(self.tenant_counters.items())
            },
            "tenant_tags": {
                str(tenant): tag for tenant, tag in sorted(self.tenant_tags.items())
            },
        }


@dataclass
class _Tenant:
    """Book-keeping for one registered tenant."""

    tenant_id: int
    name: str
    weight: float
    context: Context
    queue: "deque[JobRecord]" = field(default_factory=deque)
    #: the running job's step generator, or None when idle/draining
    generator: object = None
    running: Optional[JobRecord] = None
    #: True once the running job's generator is exhausted and we are only
    #: waiting for the tenant's outstanding tasks to hit zero
    draining: bool = False
    #: tenant_tasks_submitted watermark at the last fair-share charge
    _last_charged: int = 0


class ServingSystem:
    """An async job queue serving many tenants on one simulated cluster.

    Usage::

        serving = ServingSystem(azure_nc24rsv2(nodes=1, gpus_per_node=4))
        serving.add_tenant("alice", weight=2.0, memory_fraction=0.5)
        serving.add_tenant("bob")
        serving.submit(JobSpec(arrival=0.0, tenant=0, workload="hotspot3", n=1 << 20))
        serving.submit(JobSpec(arrival=0.1, tenant=1, workload="kmeans2", n=1 << 18))
        report = serving.run()

    Scheduling model: each tenant runs at most one job at a time (its queue
    is FIFO); across tenants, ready quanta are admitted in
    :class:`FairShareClock` order, one workload iteration per quantum, with
    at most :data:`INFLIGHT_TASKS` outstanding tasks per tenant so a heavy
    tenant cannot flood the workers' backlogs.  ``max_active`` additionally
    caps how many jobs may be in flight at once (admission control);
    ``max_active=1`` serialises the whole trace, which is the baseline arm
    of the serving benchmark.  Every other keyword argument (``faults``,
    ``fault_seed``, ``disk``, ``disk_seed``, ...) configures the shared
    :class:`~repro.runtime.system.RuntimeSystem`.
    """

    def __init__(
        self,
        cluster: Optional[ClusterSpec] = None,
        mode: object = ExecutionMode.FUNCTIONAL,
        max_active: Optional[int] = None,
        memory_capacities=None,
        **runtime_kwargs,
    ):
        if cluster is None:
            cluster = azure_nc24rsv2(nodes=1, gpus_per_node=4)
        if isinstance(mode, str):
            mode = ExecutionMode(mode)
        self.runtime = RuntimeSystem(
            cluster,
            mode=mode,
            memory_capacities=memory_capacities,
            **runtime_kwargs,
        )
        self.clock = FairShareClock()
        self.max_active = max_active
        self._tenants: List[_Tenant] = []
        self._jobs: List[JobSpec] = []
        self._records: List[JobRecord] = []
        self._job_counter = itertools.count()
        #: jobs finished, in completion order (the report's job list keeps
        #: submission order; this one is what the fairness tests inspect)
        self.completed: List[JobRecord] = []

    # ------------------------------------------------------------------ #
    # tenants and jobs
    # ------------------------------------------------------------------ #
    def add_tenant(
        self,
        name: str = "",
        weight: float = 1.0,
        memory_fraction: Optional[float] = None,
        **context_kwargs,
    ) -> Context:
        """Register a tenant; returns its :class:`~repro.core.context.Context`.

        ``weight`` scales the tenant's fair share of scheduling quanta;
        ``memory_fraction`` (optional) soft-caps the tenant at that fraction
        of every memory space.  Each tenant's device list is rotated by its
        index so small single-chunk arrays spread across the GPUs.
        """
        tenant_id = len(self._tenants)
        context = Context(
            runtime=self.runtime,
            tenant=tenant_id,
            tenant_name=name or f"tenant-{tenant_id}",
            **context_kwargs,
        )
        self.clock.add_tenant(tenant_id, weight)
        if memory_fraction is not None:
            self.runtime.set_tenant_quota(tenant_id, memory_fraction)
        self._tenants.append(
            _Tenant(
                tenant_id=tenant_id,
                name=context.tenant_name,
                weight=weight,
                context=context,
            )
        )
        return context

    @property
    def contexts(self) -> List[Context]:
        """Every tenant's context, in tenant-id order."""
        return [tenant.context for tenant in self._tenants]

    def submit(self, job: JobSpec) -> None:
        """Queue one job for the serving run."""
        if not 0 <= job.tenant < len(self._tenants):
            raise ArgumentValueError(
                f"job names tenant {job.tenant}, but only {len(self._tenants)} "
                f"tenants are registered"
            )
        self._jobs.append(job)

    def submit_trace(self, jobs: Sequence[JobSpec]) -> None:
        """Queue a whole trace of jobs."""
        for job in jobs:
            self.submit(job)

    def fail_device(self, device) -> None:
        """Mark a GPU permanently failed mid-trace; see :meth:`RuntimeSystem.fail_device`."""
        self.runtime.fail_device(device)

    # ------------------------------------------------------------------ #
    # the serving loop
    # ------------------------------------------------------------------ #
    def run(self) -> ServingReport:
        """Serve every submitted job to completion; returns the report.

        The loop interleaves three activities deterministically:

        1. *admission* — jobs whose arrival time has passed join their
           tenant's FIFO queue; a queued job starts when its tenant is idle
           and the global ``max_active`` cap has room;
        2. *scheduling* — among started jobs whose tenant is under its
           in-flight task cap, the fair-share clock picks one tenant and
           its job advances by exactly one workload quantum (the launches
           are flushed to the runtime and charged to the tenant's tag);
        3. *simulation* — when no quantum can be admitted, the engine runs
           until completions (or the next arrival) change that.  Pending
           device failures are recovered stop-the-world at the next
           quiescent point, exactly like the single-tenant path.

        A running job whose tasks can never complete raises the runtime's
        stall report (:meth:`RuntimeSystem.stalled`), as
        :meth:`RuntimeSystem.run_until_idle` does.
        """
        engine = self.runtime.engine
        arrivals = deque(
            sorted(
                (JobRecord(spec=spec, job_id=next(self._job_counter)) for spec in self._jobs),
                key=lambda record: (record.spec.arrival, record.job_id),
            )
        )
        self._jobs = []
        self._records.extend(arrivals)
        first_arrival = arrivals[0].spec.arrival if arrivals else engine.now
        previous_idle_hook = self.runtime.on_tenant_idle
        self.runtime.on_tenant_idle = self._on_tenant_idle
        try:
            while True:
                # 1. admission: arrivals into tenant queues, queued jobs into
                # the active set (FIFO per tenant, capped globally).
                while arrivals and arrivals[0].spec.arrival <= engine.now:
                    record = arrivals.popleft()
                    self._tenants[record.spec.tenant].queue.append(record)
                in_flight = sum(1 for t in self._tenants if t.running is not None)
                for tenant in self._tenants:
                    if tenant.running is None and tenant.queue:
                        if self.max_active is not None and in_flight >= self.max_active:
                            break
                        self._start_job(tenant, tenant.queue.popleft())
                        in_flight += 1

                # 2. one fair-share quantum, if any tenant can take it.
                eligible = {
                    tenant.tenant_id
                    for tenant in self._tenants
                    if tenant.generator is not None
                    and self.runtime.tenant_outstanding(tenant.tenant_id)
                    < INFLIGHT_TASKS
                }
                if eligible:
                    winner = self._tenants[self.clock.select(eligible)]
                    self._pump(winner)
                    continue

                # 3. nothing schedulable: advance the simulation.
                injector = self.runtime.fault_injector
                if injector is not None and injector.pending_failures:
                    # Stop-the-world recovery at a quiescent point: drain all
                    # in-flight work, then recover_device sweeps every tenant
                    # (run_until_idle drives both).
                    self.runtime.run_until_idle()
                    continue
                running = any(t.running is not None for t in self._tenants)
                if engine.pending:
                    engine.run(max_events=_ENGINE_QUANTUM)
                    continue
                if running and self.runtime.outstanding_tasks > 0:
                    raise self.runtime.stalled("serving loop")
                if arrivals:
                    # Idle gap before the next arrival: the engine does not
                    # advance time on an empty queue, so plant a no-op event
                    # at the arrival instant and run up to it.
                    next_arrival = arrivals[0].spec.arrival
                    if next_arrival > engine.now:
                        engine.schedule_at(next_arrival, lambda: None)
                        engine.run(until=next_arrival)
                    continue
                if running or any(t.queue for t in self._tenants):
                    continue
                break
            # Drain any stragglers (and recover any last pending failures).
            self.runtime.run_until_idle()
        finally:
            self.runtime.on_tenant_idle = previous_idle_hook
        end = engine.now
        for record in self._records:
            if record.finished is None and record.started is not None:
                record.finished = end  # finished in the final drain
        return ServingReport(
            jobs=list(self._records),
            makespan=end - first_arrival,
            virtual_time=end,
            tenant_counters=self.runtime.tenant_counters(),
            tenant_tags={t.tenant_id: self.clock.tag_of(t.tenant_id) for t in self._tenants},
        )

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _start_job(self, tenant: _Tenant, record: JobRecord) -> None:
        """Prepare the workload and install its step generator."""
        spec = record.spec
        workload = create_workload(spec.workload, tenant.context, spec.n, **spec.params)
        workload.prepare()
        tenant.context.window.flush("serving-prepare")
        record.workload = workload
        record.started = self.runtime.engine.now
        tenant.running = record
        tenant.generator = workload.steps()
        tenant.draining = False
        # Preparation launches (array creation) are deliberately not
        # charged: they are the untimed section of the benchmark protocol.
        tenant._last_charged = self.runtime.tenant_tasks_submitted.get(tenant.tenant_id, 0)

    def _pump(self, tenant: _Tenant) -> None:
        """Advance one tenant's running job by one quantum and charge it."""
        context = tenant.context
        try:
            next(tenant.generator)
        except StopIteration:
            tenant.generator = None
            tenant.draining = True
        context.expr.force_pending()
        context.window.flush("serving")
        submitted = self.runtime.tenant_tasks_submitted.get(tenant.tenant_id, 0)
        # Minimum charge 1: even a task-free quantum consumes a slot, and a
        # zero charge would let a tenant spin without its tag ever moving.
        self.clock.charge(tenant.tenant_id, max(submitted - tenant._last_charged, 1))
        tenant._last_charged = submitted
        if tenant.draining and self.runtime.tenant_outstanding(tenant.tenant_id) == 0:
            self._finish_job(tenant)

    def _on_tenant_idle(self, tenant_id: int) -> None:
        """Runtime callback: a tenant's outstanding count reached zero."""
        tenant = self._tenants[tenant_id]
        if tenant.draining and tenant.running is not None:
            self._finish_job(tenant)

    def _finish_job(self, tenant: _Tenant) -> None:
        record = tenant.running
        record.finished = self.runtime.engine.now
        tenant.running = None
        tenant.generator = None
        tenant.draining = False
        self.completed.append(record)


# --------------------------------------------------------------------------- #
# trace generation
# --------------------------------------------------------------------------- #
#: default job mix of the serving benchmark: the three workloads the issue
#: trace replays — a stencil, a map-reduce and the CGC application — all
#: sized so a single job cannot saturate a 4-GPU cluster on its own.
DEFAULT_MIX: List[Tuple[str, int, Dict]] = [
    ("hotspot3", 512 * 512, {"iterations": 4}),
    ("kmeans2", 200_000, {"quantize": True, "iterations": 3}),
    ("cgc", 160 * 160, {"iterations": 2}),
]


def poisson_trace(
    seed: int,
    njobs: int,
    rate: float,
    tenants: int,
    mix: Optional[Sequence[Tuple[str, int, Dict]]] = None,
) -> List[JobSpec]:
    """A seeded Poisson arrival trace of mixed jobs over ``tenants`` tenants.

    Inter-arrival times are exponential with ``rate`` arrivals per virtual
    second; each job draws a uniform tenant and a uniform entry of ``mix``
    (``(workload, n, params)`` triples, :data:`DEFAULT_MIX` by default).
    The same ``seed`` always replays the identical trace.
    """
    if njobs <= 0:
        raise ArgumentValueError(f"njobs must be positive, got {njobs}")
    if rate <= 0:
        raise ArgumentValueError(f"rate must be positive, got {rate}")
    if tenants <= 0:
        raise ArgumentValueError(f"tenants must be positive, got {tenants}")
    choices = list(mix) if mix is not None else list(DEFAULT_MIX)
    rng = random.Random(seed)
    now = 0.0
    jobs: List[JobSpec] = []
    for _ in range(njobs):
        now += rng.expovariate(rate)
        workload, n, params = choices[rng.randrange(len(choices))]
        jobs.append(
            JobSpec(
                arrival=now,
                tenant=rng.randrange(tenants),
                workload=workload,
                n=n,
                params=dict(params),
            )
        )
    return jobs
