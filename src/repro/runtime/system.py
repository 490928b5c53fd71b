"""The runtime system: driver-side coordination of all workers (Sec. 3.1).

:class:`RuntimeSystem` owns the discrete-event engine, the cluster topology,
the network fabric and one :class:`~repro.runtime.worker.Worker` per node.
The driver (the user's :class:`~repro.core.context.Context`) hands it
execution plans; the runtime charges plan-construction time on the driver's
own resource (so planning overlaps with execution on the workers, as in the
paper), delivers each worker's DAG fragment through the RPC channel, tracks
completion of every task, and advances virtual time until the system is idle.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..core.array import ArrayIdAllocator
from ..core.chunk import ChunkIdAllocator
from ..core.tasks import ExecutionPlan, TaskId, TaskIdAllocator
from ..errors import SimulationStalled
from ..hardware.specs import ClusterSpec
from ..hardware.topology import Cluster
from ..perfmodel.costs import DEFAULT_OVERHEADS, OverheadModel
from ..simulator.engine import Engine
from ..simulator.resources import ChannelResource
from ..simulator.trace import Trace
from .memory import MemoryStats, OutOfMemoryError
from .network import NetworkFabric, RpcChannel
from .scheduler import DEFAULT_STAGE_THRESHOLD
from .worker import Worker

__all__ = ["ExecutionMode", "RuntimeSystem", "RuntimeStats", "OutOfMemoryError"]


class ExecutionMode(enum.Enum):
    """How plans are executed.

    * ``FUNCTIONAL`` — chunks are backed by NumPy buffers and kernels really
      compute; used by tests, examples and any run whose results are read back.
    * ``SIMULATE`` — only metadata and the performance model run; used by the
      benchmark harness to sweep the paper's large problem sizes.
    """

    FUNCTIONAL = "functional"
    SIMULATE = "simulate"


@dataclass
class RuntimeStats:
    """Aggregate counters collected after a run."""

    virtual_time: float = 0.0
    tasks_completed: int = 0
    kernel_launches: int = 0
    control_messages: int = 0
    network_bytes: float = 0.0
    network_messages: int = 0
    #: launch *plans* re-stamped from a cached template / planned cold.  A
    #: fused plan covers two launches but counts once (its status reflects
    #: the fusion cache); per-launch lookup counts live on
    #: ``Planner.cache.hits/misses``.
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    #: cache entries evicted by targeted invalidation (redistribute)
    plan_cache_invalidations: int = 0
    #: launch-window activity: drains, launches merged away by the fusion
    #: pass, and next-launch transfers stamped with prefetch priority
    window_flushes: int = 0
    launches_fused: int = 0
    #: launches that joined a fused *chain* of more than two segments (what
    #: pairwise-only fusion could not have merged), the longest chain stamped,
    #: and reduce parameters combined inside fused tasks (reduction tails)
    launches_fused_chain: int = 0
    fused_chain_max_len: int = 0
    reductions_fused: int = 0
    transfers_prefetched: int = 0
    #: drains for which the memory-planning pass emitted a (non-empty) plan
    window_memory_plans: int = 0
    #: window-aware memory planning: spill victims chosen up front by reserve
    #: tasks, spilled chunks pulled back up the hierarchy ahead of use, and
    #: staging transactions that completed instantly because of either
    chunks_preevicted: int = 0
    prefetch_promotions: int = 0
    staging_stalls: int = 0
    staging_stalls_avoided: int = 0
    #: total engine events processed / cancelled-before-firing
    events_processed: int = 0
    events_cancelled: int = 0
    #: fault tolerance (``Context(faults=...)`` / ``--inject-faults``):
    #: injected transient transfer faults, retried and permanently failed
    #: transfers, permanent device failures, chunks lost with a failed GPU,
    #: spilled replicas promoted instead of replayed, lineage tasks replayed,
    #: arrays force-redistributed onto the shrunken topology, and
    #: link-degradation windows applied
    transfer_faults_injected: int = 0
    transfers_retried: int = 0
    transfers_failed_permanently: int = 0
    devices_failed: int = 0
    chunks_lost: int = 0
    replicas_promoted: int = 0
    tasks_replayed: int = 0
    redistributes_forced: int = 0
    link_degradations: int = 0
    #: lazy expression frontend: DAG roots lowered, elementwise nodes merged
    #: into multi-instruction generated kernels, interior temporaries never
    #: materialised (count and the bytes they would have occupied), bytes
    #: actually allocated for expression results, and group outputs written
    #: in place into a dead input buffer instead of a fresh allocation
    exprs_lowered: int = 0
    expr_nodes_fused: int = 0
    temporaries_elided: int = 0
    temporaries_elided_bytes: int = 0
    expr_bytes_allocated: int = 0
    buffers_reused_inplace: int = 0
    #: compressed disk tier (``Context(disk=True)``): disk→host staged
    #: promotions planned by the window (three-level prefetch), and the
    #: compressed bytes the disk tier actually wrote/read (equal to the raw
    #: spill bytes when the compression model is off)
    disk_promotions_staged: int = 0
    disk_stored_bytes_written: int = 0
    disk_stored_bytes_read: int = 0
    #: checkpoint/restore (``Context.checkpoint``/``Context.restore``):
    #: checkpoints written, chunks and raw/stored bytes captured, chunks
    #: restored from a checkpoint file, and lineage replays that loaded a
    #: durable checkpointed chunk instead of recomputing its producers
    checkpoints_written: int = 0
    chunks_checkpointed: int = 0
    checkpoint_bytes_raw: int = 0
    checkpoint_bytes_stored: int = 0
    chunks_restored: int = 0
    durable_chunks_loaded: int = 0
    memory: Dict[int, MemoryStats] = field(default_factory=dict)
    resource_busy: Dict[str, float] = field(default_factory=dict)
    #: engine events consumed per resource (wake-ups + completions)
    resource_events: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> Dict:
        """JSON-serialisable form (``--stats-json`` and the bench harnesses)."""
        from dataclasses import asdict

        payload = asdict(self)
        # JSON objects need string keys; ``memory`` is keyed by worker id.
        payload["memory"] = {
            str(worker): stats for worker, stats in payload["memory"].items()
        }
        for stats in payload["memory"].values():
            stats["peak_gpu_bytes"] = {
                str(device): peak for device, peak in stats["peak_gpu_bytes"].items()
            }
        return payload


class RuntimeSystem:
    """Driver-side owner of the whole simulated runtime."""

    def __init__(
        self,
        cluster_spec: ClusterSpec,
        mode: ExecutionMode = ExecutionMode.FUNCTIONAL,
        overheads: OverheadModel = DEFAULT_OVERHEADS,
        stage_threshold: int = DEFAULT_STAGE_THRESHOLD,
        enable_trace: bool = True,
        memory_capacities=None,
        scheduler_policy=None,
        record_plans: bool = False,
    ):
        self.cluster = Cluster(cluster_spec)
        self.mode = mode
        self.overheads = overheads
        self.engine = Engine()
        self.trace = Trace() if enable_trace else None
        self.fabric = NetworkFabric()
        self.rpc = RpcChannel(self.engine, overheads.rpc_latency)
        self.kernel_registry: Dict[str, object] = {}

        #: Shared id allocators.  All contexts attached to this runtime draw
        #: from the same pools, so task/chunk/array ids stay globally unique
        #: even under multi-tenant serving (multiple contexts, one runtime).
        self.task_ids = TaskIdAllocator()
        self.chunk_ids = ChunkIdAllocator()
        self.array_ids = ArrayIdAllocator()
        #: send/recv message tags share one sequence for the same reason:
        #: the fabric keys in-flight messages by (src, dst, tag), and two
        #: tenants' planners must never mint the same tag concurrently
        self.message_tags = TaskIdAllocator()
        #: chunk id -> owning tenant id; shared with every worker's memory
        #: manager so quota accounting and eviction protection can attribute
        #: residency.  Stays empty on the single-tenant path.
        self.chunk_tenants: Dict[int, int] = {}

        #: Planning happens on the driver; one serial resource models it.
        self.driver_plan = ChannelResource(
            self.engine,
            "driver.plan",
            channels=1,
            per_item_overhead=0.0,
            trace=self.trace,
        )

        self.workers: List[Worker] = []
        for node in self.cluster.nodes:
            worker = Worker(
                runtime=self,
                node=node,
                engine=self.engine,
                trace=self.trace,
                fabric=self.fabric,
                kernel_registry=self.kernel_registry,
                overheads=overheads,
                functional=(mode is ExecutionMode.FUNCTIONAL),
                stage_threshold=stage_threshold,
                memory_capacities=memory_capacities,
                scheduler_policy=scheduler_policy,
                chunk_tenants=self.chunk_tenants,
            )
            worker.resources.set_nic_bandwidth(
                cluster_spec.interconnect.bandwidth, cluster_spec.interconnect.latency
            )
            self.workers.append(worker)

        #: Completion tracking: every submitted task id that has not finished
        #: yet maps to the countdown entries of the tasks waiting on it
        #: (``None`` until the first waiter subscribes).  An entry is
        #: ``[task, unmet dependencies, owning scheduler's ready callback]``
        #: and sits in the list of every unfinished dependency of its task.
        self._waiters: Dict[TaskId, Optional[list]] = {}
        self._outstanding = 0
        self.plans_submitted = 0
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0
        #: When ``record_plans`` is set, every submitted plan is kept here so
        #: ``repro.analysis`` can rebuild the full task DAG (Fig. 4) afterwards.
        self.record_plans = record_plans
        self.recorded_plans: List[ExecutionPlan] = []
        #: Fault tolerance (``Context(faults=...)``): the seeded injector, the
        #: lineage tracker observing every submitted plan, and the recovery
        #: callback invoked per failed device at the next quiescent point.
        #: All three stay ``None`` in fault-free runs.
        self.fault_injector = None
        self.lineage = None
        self.recovery_handler: Callable = None
        #: recovery counters aggregated into :class:`RuntimeStats`
        self.devices_failed = 0
        self.chunks_lost = 0
        self.replicas_promoted = 0
        self.tasks_replayed = 0
        self.redistributes_forced = 0
        #: Compressed disk tier: the per-chunk compression model shared by
        #: every worker's memory manager (``None`` = legacy symmetric disk
        #: link, bit-identical with pre-disk-tier baselines).
        self.disk_model = None
        #: checkpoint/restore counters aggregated into :class:`RuntimeStats`
        self.checkpoints_written = 0
        self.chunks_checkpointed = 0
        self.checkpoint_bytes_raw = 0
        self.checkpoint_bytes_stored = 0
        self.chunks_restored = 0
        #: Multi-tenant serving (:mod:`repro.runtime.serving`).  All of this
        #: is dormant — and the hot path pays a single ``if`` — until the
        #: first tenant-tagged plan arrives.  ``fair_share`` is set by the
        #: serving layer to its :class:`~repro.runtime.serving.FairShareClock`
        #: so the ``fairshare`` scheduling policy can consult it.
        self._tenancy = False
        self._task_tenant: Dict[TaskId, int] = {}
        self._tenant_outstanding: Dict[int, int] = {}
        self.tenant_tasks_submitted: Dict[int, int] = {}
        self.tenant_tasks_completed: Dict[int, int] = {}
        self.tenant_plans_submitted: Dict[int, int] = {}
        self.fair_share = None
        #: fired with the tenant id whenever a tenant's outstanding-task
        #: count drops to zero (the serving loop uses it to detect job
        #: completion without polling)
        self.on_tenant_idle: Callable = None

    # ------------------------------------------------------------------ #
    # completion tracking (shared by all schedulers)
    # ------------------------------------------------------------------ #
    def notify_completion(self, task_id: TaskId) -> None:
        """Mark a task finished and release its waiters (schedulers call this).

        Waiters are released in the order they subscribed, and a task whose
        last unmet dependency this was goes to its scheduler's ready path.
        """
        try:
            entries = self._waiters.pop(task_id)
        except KeyError:
            raise RuntimeError(
                f"task {task_id} completed twice (or was never submitted)"
            ) from None
        self._outstanding -= 1
        if entries is not None:
            for entry in entries:
                entry[1] -= 1
                if not entry[1]:
                    entry[2](entry[0])
        if self._tenancy:
            tenant = self._task_tenant.pop(task_id, None)
            if tenant is not None:
                self.tenant_tasks_completed[tenant] = (
                    self.tenant_tasks_completed.get(tenant, 0) + 1
                )
                remaining = self._tenant_outstanding[tenant] - 1
                self._tenant_outstanding[tenant] = remaining
                if remaining == 0 and self.on_tenant_idle is not None:
                    self.on_tenant_idle(tenant)

    @property
    def outstanding_tasks(self) -> int:
        """Submitted tasks that have not completed yet."""
        return self._outstanding

    # ------------------------------------------------------------------ #
    # plan submission
    # ------------------------------------------------------------------ #
    def submit_plan(self, plan: ExecutionPlan) -> None:
        """Charge planning time, then deliver each worker's DAG fragment via RPC.

        Submission is asynchronous with respect to execution: the driver keeps
        planning the next launch while workers execute earlier ones, exactly
        the overlap the paper exploits (Sec. 2.4).
        """
        plan.validate()
        if self.lineage is not None:
            self.lineage.observe_plan(plan)
        self.plans_submitted += 1
        if plan.cache_status == "hit":
            self.plan_cache_hits += 1
        elif plan.cache_status == "miss":
            self.plan_cache_misses += 1
        if self.record_plans:
            self.recorded_plans.append(plan)
        self._outstanding += plan.task_count
        waiters = self._waiters
        for tasks in plan.tasks_by_worker.values():
            for task in tasks:
                waiters[task.task_id] = None
        if plan.tenant is not None:
            self._tenancy = True
            tenant = plan.tenant
            self.tenant_plans_submitted[tenant] = (
                self.tenant_plans_submitted.get(tenant, 0) + 1
            )
            self.tenant_tasks_submitted[tenant] = (
                self.tenant_tasks_submitted.get(tenant, 0) + plan.task_count
            )
            self._tenant_outstanding[tenant] = (
                self._tenant_outstanding.get(tenant, 0) + plan.task_count
            )
            for task in plan.all_tasks():
                self._task_tenant[task.task_id] = tenant
        # Re-stamping a cached plan template is much cheaper for the driver
        # than planning from scratch (the analysis passes are skipped).
        per_task = (
            self.overheads.restamp_per_task
            if plan.from_cache
            else self.overheads.plan_per_task
        )
        planning_time = per_task * plan.task_count

        def _deliver() -> None:
            for worker_id, tasks in plan.tasks_by_worker.items():
                worker = self.workers[worker_id]
                self.rpc.call(worker_id, lambda w=worker, t=tasks: w.submit(t))

        self.driver_plan.request(planning_time, _deliver, label=plan.description or "plan")

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def run_until_idle(self) -> float:
        """Advance virtual time until every submitted task has completed.

        Device failures marked by the fault injector are recovered *at the
        quiescent point*: in-flight work drains to completion first, then the
        recovery handler (lineage replay + rehoming + forced redistribution,
        see :mod:`repro.runtime.recovery`) runs per failed device, and the
        loop resumes to drain the recovery's own plans.

        Raises :class:`~repro.errors.SimulationStalled` when the event queue
        drains while tasks are still outstanding (a latent deadlock),
        listing the stuck tasks and the resources they wait on.
        """
        while True:
            self.engine.run()
            injector = self.fault_injector
            if (
                injector is not None
                and injector.pending_failures
                and self.recovery_handler is not None
            ):
                for device in injector.take_pending_failures():
                    self.recovery_handler(device)
                continue
            if self._outstanding > 0:
                details = "\n".join(
                    w.scheduler.describe_stuck() for w in self.workers
                )
                raise SimulationStalled(
                    f"simulation stalled: the event queue drained with "
                    f"{self._outstanding} tasks still outstanding (latent "
                    f"deadlock)\n{details}"
                )
            return self.engine.now

    @property
    def virtual_time(self) -> float:
        """Current simulated time in seconds."""
        return self.engine.now

    # ------------------------------------------------------------------ #
    # compressed disk tier
    # ------------------------------------------------------------------ #
    def enable_disk_model(self, model) -> None:
        """Switch every worker's disk tier to the compressed model.

        ``model`` is a :class:`~repro.perfmodel.compression.CompressionModel`
        (deterministic per-chunk ratios).  Must be called before any chunk is
        spilled: flipping the model mid-run would let a chunk be written at
        one size and read back at another.
        """
        self.disk_model = model
        for worker in self.workers:
            worker.memory.disk_model = model

    # ------------------------------------------------------------------ #
    # statistics
    # ------------------------------------------------------------------ #
    def stats(self) -> RuntimeStats:
        """Aggregate :class:`RuntimeStats` over the engine, workers and fabric."""
        stats = RuntimeStats(virtual_time=self.engine.now)
        stats.control_messages = self.rpc.control_messages
        stats.plan_cache_hits = self.plan_cache_hits
        stats.plan_cache_misses = self.plan_cache_misses
        stats.network_bytes = self.fabric.bytes_delivered
        stats.network_messages = self.fabric.messages_delivered
        stats.events_processed = self.engine.events_processed
        stats.events_cancelled = self.engine.events_cancelled
        if self.fault_injector is not None:
            injector = self.fault_injector
            stats.transfer_faults_injected = injector.transfer_faults_injected
            stats.transfers_retried = injector.transfers_retried
            stats.transfers_failed_permanently = injector.transfers_failed_permanently
            stats.link_degradations = injector.degradations_applied
        stats.devices_failed = self.devices_failed
        stats.chunks_lost = self.chunks_lost
        stats.replicas_promoted = self.replicas_promoted
        stats.tasks_replayed = self.tasks_replayed
        stats.redistributes_forced = self.redistributes_forced
        stats.checkpoints_written = self.checkpoints_written
        stats.chunks_checkpointed = self.chunks_checkpointed
        stats.checkpoint_bytes_raw = self.checkpoint_bytes_raw
        stats.checkpoint_bytes_stored = self.checkpoint_bytes_stored
        stats.chunks_restored = self.chunks_restored
        if self.lineage is not None:
            stats.durable_chunks_loaded = self.lineage.durable_chunks_loaded
        stats.resource_events[self.driver_plan.name] = self.driver_plan.events_processed
        for worker in self.workers:
            stats.tasks_completed += worker.scheduler.tasks_completed
            stats.kernel_launches += worker.executor.kernel_launches
            stats.memory[worker.worker_id] = worker.memory.stats
            stats.chunks_preevicted += worker.memory.stats.chunks_preevicted
            stats.prefetch_promotions += worker.memory.stats.prefetch_promotions
            stats.staging_stalls += worker.memory.stats.staging_stalls
            stats.staging_stalls_avoided += worker.memory.stats.staging_stalls_avoided
            stats.disk_stored_bytes_written += worker.memory.stats.disk_stored_bytes_written
            stats.disk_stored_bytes_read += worker.memory.stats.disk_stored_bytes_read
            for resource in worker.resources.all_resources():
                stats.resource_events[resource.name] = resource.events_processed
        if self.trace is not None:
            stats.resource_busy = self.trace.summary()
        return stats

    def register_kernel(self, name: str, kernel: object) -> None:
        """Register a compiled kernel under its name for every worker."""
        if name in self.kernel_registry:
            raise ValueError(f"kernel {name!r} already registered")
        self.kernel_registry[name] = kernel

    # ------------------------------------------------------------------ #
    # multi-tenant serving (see repro.runtime.serving)
    # ------------------------------------------------------------------ #
    def tenant_outstanding(self, tenant: int) -> int:
        """Submitted-but-unfinished task count for one tenant."""
        return self._tenant_outstanding.get(tenant, 0)

    def set_tenant_quota(self, tenant: int, fraction: float) -> None:
        """Cap ``tenant`` at ``fraction`` of every memory space's capacity.

        The quota is *soft* (work-conserving): a tenant may exceed it while
        capacity is idle, but its overage above the quota is fair game for
        eviction when another tenant needs room — and a tenant within its
        quota can never have its working set evicted by a rival's pressure.
        """
        for worker in self.workers:
            worker.memory.set_tenant_quota(tenant, fraction)

    def tenant_counters(self) -> Dict[int, Dict[str, int]]:
        """Per-tenant counters (kept out of :class:`RuntimeStats`, whose dict
        form is compared exactly against committed single-tenant baselines)."""
        tenants = sorted(
            set(self.tenant_plans_submitted) | set(self.tenant_tasks_submitted)
        )
        return {
            tenant: {
                "plans_submitted": self.tenant_plans_submitted.get(tenant, 0),
                "tasks_submitted": self.tenant_tasks_submitted.get(tenant, 0),
                "tasks_completed": self.tenant_tasks_completed.get(tenant, 0),
                "outstanding": self._tenant_outstanding.get(tenant, 0),
            }
            for tenant in tenants
        }
