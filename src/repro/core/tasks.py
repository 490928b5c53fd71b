"""Task types of the execution plan (Sec. 2.4, Fig. 4).

The planner translates every distributed kernel launch into a DAG of tasks per
worker.  Task types mirror the paper: *execute a kernel* on one GPU
(:class:`LaunchTask`), *create/delete a chunk*, *copy data between chunks*
(same node, possibly different GPUs), *send/recv chunks between nodes*,
*reduce* partial results and *combine* (join) nodes.  Two extra task types are
needed because this reproduction also materialises data: :class:`FillTask`
initialises chunks (zeros/ones/from_numpy) and :class:`DownloadTask` returns
chunk contents to the driver when the application gathers an array.

A :class:`LaunchTask` runs one superblock of one *or more* launches: the
launch window fuses a chain of launches into one task per superblock, and a
plain launch is the one-segment case.  Each task type says what it stages
(:meth:`Task.chunk_requirements`), what it may modify
(:meth:`Task.chunk_writes`) and what it does to chunk data
(:meth:`Task.apply`), once.  Create, delete and combine tasks are
*bookkeeping* (:attr:`Task.bookkeeping`): the scheduler applies them itself.

Tasks reference each other by id through ``deps``; dependencies may point at
tasks from previously submitted plans (the scheduler treats dependencies on
already-finished tasks as satisfied), which is how the planner stitches many
small DAGs into one large DAG across kernel launches.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import ClassVar, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..hardware.topology import DeviceId, MemorySpace, WorkerId
from .chunk import ChunkId, ChunkMeta
from .distributions import Superblock
from .geometry import Region
from .reductions import get_reduce_op
from .types import ArrayView, LaunchContext

__all__ = [
    "TaskId",
    "Task",
    "CreateChunkTask",
    "DeleteChunkTask",
    "FillTask",
    "LaunchTask",
    "ReduceEpilogue",
    "ArrayArgBinding",
    "CopyTask",
    "SendTask",
    "RecvTask",
    "ReduceTask",
    "CombineTask",
    "DownloadTask",
    "MemoryReserveTask",
    "PromoteChunkTask",
    "ExecutionPlan",
    "TaskIdAllocator",
]

TaskId = int


class TaskIdAllocator:
    """Monotonically increasing task identifiers (one sequence per context)."""

    def __init__(self) -> None:
        self._counter = itertools.count(1)

    def next_id(self) -> TaskId:
        """A fresh, monotonically increasing task id."""
        return next(self._counter)


@dataclass
class Task:
    """Base task: identity, executing worker and dependencies."""

    task_id: TaskId
    worker: WorkerId
    deps: Tuple[TaskId, ...] = ()
    label: str = ""

    #: Lower-case task-kind name (``"launch"``, ``"copy"``, ...).  Computed
    #: once per class in ``__init_subclass__`` — the scheduler interpolates it
    #: into a label for every task, so a per-access property is measurable.
    kind: ClassVar[str] = ""
    #: True for kinds that stage nothing and occupy no resource: the worker's
    #: scheduler applies and completes them the moment they are ready.
    bookkeeping: ClassVar[bool] = False

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls.kind = cls.__name__.replace("Task", "").lower()

    def chunk_requirements(self) -> Sequence[Tuple[ChunkId, str]]:
        """Chunks this task touches and the memory kind they must be staged in.

        Returns pairs ``(chunk_id, "gpu"|"host")``; the memory manager
        materialises every listed chunk before the task runs.
        """
        return ()

    def chunk_writes(self) -> Sequence[ChunkId]:
        """Ids of the staged chunks whose contents this task may modify.

        The memory manager drops a chunk's retained disk copy when a writer
        stages it.  The default is every staged chunk, so a task type that
        does not say what it writes is treated as writing all it touches.
        """
        return tuple(chunk_id for chunk_id, _ in self.chunk_requirements())

    def apply(self, storage, kernels) -> None:
        """Apply this task's effect on chunk data to ``storage``.

        ``storage`` is a :class:`~repro.runtime.storage.ChunkStorage` that
        holds every chunk the task touches, and ``kernels`` maps kernel names
        to compiled kernels.  The worker's executor calls this in functional
        mode, and lineage replay calls it against a scratch storage, so both
        share one definition of what each task does to the data.  The
        default is no effect on chunk contents.
        """

    def __str__(self) -> str:
        return f"{self.kind}#{self.task_id}@w{self.worker}"


@dataclass
class CreateChunkTask(Task):
    """Register (and in functional mode allocate) a chunk on its home worker.

    ``value`` (when given) is the constant every element starts as: the
    planner creates reduction temporaries holding their operator's identity,
    exact in the chunk's dtype.  It stands for a device memset, which, like
    the allocation itself, the model charges nothing.
    """

    bookkeeping: ClassVar[bool] = True
    chunk: ChunkMeta = None  # type: ignore[assignment]
    value: Optional[np.generic] = None

    def apply(self, storage, kernels) -> None:
        """Register the chunk, holding ``value`` (zeros without one) when
        storage holds buffers."""
        storage.create(self.chunk, self.value)


@dataclass
class DeleteChunkTask(Task):
    """Drop a chunk's data and bookkeeping."""

    bookkeeping: ClassVar[bool] = True
    chunk_id: ChunkId = 0


@dataclass
class FillTask(Task):
    """Initialise a chunk, either with a constant or with explicit data.

    ``data`` (when given) is the slice of the source NumPy array corresponding
    to the chunk's region; it is ``None`` in simulate-only mode.
    """

    chunk_id: ChunkId = 0
    value: Optional[float] = None
    data: Optional[np.ndarray] = None
    nbytes: int = 0

    def chunk_requirements(self):
        """The filled chunk, materialised in host memory."""
        return ((self.chunk_id, "host"),)

    def chunk_writes(self):
        """The filled chunk."""
        return (self.chunk_id,)

    def apply(self, storage, kernels) -> None:
        """Write the constant or the explicit data into the chunk."""
        storage.fill(self.chunk_id, self.value, self.data)


@dataclass(frozen=True)
class ArrayArgBinding:
    """Binding of one kernel array parameter for one superblock."""

    param: str
    chunk_id: ChunkId
    access_region: Region
    mode: str  # 'read' | 'write' | 'readwrite' | 'reduce'
    reduce_op: Optional[str] = None

    @property
    def writes(self) -> bool:
        """True when the kernel may modify the bound chunk: its view is
        writable, and :meth:`Task.chunk_writes` reports the chunk."""
        return self.mode in ("write", "readwrite", "reduce")


@dataclass(frozen=True)
class ReduceEpilogue:
    """One in-task partial-reduction combine of a launch segment.

    The chain-fusion pass emits these for a *reduction tail*: after the tail
    segment has accumulated into its superblock partial chunk, the launch
    task itself combines the partial into the per-device accumulator (``op``
    over ``region``), so no separate per-superblock :class:`ReduceTask` is
    needed — only the cross-superblock merge remains as ordinary tasks.
    """

    src_chunk: ChunkId
    dst_chunk: ChunkId
    region: Region
    op: str = "+"
    nbytes: int = 0


@dataclass
class LaunchTask(Task):
    """Execute one superblock of one or more kernel launches back to back.

    A plain launch is the one-segment case.  The launch-window fusion pass
    merges a *chain* of back-to-back launches whose producer/consumer access
    regions are superblock-contained into one task per superblock: the
    segments run sequentially on the same device, reading earlier segments'
    outputs in place, and pay the fixed launch overhead once.  Parallel
    tuples hold one entry per segment.  ``superblocks_list`` carries each
    segment's own superblock (segments fused across *compatible* work
    distributions keep their own thread regions).  ``reduce_epilogues`` is
    empty or holds per-segment in-task partial-reduction combines (a chain's
    reduction tail); see :class:`ReduceEpilogue`.
    """

    kernel_names: Tuple[str, ...] = ()
    device: DeviceId = None  # type: ignore[assignment]
    superblocks_list: Tuple[Superblock, ...] = ()
    grid_dims_list: Tuple[Tuple[int, ...], ...] = ()
    block_dims_list: Tuple[Tuple[int, ...], ...] = ()
    scalar_args_list: Tuple[Dict[str, object], ...] = ()
    array_args_list: Tuple[Tuple[ArrayArgBinding, ...], ...] = ()
    array_shapes_list: Tuple[Dict[str, Tuple[int, ...]], ...] = ()
    reduce_epilogues: Tuple[Tuple[ReduceEpilogue, ...], ...] = ()

    @property
    def segment_count(self) -> int:
        """Number of launch segments (1 for a plain launch)."""
        return len(self.kernel_names)

    def chunk_requirements(self):
        """Every segment's bound and epilogue chunks (deduplicated), on the GPU."""
        needed = {
            binding.chunk_id: (binding.chunk_id, "gpu")
            for bindings in self.array_args_list
            for binding in bindings
        }
        for epilogues in self.reduce_epilogues:
            for epilogue in epilogues:
                needed.setdefault(epilogue.src_chunk, (epilogue.src_chunk, "gpu"))
                needed.setdefault(epilogue.dst_chunk, (epilogue.dst_chunk, "gpu"))
        return tuple(needed.values())

    def chunk_writes(self):
        """Every segment's written bindings plus the epilogue destinations."""
        written = {
            binding.chunk_id
            for bindings in self.array_args_list
            for binding in bindings
            if binding.writes
        }
        for epilogues in self.reduce_epilogues:
            written.update(epilogue.dst_chunk for epilogue in epilogues)
        return tuple(written)

    def apply(self, storage, kernels) -> None:
        """Run every segment against ``storage``'s buffers, each followed by
        its reduce epilogues (``kernels`` maps kernel names to kernels)."""
        for segment, bindings in enumerate(self.array_args_list):
            shapes = self.array_shapes_list[segment]
            views: Dict[str, ArrayView] = {}
            for binding in bindings:
                views[binding.param] = ArrayView(
                    storage.buffer(binding.chunk_id),
                    storage.meta(binding.chunk_id).region,
                    shapes[binding.param],
                    access_region=binding.access_region,
                    writable=binding.writes,
                    name=binding.param,
                )
            superblock = self.superblocks_list[segment]
            launch_ctx = LaunchContext(
                grid_dims=self.grid_dims_list[segment],
                block_dims=self.block_dims_list[segment],
                thread_region=superblock.thread_region,
                block_offset=superblock.block_offset,
                superblock_index=superblock.index,
                device_name=str(self.device),
            )
            kernels[self.kernel_names[segment]].run_superblock(
                launch_ctx, self.scalar_args_list[segment], views
            )
            if self.reduce_epilogues:
                for epilogue in self.reduce_epilogues[segment]:
                    storage.combine_region(
                        epilogue.src_chunk, epilogue.dst_chunk, epilogue.region,
                        get_reduce_op(epilogue.op).combine,
                    )


@dataclass
class CopyTask(Task):
    """Copy ``region`` (global coordinates) from one chunk to another on the same worker."""

    src_chunk: ChunkId = 0
    dst_chunk: ChunkId = 0
    region: Region = None  # type: ignore[assignment]
    nbytes: int = 0
    src_device: Optional[DeviceId] = None
    dst_device: Optional[DeviceId] = None

    def chunk_requirements(self):
        """Both copy endpoints, materialised on the GPU."""
        return ((self.src_chunk, "gpu"), (self.dst_chunk, "gpu"))

    def chunk_writes(self):
        """The copy destination."""
        return (self.dst_chunk,)

    def apply(self, storage, kernels) -> None:
        """Copy the region from the source chunk into the destination."""
        storage.copy_region(self.src_chunk, self.dst_chunk, self.region)


@dataclass
class SendTask(Task):
    """Send ``region`` of a local chunk to another worker (MPI-style, matched by tag)."""

    chunk_id: ChunkId = 0
    region: Region = None  # type: ignore[assignment]
    dst_worker: WorkerId = 0
    tag: int = 0
    nbytes: int = 0

    def chunk_requirements(self):
        """The sent chunk, wherever it currently lives."""
        # The region is staged through host memory by the send itself (Sec. 3.2);
        # the chunk only has to be materialised wherever it currently lives.
        return ((self.chunk_id, "any"),)

    def chunk_writes(self):
        """Nothing: a send only reads its chunk."""
        return ()


@dataclass
class RecvTask(Task):
    """Receive ``region`` into a local chunk from another worker (matched by tag)."""

    chunk_id: ChunkId = 0
    region: Region = None  # type: ignore[assignment]
    src_worker: WorkerId = 0
    tag: int = 0
    nbytes: int = 0

    def chunk_requirements(self):
        """The receiving chunk, wherever it currently lives."""
        return ((self.chunk_id, "any"),)

    def chunk_writes(self):
        """The receiving chunk."""
        return (self.chunk_id,)


@dataclass
class ReduceTask(Task):
    """Combine ``region`` of a partial-result chunk into an accumulator chunk."""

    src_chunk: ChunkId = 0
    dst_chunk: ChunkId = 0
    region: Region = None  # type: ignore[assignment]
    op: str = "+"
    nbytes: int = 0

    def chunk_requirements(self):
        """Both reduce operands, materialised on the GPU."""
        return ((self.src_chunk, "gpu"), (self.dst_chunk, "gpu"))

    def chunk_writes(self):
        """The accumulator."""
        return (self.dst_chunk,)

    def apply(self, storage, kernels) -> None:
        """Combine the region of the partial into the accumulator."""
        storage.combine_region(
            self.src_chunk, self.dst_chunk, self.region, get_reduce_op(self.op).combine
        )


@dataclass
class CombineTask(Task):
    """Join node: no work, used to fan in dependencies (matches Fig. 4's 'combine')."""

    bookkeeping: ClassVar[bool] = True


@dataclass
class MemoryReserveTask(Task):
    """Apply one memory space's share of a launch-group memory plan.

    Emitted by the launch window's drain pass (see
    :mod:`repro.core.planning.memplan`): pre-evicts spill victims other
    than ``chunk_ids`` from ``space`` so ``nbytes`` of the drained group's
    working set can stage without reactive eviction.  Pure residency
    bookkeeping plus background write-back transfers; it never touches
    chunk contents.
    """

    space: MemorySpace = None  # type: ignore[assignment]
    chunk_ids: Tuple[ChunkId, ...] = ()
    nbytes: int = 0


@dataclass
class PromoteChunkTask(Task):
    """Pull one spilled chunk back up the memory hierarchy ahead of its use.

    Emitted by the window's hierarchy-aware prefetch pass for a later
    launch's same-worker gather source or direct binding whose chunk
    currently lives in host or disk memory: staging the chunk to its home
    GPU through the normal staging machinery starts the up-hierarchy
    transfers early, overlapped with the current launch's compute, and is
    throttled by the same per-device staging budget as every other task.
    When that budget is full, the worker's scheduler stages a backlogged
    promotion before the oldest backlogged task.
    """

    chunk_id: ChunkId = 0
    device: DeviceId = None  # type: ignore[assignment]
    nbytes: int = 0
    #: promotion level: ``"gpu"`` pulls the chunk all the way to its home
    #: GPU; ``"host"`` stages a disk-resident chunk into host memory only —
    #: the window plans these when the GPU space is overflowing, so the
    #: consumer's reactive staging pays one PCIe hop instead of the full
    #: disk→host→GPU chain
    target: str = "gpu"

    def chunk_requirements(self):
        """The promoted chunk, staged to its target level of the hierarchy."""
        return ((self.chunk_id, self.target),)

    def chunk_writes(self):
        """Nothing: a promotion only moves its chunk."""
        return ()


@dataclass
class DownloadTask(Task):
    """Return the contents of a chunk region to the driver (array gather)."""

    chunk_id: ChunkId = 0
    region: Region = None  # type: ignore[assignment]
    nbytes: int = 0

    def chunk_requirements(self):
        """The downloaded chunk, wherever it currently lives."""
        return ((self.chunk_id, "any"),)

    def chunk_writes(self):
        """Nothing: a download only reads its chunk."""
        return ()


@dataclass
class ExecutionPlan:
    """The per-worker DAGs produced by the planner for one driver operation."""

    tasks_by_worker: Dict[WorkerId, List[Task]] = field(default_factory=dict)
    launch_id: Optional[int] = None
    description: str = ""
    #: ``"hit"`` when the plan was re-stamped from a cached template,
    #: ``"miss"`` when planned cold with the cache enabled, ``None`` otherwise.
    cache_status: Optional[str] = None
    #: Owning tenant under multi-tenant serving (see
    #: :mod:`repro.runtime.serving`); ``None`` on the single-tenant path,
    #: where the runtime skips all per-tenant accounting.
    tenant: Optional[int] = None

    @property
    def from_cache(self) -> bool:
        """True when this plan was re-stamped from a cached template."""
        return self.cache_status == "hit"

    def add(self, task: Task) -> Task:
        """Append a task to its worker's DAG fragment."""
        self.tasks_by_worker.setdefault(task.worker, []).append(task)
        return task

    def all_tasks(self) -> List[Task]:
        """Every task of the plan, across workers."""
        return [task for tasks in self.tasks_by_worker.values() for task in tasks]

    @property
    def task_count(self) -> int:
        """Total tasks in the plan."""
        return sum(len(tasks) for tasks in self.tasks_by_worker.values())

    def workers(self) -> List[WorkerId]:
        """Workers with at least one task, sorted."""
        return sorted(self.tasks_by_worker)

    def validate(self) -> None:
        """Sanity-check the plan: unique ids and no dependency cycles inside the plan."""
        ids = [t.task_id for t in self.all_tasks()]
        if len(ids) != len(set(ids)):
            raise ValueError("duplicate task ids in execution plan")
        id_set = set(ids)
        # Kahn's algorithm restricted to intra-plan edges (external deps are
        # tasks from earlier plans and cannot form cycles with this one).
        indegree = {t.task_id: 0 for t in self.all_tasks()}
        edges: Dict[TaskId, List[TaskId]] = {t.task_id: [] for t in self.all_tasks()}
        for task in self.all_tasks():
            for dep in task.deps:
                if dep in id_set:
                    edges[dep].append(task.task_id)
                    indegree[task.task_id] += 1
        queue = [tid for tid, deg in indegree.items() if deg == 0]
        visited = 0
        while queue:
            tid = queue.pop()
            visited += 1
            for nxt in edges[tid]:
                indegree[nxt] -= 1
                if indegree[nxt] == 0:
                    queue.append(nxt)
        if visited != len(ids):
            raise ValueError("execution plan contains a dependency cycle")
