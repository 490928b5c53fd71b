"""Per-worker memory manager (Sec. 3.4).

Every worker tracks where each of its chunks currently lives (GPU memory, host
memory or disk) and how much of every memory space is in use.  Staging a task
means materialising all of the task's chunks in the memory spaces it needs —
allocating from pre-sized pools, evicting least-recently-used unpinned chunks
down the hierarchy when a pool is full (GPU → host → disk), and transferring
previously evicted data back.  All of a task's chunks are reserved in one
atomic action to prevent deadlocks, exactly as the paper describes.  Transfers
issued here occupy the PCIe/disk resources of the simulator, which is what
makes spilling visible in the measured run times.

The scheduler announces every submitted task's chunks (:meth:`announce`), so
the manager knows each chunk's *next use*: the earliest announced task that
has not staged it yet.  LRU order picks the victims; next use picks the level
a GPU victim enters.  It goes to host memory when there is room, or when
making room there would push down some chunk needed no sooner than the
victim; otherwise it skips host memory and drops straight to disk, so it
never displaces data that is needed before it (Belady's rule applied to
admission).

A chunk promoted out of the disk tier keeps its disk copy until a task that
writes the chunk stages it, so spilling the still-clean chunk again only
updates residency — from host memory or straight from a GPU.  Retained
copies count against the disk pool and are dropped, oldest first and at no
cost, when the pool needs their room.
"""

from __future__ import annotations

from collections import OrderedDict, defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.chunk import ChunkId, ChunkMeta
from ..errors import ArgumentValueError
from ..hardware.topology import MemoryKind, MemorySpace, Node
from .resources import WorkerResources

__all__ = [
    "MemoryManager",
    "OutOfMemoryError",
    "MemoryStats",
]


class OutOfMemoryError(RuntimeError):
    """A task's working set cannot fit in the requested memory space."""


#: next use of a chunk that no announced task will stage
_NEVER = float("inf")


@dataclass
class MemoryStats:
    """Counters exposed for tests, benchmarks and EXPERIMENTS.md."""

    bytes_to_gpu: int = 0
    #: bytes spilled out of a GPU over PCIe (a clean chunk dropping straight
    #: to its retained disk copy moves none)
    bytes_from_gpu: int = 0
    bytes_to_disk: int = 0
    bytes_from_disk: int = 0
    #: compressed (on-disk) bytes actually written/read by the disk tier;
    #: equal to ``bytes_to_disk``/``bytes_from_disk`` when the compression
    #: model is off, smaller when it is on (``Context(disk=True)``)
    disk_stored_bytes_written: int = 0
    disk_stored_bytes_read: int = 0
    evictions_to_host: int = 0
    evictions_to_disk: int = 0
    #: evictions to disk that wrote nothing: the chunk's retained disk copy
    #: was still clean (also counted in ``evictions_to_disk``)
    disk_writes_skipped: int = 0
    #: evictions performed reactively inside a staging transaction (the
    #: chunk-by-chunk spilling window-aware memory planning replaces)
    staging_evictions: int = 0
    #: victims spilled up front by :meth:`MemoryManager.reserve` (the window's
    #: planned pre-eviction; also counted in ``evictions_to_host/_disk``)
    chunks_preevicted: int = 0
    #: :class:`~repro.core.tasks.PromoteChunkTask` stagings that pulled a
    #: spilled chunk back up the hierarchy ahead of its use
    prefetch_promotions: int = 0
    #: stall events: staging transactions that could not complete instantly —
    #: either queued behind pinned chunks or blocked on incoming transfers
    staging_stalls: int = 0
    #: staging transactions that completed instantly *because* a window memory
    #: plan had already promoted their chunks
    staging_stalls_avoided: int = 0
    peak_gpu_bytes: Dict[int, int] = field(default_factory=dict)


@dataclass
class _ChunkState:
    meta: ChunkMeta
    space: Optional[MemorySpace] = None
    pins: int = 0
    #: True while the chunk is resident above the disk tier and the disk
    #: still holds a clean copy of its contents (bytes kept in the disk pool)
    disk_copy: bool = False


@dataclass
class _Block:
    """Why a staging attempt failed.  The request's :meth:`~MemoryManager.room`
    in ``space`` never exceeds ``capacity - pinned - own`` (``own``: its
    unpinned bytes there), and ``limit = capacity - own - needed``; so while
    each required chunk still matches ``snapshot`` and more than ``limit``
    bytes of ``space`` are pinned, a retry must fail."""

    space: MemorySpace
    limit: int
    #: ``(state, space, meta, pins == 0)`` of each required chunk
    snapshot: Tuple[Tuple[_ChunkState, Optional[MemorySpace], ChunkMeta, bool], ...]

    def holds(self, chunks: Dict[ChunkId, _ChunkState], pinned: Dict[MemorySpace, int]) -> bool:
        """True when a retry of the blocked request is certain to fail."""
        if pinned[self.space] <= self.limit:
            return False
        for state, space, meta, unpinned in self.snapshot:
            if (chunks.get(meta.chunk_id) is not state or state.space is not space
                    or state.meta is not meta or (state.pins == 0) != unpinned):
                return False
        return True


@dataclass
class _PendingStage:
    task_id: int
    requirements: List[Tuple[ChunkId, str]]
    callback: Callable[[], None]
    background: bool
    writes: Optional[Callable[[], Sequence[ChunkId]]]
    block: _Block  # why the last attempt failed


class MemoryManager:
    """Tracks residency, allocation and spilling of one worker's chunks."""

    def __init__(
        self,
        node: Node,
        resources: WorkerResources,
        capacities: Optional[Dict[MemorySpace, int]] = None,
        chunk_tenants: Optional[Dict[ChunkId, int]] = None,
    ):
        self.node = node
        self.worker = node.worker
        self.resources = resources
        self._chunks: Dict[ChunkId, _ChunkState] = {}
        self._staged: Dict[int, List[ChunkId]] = {}
        self._pending: List[_PendingStage] = []
        self.stats = MemoryStats()
        #: chunks a window memory plan promoted; consumed (once) by the
        #: stall-avoidance accounting in :meth:`_try_stage`
        self._prepared: set = set()
        #: True while :meth:`reserve` runs, so evictions are attributed to the
        #: planned pre-eviction counter instead of the staging-time one
        self._in_reserve = False
        #: Multi-tenant serving: chunk id -> tenant id, *shared* with the
        #: runtime (contexts tag their chunks there).  Empty — and every
        #: tenant branch below is a single falsy-dict test — on the
        #: single-tenant path.
        self._tenants: Dict[ChunkId, int] = (
            chunk_tenants if chunk_tenants is not None else {}
        )
        #: tenant id -> soft quota as a fraction of each space's capacity
        self._tenant_quota: Dict[int, float] = {}
        #: (tenant, space) -> resident / pinned bytes, maintained alongside
        #: the per-space counters so quota checks never scan chunks
        self._tenant_used: Dict[Tuple[int, MemorySpace], int] = defaultdict(int)
        self._tenant_pinned: Dict[Tuple[int, MemorySpace], int] = defaultdict(int)
        #: tenant id -> outstanding tasks, *shared* with the runtime (which
        #: counts them): a quota protects residency only while its tenant
        #: has work
        self.tenant_outstanding: Dict[int, int] = {}
        #: Compressed disk tier (set by ``RuntimeSystem(disk=True)`` before
        #: any chunk exists): a
        #: :class:`~repro.perfmodel.compression.CompressionModel` sampling a
        #: deterministic per-chunk compression ratio.  When set, disk
        #: transfers charge *compressed* bytes on the per-direction disk
        #: lanes plus the raw bytes on the host codec lanes; when ``None``
        #: (the default) the legacy symmetric ``disk`` link is used and
        #: behaviour is bit-identical to pre-disk-tier baselines.
        self.disk_model = None

        self._capacity: Dict[MemorySpace, int] = {}
        self._used: Dict[MemorySpace, int] = {}
        #: Bytes of currently pinned chunks per space, maintained on
        #: pin/unpin/move so eviction feasibility checks never scan all chunks.
        self._pinned: Dict[MemorySpace, int] = {}
        #: LRU index of resident chunks per space.  Front = least recently
        #: used.  ``_touch`` moves a chunk to the back; chunks arriving by
        #: eviction (old data pushed down the hierarchy, not a use) enter at
        #: the front so they remain first in line for the next spill level.
        self._lru: Dict[MemorySpace, "OrderedDict[ChunkId, _ChunkState]"] = {}
        #: chunks with a retained disk copy (``_ChunkState.disk_copy``), oldest
        #: copy first: the order in which a full disk pool drops them
        self._disk_copies: "OrderedDict[ChunkId, _ChunkState]" = OrderedDict()
        #: Next-use index: chunk id -> ids of the announced tasks that will
        #: stage the chunk and have not yet, in announcement order.  The
        #: first is the chunk's next use; a chunk without an entry is never
        #: used again as far as this worker knows.
        self._uses: Dict[ChunkId, List[int]] = {}
        #: this worker's host and disk spaces, interned once — staging looks
        #: them up on its hot path and must not construct a space per call
        self._host_space = node.host_space
        self._disk_space = node.disk_space
        spaces = [dev.memory_space for dev in node.devices]
        spaces += [self._host_space, self._disk_space]
        for space in spaces:
            if capacities and space in capacities:
                cap = capacities[space]
            elif space.kind is MemoryKind.GPU:
                cap = node.spec.gpus[space.device_index].memory_bytes
            elif space.kind is MemoryKind.HOST:
                cap = node.spec.host_memory_bytes
            else:
                cap = node.spec.disk.capacity_bytes
            self._capacity[space] = cap
            self._used[space] = 0
            self._pinned[space] = 0
            self._lru[space] = OrderedDict()

    # ------------------------------------------------------------------ #
    # chunk lifecycle
    # ------------------------------------------------------------------ #
    def register(self, chunk: ChunkMeta) -> None:
        """Make a chunk's metadata known to the manager (no space is allocated yet)."""
        if chunk.chunk_id in self._chunks:
            raise ValueError(f"chunk {chunk.chunk_id} already registered")
        self._chunks[chunk.chunk_id] = _ChunkState(meta=chunk)

    def delete(self, chunk_id: ChunkId) -> None:
        """Forget a chunk and free its residency bookkeeping; pinned chunks refuse."""
        state = self._chunks.pop(chunk_id, None)
        if state is None:
            return
        if state.pins:
            self._chunks[chunk_id] = state
            raise RuntimeError(f"cannot delete pinned chunk {chunk_id}")
        if state.space is not None:
            self._used[state.space] -= state.meta.nbytes
            del self._lru[state.space][chunk_id]
            if self._tenants:
                tenant = self._tenants.get(chunk_id)
                if tenant is not None:
                    self._tenant_used[(tenant, state.space)] -= state.meta.nbytes
        if state.disk_copy:
            self._drop_disk_copy(state)
        self._prepared.discard(chunk_id)
        self._uses.pop(chunk_id, None)

    def knows(self, chunk_id: ChunkId) -> bool:
        """True when the chunk has been registered with this manager."""
        return chunk_id in self._chunks

    # ------------------------------------------------------------------ #
    # device failure (fault tolerance)
    # ------------------------------------------------------------------ #
    def mark_device_failed(self, device) -> Tuple[List[ChunkId], List[ChunkId]]:
        """Account for the permanent failure of one local GPU.

        Returns ``(lost, surviving)``:

        * ``lost`` — chunks *resident* in the dead GPU's memory space; their
          contents are gone and must be rematerialized by lineage replay.
          Their residency is moved to host memory (where replay rebuilds
          them) without issuing transfers — recovery charges its own lump
          costs instead.  A retained disk copy stays: nothing has written
          the chunk since that copy was made.
        * ``surviving`` — chunks homed on the dead device whose data had been
          spilled to host or disk; the spilled replica is promoted (the data
          is intact), only the chunk's home needs retargeting.
        """
        dead = device.memory_space
        host = self._host_space
        lost: List[ChunkId] = []
        surviving: List[ChunkId] = []
        for chunk_id, state in self._chunks.items():
            if state.space == dead:
                lost.append(chunk_id)
            elif state.meta.home == device:
                surviving.append(chunk_id)
        for chunk_id in lost:
            state = self._chunks[chunk_id]
            nbytes = state.meta.nbytes
            self._used[dead] -= nbytes
            del self._lru[dead][chunk_id]
            if state.pins:  # quiescent point: defensive, nothing should be pinned
                self._pinned[dead] -= nbytes
                self._pinned[host] += nbytes
            self._used[host] += nbytes
            self._lru[host][chunk_id] = state
            state.space = host
            if self._tenants:
                tenant = self._tenants.get(chunk_id)
                if tenant is not None:
                    self._tenant_used[(tenant, dead)] -= nbytes
                    self._tenant_used[(tenant, host)] += nbytes
                    if state.pins:
                        self._tenant_pinned[(tenant, dead)] -= nbytes
                        self._tenant_pinned[(tenant, host)] += nbytes
            self._prepared.discard(chunk_id)
        return lost, surviving

    def retarget_home(self, chunk_id: ChunkId, new_meta: ChunkMeta) -> None:
        """Swap a chunk's metadata after recovery rehomed it on this worker."""
        self._chunks[chunk_id].meta = new_meta

    def adopt_resident(self, chunk: ChunkMeta) -> None:
        """Register a chunk whose data already sits in this worker's host
        memory (cross-worker recovery rehoming)."""
        self.register(chunk)
        state = self._chunks[chunk.chunk_id]
        host = self._host_space
        state.space = host
        self._used[host] += chunk.nbytes
        self._lru[host][chunk.chunk_id] = state
        if self._tenants:
            tenant = self._tenants.get(chunk.chunk_id)
            if tenant is not None:
                self._tenant_used[(tenant, host)] += chunk.nbytes

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def home_of(self, chunk_id: ChunkId):
        """Home device of a registered chunk, or ``None`` when unknown.

        The home is where the data distribution assigned the chunk; the chunk
        may currently be spilled elsewhere (see :meth:`residency`).
        """
        state = self._chunks.get(chunk_id)
        return state.meta.home if state is not None else None

    def residency(self, chunk_id: ChunkId) -> Optional[MemorySpace]:
        """The memory space the chunk currently lives in, or ``None`` if nowhere."""
        return self._chunks[chunk_id].space

    def used_bytes(self, space: MemorySpace) -> int:
        """Bytes currently resident in ``space``."""
        return self._used[space]

    def capacity(self, space: MemorySpace) -> int:
        """Configured pool size of ``space`` in bytes."""
        return self._capacity[space]

    def free_bytes(self, space: MemorySpace) -> int:
        """Unused bytes of ``space`` (capacity minus resident bytes)."""
        return self._capacity[space] - self._used[space]

    def pinned_bytes(self, space: MemorySpace) -> int:
        """Bytes of currently pinned (unevictable) chunks in ``space``."""
        return self._pinned[space]

    def room(
        self, space: MemorySpace, nbytes: int, protect=frozenset(), requester=None
    ) -> int:
        """Free bytes of ``space`` once :meth:`_make_room` has made room for
        ``nbytes`` with the same ``protect`` and ``requester``: at least
        ``nbytes`` when it can, else what is free plus all it may evict.
        The answer comes from the eviction's own walk (:meth:`_victims`), so
        a request this admits, eviction delivers.  ``space`` is a GPU or the
        host space: the disk tier has no lower level to evict to."""
        free = self._capacity[space] - self._used[space]
        if nbytes <= free:
            return free
        victims = self._victims(space, nbytes - free, protect, requester)
        return free + sum(state.meta.nbytes for state in victims)

    def lru_order(self, space: MemorySpace) -> List[ChunkId]:
        """Resident chunks of ``space``, least recently used first."""
        return list(self._lru[space])

    def disk_copies(self) -> List[ChunkId]:
        """Chunks resident above disk with a retained clean disk copy, oldest
        copy first (their bytes count in ``used_bytes`` of the disk space)."""
        return list(self._disk_copies)

    def next_use(self, chunk_id: ChunkId) -> float:
        """Id of the earliest announced task that has not staged the chunk
        yet, or ``inf`` when no announced task will."""
        uses = self._uses.get(chunk_id)
        return uses[0] if uses else _NEVER

    # ------------------------------------------------------------------ #
    # tenant quotas (multi-tenant serving)
    # ------------------------------------------------------------------ #
    def set_tenant_quota(self, tenant: int, fraction: float) -> None:
        """Cap ``tenant`` at ``fraction`` of every space's capacity (soft).

        The quota is work-conserving: the tenant may exceed it while room is
        free, but only its *overage* above the quota may be evicted to make
        room for another tenant.  While the tenant has outstanding tasks
        (:attr:`tenant_outstanding`), residency within the quota is protected
        from foreign eviction pressure exactly like a pin (without being
        pinned from the tenant's own point of view); an idle tenant's
        unpinned residency is anyone's room.
        """
        if not 0.0 < fraction <= 1.0:
            raise ArgumentValueError(
                f"quota fraction must be in (0, 1], got {fraction}"
            )
        self._tenant_quota[tenant] = fraction

    def tenant_used_bytes(self, tenant: int, space: MemorySpace) -> int:
        """Bytes of ``tenant``'s chunks currently resident in ``space``."""
        return self._tenant_used.get((tenant, space), 0)

    def tenant_went_idle(self, tenant: int) -> None:
        """``tenant``'s last outstanding task finished, so its quota no
        longer protects its residency: retry the queued requests that room
        may now admit (no unstage announces it)."""
        if tenant in self._tenant_quota:
            self.release()

    def _tenant_evictable(self, tenant: int, space: MemorySpace) -> int:
        """Bytes a *rival* tenant may evict from ``tenant`` in ``space``:
        the overage above whichever is larger, the pinned set or — while
        ``tenant`` has outstanding tasks — its quota."""
        used = self._tenant_used.get((tenant, space), 0)
        if not used:
            return 0
        pinned = self._tenant_pinned.get((tenant, space), 0)
        quota = 0
        if self.tenant_outstanding.get(tenant):
            quota = int(self._tenant_quota[tenant] * self._capacity[space])
        return used - max(pinned, min(used, quota))

    def _requester_of(self, chunk_ids):
        """The tenant staging ``chunk_ids`` (first tagged chunk wins)."""
        if not self._tenants:
            return None
        for chunk_id in chunk_ids:
            tenant = self._tenants.get(chunk_id)
            if tenant is not None:
                return tenant
        return None

    # ------------------------------------------------------------------ #
    # staging
    # ------------------------------------------------------------------ #
    def announce(self, task_id: int, requirements: Sequence[Tuple[ChunkId, str]]) -> None:
        """Record that ``task_id`` will stage ``requirements``.

        The scheduler announces each task when it is submitted, long before
        it is ready; the task's staging commit consumes the announcement.
        Until then the task is a pending use of each chunk, and the earliest
        pending use is the chunk's :meth:`next_use`.
        """
        uses = self._uses
        for chunk_id, _ in requirements:
            pending = uses.get(chunk_id)
            if pending is None:
                uses[chunk_id] = [task_id]
            else:
                pending.append(task_id)

    def _consume(self, task_id: int, requirements: Sequence[Tuple[ChunkId, str]]) -> None:
        """Drop ``task_id``'s announced uses: its staging commits now."""
        uses = self._uses
        for chunk_id, _ in requirements:
            pending = uses.get(chunk_id)
            if pending is not None and task_id in pending:
                pending.remove(task_id)
                if not pending:
                    del uses[chunk_id]

    def _target_space(self, state: _ChunkState, kind: str) -> MemorySpace:
        if kind == "gpu":
            return state.meta.home.memory_space
        if kind == "host":
            return self._host_space
        if kind == "any":
            # Materialised wherever it currently is; unallocated chunks start
            # in host memory (matching the behaviour of a fresh upload).
            if state.space is not None:
                return state.space
            return self._host_space
        raise ValueError(f"unknown staging kind {kind!r}")

    def footprint(self, requirements: List[Tuple[ChunkId, str]]) -> int:
        """Total bytes of the chunks named in ``requirements``."""
        return sum(self._chunks[cid].meta.nbytes for cid, _ in requirements)

    def staging_bytes_needed(self, requirements: List[Tuple[ChunkId, str]]) -> int:
        """Bytes that staging ``requirements`` would actually have to move.

        Chunks already resident in the memory space a task needs cost nothing;
        everything else must be transferred (from host, another space, or be
        allocated fresh).  Locality-aware scheduling policies use this to
        prefer tasks whose working set is already in place.
        """
        total = 0
        for chunk_id, kind in requirements:
            state = self._chunks.get(chunk_id)
            if state is None:
                continue
            target = self._target_space(state, kind)
            if state.space != target:
                total += state.meta.nbytes
        return total

    def stage(
        self,
        task_id: int,
        requirements: List[Tuple[ChunkId, str]],
        callback: Callable[[], None],
        background: bool = False,
        writes: Optional[Callable[[], Sequence[ChunkId]]] = None,
    ) -> None:
        """Materialise and pin every required chunk, then invoke ``callback``.

        If the request cannot be satisfied right now because pinned chunks
        occupy the space, it is queued and retried when something unstages.
        If it can never be satisfied, :class:`OutOfMemoryError` is raised.
        ``background`` marks stagings issued ahead of any use (the window's
        promotion prefetch): their transfers delay no task, so they do not
        count as stall events, and the chunks they materialise are remembered
        so the stall they avoid later can be credited to the memory plan.
        ``writes`` returns the ids of the chunks the task modifies (its
        :meth:`~repro.core.tasks.Task.chunk_writes`); their retained disk
        copies are dropped when the request commits.  It is only called
        while some staged chunk has a retained disk copy, so runs that never
        spill to disk never compute a write set.  ``None`` counts every
        staged chunk as written.
        """
        block = self._try_stage(
            task_id, requirements, callback, background=background, writes=writes
        )
        if block is not None:
            if not background:
                self.stats.staging_stalls += 1
            self._pending.append(
                _PendingStage(task_id, requirements, callback, background, writes, block)
            )

    def unstage(self, task_id: int) -> None:
        """Release the pins taken by :meth:`stage` for ``task_id``."""
        for chunk_id in self._staged.pop(task_id, []):
            state = self._chunks.get(chunk_id)
            if state is not None:
                self._unpin(state)
        self.release()

    def release(self) -> None:
        """Release the queued staging requests that room freed since their
        last attempt admits: retry them in FIFO order.  One whose block holds
        would fail again, without side effects, so it stays queued untried."""
        still_pending: List[_PendingStage] = []
        chunks, pinned = self._chunks, self._pinned
        for pending in self._pending:
            if not pending.block.holds(chunks, pinned):
                block = self._try_stage(
                    pending.task_id, pending.requirements, pending.callback,
                    background=pending.background, retry=True, writes=pending.writes,
                )
                if block is None:
                    continue
                pending.block = block
            still_pending.append(pending)
        self._pending = still_pending

    # ------------------------------------------------------------------ #
    # the staging transaction
    # ------------------------------------------------------------------ #
    def _try_stage(
        self,
        task_id: int,
        requirements: List[Tuple[ChunkId, str]],
        callback: Callable[[], None],
        background: bool = False,
        retry: bool = False,
        writes: Optional[Callable[[], Sequence[ChunkId]]] = None,
    ) -> Optional[_Block]:
        """Commit the request atomically and return ``None``, or change
        nothing and return the :class:`_Block` it must wait on."""
        # Fast path: a single already-resident requirement (sends, recvs and
        # most copies) needs no capacity checks, no transfers and no per-space
        # accounting — just touch, pin and fire.  Accounting is identical to
        # the general path specialised to one resident chunk.
        if len(requirements) == 1:
            chunk_id, kind = requirements[0]
            state = self._chunks[chunk_id]
            if kind == "gpu":
                target = state.meta.home.memory_space
            elif kind == "host":
                target = self._host_space
            else:
                target = self._target_space(state, kind)
            space = state.space
            if space is target or space == target:
                if self._uses:
                    self._consume(task_id, requirements)
                self._touch(state)
                self._pin(state)
                if state.disk_copy and (writes is None or chunk_id in writes()):
                    self._drop_disk_copy(state)
                staged_list = self._staged.get(task_id)
                if staged_list is None:
                    self._staged[task_id] = [chunk_id]
                else:
                    staged_list.append(chunk_id)
                if background:
                    self._prepared.add(chunk_id)
                elif chunk_id in self._prepared:
                    if not retry:
                        self.stats.staging_stalls_avoided += 1
                    self._prepared.discard(chunk_id)
                callback()
                return None

        # Resolve targets and verify feasibility per memory space.  The two
        # common kinds are dispatched inline (interned spaces, so the
        # residency comparison is usually an identity hit).
        plan: List[Tuple[_ChunkState, MemorySpace]] = []
        needed: Dict[MemorySpace, int] = {}
        working_set: Dict[MemorySpace, int] = {}
        plan_ids = {chunk_id for chunk_id, _ in requirements}
        chunks = self._chunks
        for chunk_id, kind in requirements:
            state = chunks[chunk_id]
            if kind == "gpu":
                target = state.meta.home.memory_space
            elif kind == "host":
                target = self._host_space
            else:
                target = self._target_space(state, kind)
            plan.append((state, target))
            nbytes = state.meta.nbytes
            working_set[target] = working_set.get(target, 0) + nbytes
            space = state.space
            if space is not target and space != target:
                needed[target] = needed.get(target, 0) + nbytes

        # The task's whole working set (chunks to bring in *and* chunks that
        # are already resident but will be pinned) must fit simultaneously;
        # otherwise no amount of waiting or eviction can ever run this task.
        for space, nbytes in working_set.items():
            if nbytes > self._capacity[space]:
                raise OutOfMemoryError(
                    f"task {task_id} needs {nbytes} bytes simultaneously in {space} "
                    f"(capacity {self._capacity[space]}); the task's working set can "
                    f"never fit — use smaller chunks or a larger memory pool"
                )

        # Wait for an unstage unless the eviction walk the commit runs can
        # make the room in every space the request must fill right now.
        requester = self._requester_of(plan_ids)
        for space, nbytes in needed.items():
            if self.room(space, nbytes, plan_ids, requester) < nbytes:
                own = 0
                for chunk_id in plan_ids:
                    st = chunks[chunk_id]
                    if st.space == space and st.pins == 0:
                        own += st.meta.nbytes
                snapshot = tuple((st, st.space, st.meta, st.pins == 0) for st, _ in plan)
                return _Block(space, self._capacity[space] - own - nbytes, snapshot)

        # Commit: make room, move/allocate, pin.  Bookkeeping happens now (so
        # the reservation is atomic); the incoming data transfers occupy their
        # resources and the callback only fires when they all complete, which
        # is what makes un-spilling visible in the task's start time.
        staged: List[ChunkId] = []
        transfers: List[Tuple[object, int, str]] = []
        lru = self._lru
        pinned = self._pinned
        for state, target in plan:
            space = state.space
            if space is not target and space != target:
                self._make_room(
                    target, state.meta.nbytes, protect=plan_ids, requester=requester
                )
                transfers.extend(self._move(state, target))
            # inline _touch + _pin (residency may have changed in _move, so
            # state.space is re-read after the move branch)
            space = state.space
            if space is not None:
                lru[space].move_to_end(state.meta.chunk_id)
            state.pins += 1
            if state.pins == 1 and space is not None:
                pinned[space] += state.meta.nbytes
                if self._tenants:
                    tenant = self._tenants.get(state.meta.chunk_id)
                    if tenant is not None:
                        self._tenant_pinned[(tenant, space)] += state.meta.nbytes
            staged.append(state.meta.chunk_id)
        self._staged.setdefault(task_id, []).extend(staged)
        if self._uses:
            self._consume(task_id, requirements)
        if self._disk_copies:
            # The writer is about to change these chunks: their disk copies
            # go stale now, at commit, not when the request was queued.
            for chunk_id in plan_ids if writes is None else writes():
                state = chunks[chunk_id]
                if state.disk_copy:
                    self._drop_disk_copy(state)

        if background:
            # A promotion materialised these chunks ahead of use: remember
            # them so the stall they spare the real consumer is credited.
            self._prepared.update(plan_ids)
        elif transfers:
            if not retry:  # queued requests were already counted as a stall
                self.stats.staging_stalls += 1
            # The preparation failed to spare this consumer a stall (other
            # chunks still had to move); consume the credit so a later task
            # touching the same chunks cannot claim it.
            self._prepared -= plan_ids
        elif self._prepared & plan_ids:
            # Only instantly-satisfied *first* attempts are credited: a queued
            # request already stalled, even if a promotion landed meanwhile.
            if not retry:
                self.stats.staging_stalls_avoided += 1
            self._prepared -= plan_ids

        if not transfers:
            callback()
            return None

        remaining = {"count": len(transfers)}

        def _one_done() -> None:
            remaining["count"] -= 1
            if remaining["count"] == 0:
                callback()

        for resource, nbytes, label in transfers:
            resource.request(nbytes, _one_done, label=label)
        return None

    def _touch(self, state: _ChunkState) -> None:
        if state.space is not None:
            self._lru[state.space].move_to_end(state.meta.chunk_id)

    def _pin(self, state: _ChunkState) -> None:
        state.pins += 1
        if state.pins == 1 and state.space is not None:
            self._pinned[state.space] += state.meta.nbytes
            if self._tenants:
                tenant = self._tenants.get(state.meta.chunk_id)
                if tenant is not None:
                    self._tenant_pinned[(tenant, state.space)] += state.meta.nbytes

    def _unpin(self, state: _ChunkState) -> None:
        if state.pins > 0:
            state.pins -= 1
            if state.pins == 0 and state.space is not None:
                self._pinned[state.space] -= state.meta.nbytes
                if self._tenants:
                    tenant = self._tenants.get(state.meta.chunk_id)
                    if tenant is not None:
                        self._tenant_pinned[(tenant, state.space)] -= state.meta.nbytes

    # ------------------------------------------------------------------ #
    # window-aware reservations (planned pre-eviction)
    # ------------------------------------------------------------------ #
    def reserve(self, space: MemorySpace, chunks: List[ChunkId], nbytes: int) -> int:
        """Prepare ``space`` for a launch group that will stage ``chunks``.

        The launch window's drain pass calls this (through a
        :class:`~repro.core.tasks.MemoryReserveTask`) with the group's
        combined working set for one memory space: LRU victims *outside*
        ``chunks`` are spilled down the hierarchy (each to the level
        :meth:`_spill_level` picks) until ``nbytes`` are free (or nothing
        evictable remains), so the group's stagings find room instead of
        evicting chunk-by-chunk on the critical path; the write-back
        transfers start now, overlapped with whatever is computing.  Nothing
        is pinned: the group's stagings pin their own chunks.

        Returns the number of chunks pre-evicted.  Never raises: if the
        request cannot be met in full (pinned chunks in the way), it frees
        what the eviction walk can (:meth:`room`) and lets staging handle the
        rest reactively.
        """
        target = min(nbytes, self._capacity[space])
        keep = {cid for cid in chunks if self._chunks.get(cid) is not None}
        requester = self._requester_of(chunks)
        target = min(target, self.room(space, target, keep, requester))
        evicted_before = self.stats.chunks_preevicted
        self._in_reserve = True
        try:
            if target > self.free_bytes(space):
                self._make_room(space, target, protect=keep, requester=requester)
        except OutOfMemoryError:
            pass  # a spill into a full disk tier; staging copes
        finally:
            self._in_reserve = False
        return self.stats.chunks_preevicted - evicted_before

    # ------------------------------------------------------------------ #
    # allocation, eviction and transfers
    # ------------------------------------------------------------------ #
    def _lower_space(self, space: MemorySpace) -> Optional[MemorySpace]:
        if space.kind is MemoryKind.GPU:
            return self._host_space
        if space.kind is MemoryKind.HOST:
            return self._disk_space
        return None

    def _make_room(
        self, space: MemorySpace, nbytes: int, protect=frozenset(), requester=None
    ) -> None:
        """Evict LRU unpinned chunks from ``space`` until ``nbytes`` fit.

        ``protect`` names chunks that must not be evicted even though they are
        not pinned yet — the rest of the working set of the task currently
        being staged — at every level the eviction cascades through.
        ``requester`` is the tenant asking for the room (or ``None``): under
        tenant quotas, a busy rival tenant's chunks are only eligible as
        victims while that tenant sits *above* its quota, and only down to
        the quota line — its within-quota working set is as untouchable as a
        pinned chunk (:meth:`_tenant_evictable`).  Each victim enters the
        level :meth:`_spill_level` picks.
        """
        missing = nbytes - self.free_bytes(space)
        if missing <= 0:
            return
        if space.kind is MemoryKind.DISK:
            # Retained copies are the cheapest room there is: dropping one
            # moves no data.
            copies = self._disk_copies
            while missing > 0 and copies:
                state = next(iter(copies.values()))
                self._drop_disk_copy(state)
                missing -= state.meta.nbytes
            if missing <= 0:
                return
        lower_space = self._lower_space(space)
        victims = self._victims(space, missing, protect, requester)
        # Moving a victim mutates the index, so evict after the walk.  A
        # clean victim going to disk needs no room there: its copy's bytes
        # are already in the pool (read at its turn, as the room made for an
        # earlier victim may have dropped the copy).
        for victim in victims:
            if lower_space is None:
                raise OutOfMemoryError(
                    f"cannot evict from {space}: no lower memory level exists"
                )
            target = lower_space
            if lower_space is self._host_space:
                target = self._spill_level(victim, protect, requester)
            if not (victim.disk_copy and target is self._disk_space):
                self._make_room(target, victim.meta.nbytes, protect, requester)
            self._move(victim, target, eviction=True)
        # Each eviction front-inserted its victim into the lower space, which
        # reverses the batch's relative order; re-front in reverse so the
        # oldest victim is first in line for the next spill level again.
        for victim in reversed(victims):
            if victim.space is not None:
                self._lru[victim.space].move_to_end(victim.meta.chunk_id, last=False)
        if self.free_bytes(space) < nbytes:
            raise OutOfMemoryError(
                f"could not free {nbytes} bytes in {space} "
                f"(free {self.free_bytes(space)}, capacity {self._capacity[space]})"
            )

    def _victims(
        self, space: MemorySpace, missing: int, protect, requester
    ) -> List[_ChunkState]:
        """The chunks :meth:`_make_room` evicts from ``space`` to free
        ``missing`` bytes: unpinned and unprotected ones in LRU order, within
        rival tenants' allowances and the lower level's receivable cap.  Their
        bytes fall short of ``missing`` when not enough are eligible.  This
        walk alone decides what a requester may evict: staging admission,
        :meth:`reserve` and the window's promotion budget ask it through
        :meth:`room`.

        Victims come straight off the front of the per-space LRU index, so
        selection is O(1) per victim (plus any pinned/protected chunks walked
        over) instead of a full sort of the worker's chunks.
        """
        quotas = self._tenant_quota
        lower_space = self._lower_space(space)
        #: bytes the next level down can still receive; ``None`` = unbounded.
        #: Only bounded while the lower level holds *pinned* bytes (staged
        #: disk→host promotions in flight) — a victim flowing down becomes
        #: unpinned there, so the budget does not shrink as the walk moves
        #: victims, but a victim larger than the budget can never cascade.
        receivable: Optional[int] = None
        if lower_space is not None and self._pinned[lower_space]:
            receivable = self.free_bytes(lower_space) + (
                self._used[lower_space] - self._pinned[lower_space]
            )
        #: per rival tenant: bytes still evictable before hitting its quota
        allowance: Dict[int, int] = {}
        victims: List[_ChunkState] = []
        for state in self._lru[space].values():
            if missing <= 0:
                break
            if state.pins or state.meta.chunk_id in protect:
                continue
            if receivable is not None and state.meta.nbytes > receivable:
                continue
            if quotas:
                tenant = self._tenants.get(state.meta.chunk_id)
                if tenant is not None and tenant != requester and tenant in quotas:
                    left = allowance.get(tenant)
                    if left is None:
                        left = self._tenant_evictable(tenant, space)
                    if state.meta.nbytes > left:
                        allowance[tenant] = left
                        continue
                    allowance[tenant] = left - state.meta.nbytes
            victims.append(state)
            missing -= state.meta.nbytes
        return victims

    def _spill_level(self, victim: _ChunkState, protect, requester) -> MemorySpace:
        """Where a GPU ``victim`` goes: host memory when it has room, or when
        making room there would push down some chunk needed no sooner than
        the victim; otherwise, or when host memory cannot make the room,
        straight to disk, displacing nothing needed before it."""
        host = self._host_space
        missing = victim.meta.nbytes - self.free_bytes(host)
        if missing <= 0:
            return host
        displaced = self._victims(host, missing, protect, requester)
        if sum(state.meta.nbytes for state in displaced) >= missing:
            use = self.next_use(victim.meta.chunk_id)
            for state in displaced:
                if self.next_use(state.meta.chunk_id) >= use:
                    return host
        return self._disk_space

    def _move(self, state: _ChunkState, target: MemorySpace, eviction: bool = False):
        """Update bookkeeping for a chunk move and return the data transfers it implies.

        Evictions issue their transfers immediately (write-back can proceed in
        the background, but still loads the PCIe/disk resources); staging-in
        moves return the transfer list so the caller can block on completion.
        """
        source = state.space
        nbytes = state.meta.nbytes
        chunk_id = state.meta.chunk_id
        if source is not None:
            del self._lru[source][chunk_id]
            if state.pins:
                self._pinned[source] -= nbytes
            if source.kind is MemoryKind.DISK:
                # Promoted out of the disk tier: the copy stays, and so do its
                # bytes in the disk pool.
                state.disk_copy = True
                self._disk_copies[chunk_id] = state
            else:
                self._used[source] -= nbytes
        # Spilling a chunk whose disk copy is still clean writes nothing: the
        # copy becomes its residency, its bytes already in the pool.
        clean = state.disk_copy and target.kind is MemoryKind.DISK
        if clean:
            state.disk_copy = False
            del self._disk_copies[chunk_id]
        else:
            self._used[target] += nbytes
        self._lru[target][chunk_id] = state
        if self._tenants:
            tenant = self._tenants.get(chunk_id)
            if tenant is not None:
                if source is not None:
                    self._tenant_used[(tenant, source)] -= nbytes
                    if state.pins:
                        self._tenant_pinned[(tenant, source)] -= nbytes
                self._tenant_used[(tenant, target)] += nbytes
                if state.pins:
                    self._tenant_pinned[(tenant, target)] += nbytes
        if eviction:
            # Spilled data was the *least* recently used of its old space; it
            # enters the lower space first in line for the next spill, not as
            # freshly used data would.
            self._lru[target].move_to_end(chunk_id, last=False)
        if state.pins:
            self._pinned[target] += nbytes
        state.space = target
        if target.kind is MemoryKind.GPU:
            peak = self.stats.peak_gpu_bytes
            peak[target.device_index] = max(
                peak.get(target.device_index, 0), self._used[target]
            )

        if source is None:
            return []  # fresh allocation from the pool: no data to move

        transfers = self._transfer_requests(source, target, state.meta, clean)
        if eviction:
            if target.kind is MemoryKind.HOST:
                self.stats.evictions_to_host += 1
            elif target.kind is MemoryKind.DISK:
                self.stats.evictions_to_disk += 1
            if self._in_reserve:
                self.stats.chunks_preevicted += 1
            else:
                self.stats.staging_evictions += 1
            # An evicted chunk is no longer prepared for its consumer.
            self._prepared.discard(chunk_id)
            for resource, amount, label in transfers:
                resource.request(amount, lambda: None, label=label)
            return []
        return transfers

    def _drop_disk_copy(self, state: _ChunkState) -> None:
        """Forget a chunk's retained disk copy and free its disk-pool bytes."""
        state.disk_copy = False
        del self._disk_copies[state.meta.chunk_id]
        self._used[self._disk_space] -= state.meta.nbytes

    def _disk_write_requests(self, meta: ChunkMeta, clean: bool):
        """The requests that write one chunk to the disk tier; none when its
        retained disk copy is still ``clean``."""
        if clean:
            self.stats.disk_writes_skipped += 1
            return []
        nbytes = meta.nbytes
        self.stats.bytes_to_disk += nbytes
        if self.disk_model is None:
            self.stats.disk_stored_bytes_written += nbytes
            return [(self.resources.disk, nbytes, "spill to disk")]
        stored = self.disk_model.stored_bytes(meta.chunk_id, meta.dtype, nbytes)
        self.stats.disk_stored_bytes_written += stored
        return [
            (self.resources.compress, nbytes, "compress"),
            (self.resources.disk_write, stored, "spill to disk"),
        ]

    def _disk_read_requests(self, meta: ChunkMeta):
        """The requests that read one chunk back from the disk tier."""
        nbytes = meta.nbytes
        self.stats.bytes_from_disk += nbytes
        if self.disk_model is None:
            self.stats.disk_stored_bytes_read += nbytes
            return [(self.resources.disk, nbytes, "read from disk")]
        stored = self.disk_model.stored_bytes(meta.chunk_id, meta.dtype, nbytes)
        self.stats.disk_stored_bytes_read += stored
        return [
            (self.resources.disk_read, stored, "read from disk"),
            (self.resources.decompress, nbytes, "decompress"),
        ]

    def _transfer_requests(
        self, source: MemorySpace, target: MemorySpace, meta: ChunkMeta, clean: bool
    ):
        """The (resource, bytes, label) requests implied by moving a chunk;
        ``clean`` skips the disk write of a chunk whose disk copy is current."""
        pair = (source.kind, target.kind)
        nbytes = meta.nbytes
        requests = []
        if pair == (MemoryKind.GPU, MemoryKind.HOST):
            self.stats.bytes_from_gpu += nbytes
            requests.append((self.resources.pcie, nbytes, "spill d2h"))
        elif pair == (MemoryKind.HOST, MemoryKind.GPU):
            self.stats.bytes_to_gpu += nbytes
            requests.append((self.resources.pcie, nbytes, "stage h2d"))
        elif pair == (MemoryKind.HOST, MemoryKind.DISK):
            requests.extend(self._disk_write_requests(meta, clean))
        elif pair == (MemoryKind.DISK, MemoryKind.HOST):
            requests.extend(self._disk_read_requests(meta))
        elif pair == (MemoryKind.GPU, MemoryKind.DISK):
            # A clean chunk drops to its retained disk copy: no data moves.
            if not clean:
                self.stats.bytes_from_gpu += nbytes
                requests.append((self.resources.pcie, nbytes, "spill d2h"))
            requests.extend(self._disk_write_requests(meta, clean))
        elif pair == (MemoryKind.DISK, MemoryKind.GPU):
            requests.extend(self._disk_read_requests(meta))
            self.stats.bytes_to_gpu += nbytes
            requests.append((self.resources.pcie, nbytes, "stage h2d"))
        elif pair == (MemoryKind.GPU, MemoryKind.GPU):
            requests.append((self.resources.pcie, nbytes, "p2p"))
        # HOST -> HOST (and identical spaces) move no data.
        return requests
