"""Window-aware memory planning: the launch window's memory drain pass.

The launch window gives the planner lookahead over a *group* of launches;
without this pass, memory stays reactive — spilling fires chunk-by-chunk
inside staging transactions, and nothing pulls a spilled chunk back up the
hierarchy before its consumer stages it.  This module closes both gaps at
drain time:

* **Planned pre-eviction** — the drained group's combined per-space working
  set is assembled from the plan templates' cached access summaries
  (:meth:`~.ir.PlanRecipe.access_summary`), each mapped through its drain
  unit's own chunks (:data:`~.ir.SlotChunks`).  Where the bytes the group must
  bring into a space exceed what is free, a
  :class:`~repro.core.tasks.MemoryReserveTask` is emitted ahead of the group:
  it picks spill victims up front via the memory manager's existing LRU index
  (:meth:`~repro.runtime.memory.MemoryManager.reserve`), protecting the
  earliest-used prefix of the working set.  Eviction write-backs therefore
  start while earlier work still computes, instead of contending with
  stage-in transfers on the critical path.  Nothing is pinned: a reserve
  that pinned a group's resident chunks until the group finished could hold
  the room another tenant's stagings needed while that tenant's reserve held
  the room this group's stagings needed, and neither group could finish.

* **Hierarchy-aware prefetch** — for every drain unit after the group's
  first, the summary's prefetch candidates whose source chunk is currently
  *spilled* (host or disk) get a :class:`~repro.core.tasks.PromoteChunkTask`:
  a staging of the chunk back to its home GPU, throttled by the same
  per-device staging budget as all other staging (the worker's scheduler
  stages a backlogged promotion first), anchored so the promotion transfers
  overlap the preceding launch's compute.

Both mechanisms are pure residency/performance planning: chunk contents are
untouched and task dependencies are only ever *added* (reserve tasks wait for
every earlier reader/writer of the chunks they protect), so functional
results are bit-identical with the pass on or off.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ...hardware.topology import MemoryKind, MemorySpace
from ..chunk import ChunkId
from .. import tasks as T

__all__ = ["WindowMemoryPlanner", "GroupMemoryPlan"]


@dataclass
class _ReserveSpec:
    """Blueprint of one reserve task (materialised at finalise time)."""

    space: MemorySpace
    chunk_ids: Tuple[ChunkId, ...]
    nbytes: int
    #: pre-group conflict dependencies, snapshotted before the group stamps
    deps: Tuple[int, ...]


@dataclass
class _PromoteSpec:
    """Blueprint of one promotion task (materialised at stamp time).

    Unlike reserves, a promotion's conflict dependencies are *not*
    snapshotted here: they are resolved when the blueprint is materialised —
    just before its consumer unit stamps — so they include writers from
    earlier units of the same drained group.
    """

    chunk_id: ChunkId
    device: object
    nbytes: int
    #: index of the drain unit whose staging this promotion front-runs
    unit_index: int
    #: ``"gpu"`` for a full promotion to the home GPU, ``"host"`` for the
    #: staged disk→host hop planned when the GPU space is overflowing
    target: str = "gpu"


@dataclass
class GroupMemoryPlan:
    """The memory plan emitted alongside one drained group's task graph.

    Built in two phases: :meth:`WindowMemoryPlanner.plan_group` runs before
    the group is stamped (reserve conflict dependencies must be snapshotted
    while the planner's tables describe only pre-group work) and produces
    task *blueprints*; :meth:`WindowMemoryPlanner.build_reserve_plan` and
    :meth:`~WindowMemoryPlanner.build_promote_plan` materialise them around
    the stamping loop, anchored to the group's execution timeline.
    Allocating the task ids at materialise time keeps the repo-wide
    invariant that every dependency points at an earlier-allocated task.
    """

    reserve_specs: List[_ReserveSpec] = field(default_factory=list)
    promote_specs: List[_PromoteSpec] = field(default_factory=list)


class WindowMemoryPlanner:
    """Builds :class:`GroupMemoryPlan` objects for the launch window's drains.

    Driver-side like the rest of the planning layer: it inspects the runtime's
    memory managers (capacities and current residency — metadata only) and
    emits plans; it never moves data itself.
    """

    def __init__(self, runtime: "object", planner: "object", counters: "object"):
        self.runtime = runtime
        self.planner = planner
        #: the owning context's ``RuntimeStats`` counters
        self.counters = counters

    # ------------------------------------------------------------------ #
    # group working sets
    # ------------------------------------------------------------------ #
    def _memory_of(self, space: MemorySpace):
        """The memory manager owning ``space`` (worker id indexes the list)."""
        return self.runtime.workers[space.worker].memory

    @staticmethod
    def _combine(units: Sequence["object"]):
        """Merge the units' access summaries into per-space working sets.

        Returns ``(chunks_by_space, chunk_bytes, temp_bytes_by_space)`` where
        chunk lists preserve first-use order across the whole group and the
        temp estimate is the *maximum* over units of one unit's temp bytes
        per space.  A unit counts only the temporaries its tasks create (not
        the slots chain fusion released), and the maximum assumes that
        different units' temporaries are not alive at the same time.  Each
        summary names chunks by reference; a unit's own chunks resolve them,
        since units that share a recipe may stamp it for different arrays.
        """
        chunks_by_space: Dict[MemorySpace, List[ChunkId]] = {}
        chunk_bytes: Dict[ChunkId, int] = {}
        temp_bytes: Dict[MemorySpace, int] = {}
        for unit in units:
            summary = unit.prepared.recipe.access_summary()
            chunks = unit.prepared.chunks
            for space, entries in summary.chunks_by_space.items():
                bucket = chunks_by_space.setdefault(space, [])
                for (slot, index), nbytes in entries:
                    cid = chunks[slot][index].chunk_id
                    if cid not in chunk_bytes:
                        chunk_bytes[cid] = nbytes
                        bucket.append(cid)
            for space, nbytes in summary.temp_bytes_by_space.items():
                temp_bytes[space] = max(temp_bytes.get(space, 0), nbytes)
        return chunks_by_space, chunk_bytes, temp_bytes

    # ------------------------------------------------------------------ #
    # plan construction
    # ------------------------------------------------------------------ #
    def plan_group(self, units: Sequence["object"]) -> Optional[GroupMemoryPlan]:
        """Build the memory plan for one drained group, or ``None`` when the
        group creates no memory pressure anywhere (the common, uncapped case —
        the pass then costs nothing).

        ``units`` are the window's drain units: each exposes ``prepared``
        (the plan template that will be stamped and the chunks it will be
        stamped for).  Must run *before* the group is
        stamped, while the planner's conflict tables still describe only
        pre-group work.
        """
        chunks_by_space, chunk_bytes, temp_bytes = self._combine(units)
        memory_plan = GroupMemoryPlan()

        #: per space: the promotion regime — ("free", None) when the space has
        #: slack, ("keep", chunks) when the group fits and the keep set is
        #: protected, ("none", None) when the working set overflows the space
        #: (promoted data would be evicted again before use)
        regime_by_space: Dict[MemorySpace, Tuple[str, Optional[set]]] = {}
        for space, ws_chunks in sorted(
            chunks_by_space.items(), key=lambda item: (item[0].worker, item[0].device_index)
        ):
            regime_by_space[space] = self._plan_space(
                memory_plan, space, ws_chunks, chunk_bytes, temp_bytes.get(space, 0)
            )
        self._plan_promotions(memory_plan, units, regime_by_space, chunk_bytes)

        if not memory_plan.reserve_specs and not memory_plan.promote_specs:
            return None
        return memory_plan

    def _plan_space(
        self,
        memory_plan: GroupMemoryPlan,
        space: MemorySpace,
        ws_chunks: List[ChunkId],
        chunk_bytes: Dict[ChunkId, int],
        temp_estimate: int,
    ) -> Tuple[str, Optional[set]]:
        """Emit the reserve task for one memory space, if it is under pressure.

        Returns the space's promotion regime: ``("free", None)`` when the
        space has room to spare, ``("keep", chunks)`` when the group's working
        set fits the space — the keep set (its earliest-used prefix) is
        pre-evicted for and eligible for promotion — and
        ``("none", None)`` when the working set overflows the space: victims
        are still chosen up front, but promoting would only displace
        sooner-used data, so prefetch stands down.
        """
        memory = self._memory_of(space)

        def resident(cid: ChunkId) -> bool:
            # Chunks the worker has not materialised yet (their create plan is
            # still in flight) are by definition not resident in this space.
            return memory.knows(cid) and memory.residency(cid) == space

        incoming = sum(chunk_bytes[cid] for cid in ws_chunks if not resident(cid))
        if incoming + temp_estimate <= memory.free_bytes(space):
            return "free", None  # no pressure: staging will not have to evict
        capacity = memory.capacity(space)
        ws_total = sum(chunk_bytes[cid] for cid in ws_chunks) + temp_estimate
        budget = max(0, capacity - temp_estimate)
        keep: List[ChunkId] = []
        keep_bytes = 0
        for cid in ws_chunks:
            if keep_bytes + chunk_bytes[cid] > budget and keep:
                break
            keep.append(cid)
            keep_bytes += chunk_bytes[cid]
        incoming_keep = sum(
            chunk_bytes[cid] for cid in keep if not resident(cid)
        )
        target = min(incoming_keep + temp_estimate, capacity)
        memory_plan.reserve_specs.append(_ReserveSpec(
            space=space,
            chunk_ids=tuple(keep),
            nbytes=target,
            deps=self._conflict_deps(keep),
        ))
        if ws_total <= capacity:
            return "keep", set(keep)
        return "none", None

    def _plan_promotions(
        self,
        memory_plan: GroupMemoryPlan,
        units: Sequence["object"],
        regime_by_space: Dict[MemorySpace, Tuple[str, Optional[set]]],
        group_bytes: Dict[ChunkId, int],
    ) -> None:
        """Emit promotion tasks for spilled prefetch candidates of the group.

        The group's first unit gets none: no earlier unit of the group
        computes while its promotions would move.

        Promotion is deliberately conservative: in a space whose working set
        fits (``"keep"`` regime) only keep-set members are promoted — they
        are the chunks planned pre-eviction just made room for; in a space
        with free room any spilled candidate
        is promoted into the slack; and in an overflowing space (``"none"``)
        a *full* promotion stands down, because a promoted chunk would only
        displace sooner-used data and be evicted again before its use.
        Either way the total is capped by the scheduler's staging budget for
        the device.

        Candidates denied a full promotion that currently live on **disk**
        are instead promoted one level, to host memory (a
        :class:`~repro.core.tasks.PromoteChunkTask` with ``target="host"``):
        the slow, compressed disk read happens ahead of use, overlapped with
        compute, and the consumer's reactive staging pays only the PCIe hop.
        Where the staged bytes exceed the host space's free room, a host
        reserve is emitted alongside, pre-evicting host LRU victims other
        than the group's own chunks to disk so the three levels stream
        concurrently.
        """
        promoted_bytes: Dict[MemorySpace, int] = {}
        #: per host space: the group's own chunks resident there and the
        #: [(chunk id, bytes)] staged up from disk
        host_staged: Dict[MemorySpace, Tuple[Tuple[ChunkId, ...], list]] = {}
        seen: set = set()
        for unit_index, unit in enumerate(units[1:], start=1):
            chunks = unit.prepared.chunks
            for ref in unit.prepared.recipe.access_summary().prefetch_chunks:
                meta = chunks[ref.slot][ref.index]
                cid = meta.chunk_id
                if cid in seen:
                    continue
                seen.add(cid)
                space = meta.home.memory_space
                memory = self._memory_of(space)
                if not memory.knows(cid):
                    continue
                residency = memory.residency(cid)
                if residency is None or residency.kind is MemoryKind.GPU:
                    continue  # unallocated or already up: nothing to promote
                regime, keep = regime_by_space.get(space, ("free", None))
                allowance = self.runtime.workers[space.worker].scheduler.stage_threshold
                denied = False
                if regime == "none":
                    denied = True  # overflowing space: full promotion would thrash
                elif regime == "keep" and cid not in keep:
                    denied = True  # only refill what pre-eviction made room for
                elif regime == "free":
                    allowance = min(allowance, memory.free_bytes(space))
                spent = promoted_bytes.get(space, 0)
                if not denied and spent + meta.nbytes > allowance:
                    denied = True
                if denied:
                    self._stage_from_disk(
                        memory_plan, memory, residency, meta, unit_index, host_staged,
                        group_bytes,
                    )
                    continue
                promoted_bytes[space] = spent + meta.nbytes
                memory_plan.promote_specs.append(_PromoteSpec(
                    chunk_id=cid,
                    device=meta.home,
                    nbytes=meta.nbytes,
                    unit_index=unit_index,
                ))

    def _stage_from_disk(
        self,
        memory_plan: GroupMemoryPlan,
        memory: "object",
        residency: MemorySpace,
        meta: "object",
        unit_index: int,
        host_staged: Dict[MemorySpace, Tuple[Tuple[ChunkId, ...], list]],
        group_bytes: Dict[ChunkId, int],
    ) -> None:
        """Plan one disk→host staged promotion (with host pre-eviction).

        Called for prefetch candidates whose full promotion to the home GPU
        was denied; only disk-resident chunks qualify (host-resident ones are
        already one PCIe hop from their consumer).  The group's own
        host-resident chunks are needed sooner than a promoted one, so a
        promotion may not displace them: its host budget is the room the
        eviction walk finds around them, and the host reserve protects them.
        """
        if residency.kind is not MemoryKind.DISK:
            return
        if getattr(memory, "disk_model", None) is None:
            # Staged promotions are part of the opt-in compressed disk tier
            # (Context(disk=True)); without it the planner behaves exactly as
            # before, keeping pre-disk-tier baselines bit-identical.
            return
        host = self.runtime.workers[residency.worker].node.host_space
        worker = self.runtime.workers[residency.worker]
        if host not in host_staged:
            own = tuple(
                cid for cid in group_bytes
                if memory.knows(cid) and memory.residency(cid) == host
            )
            host_staged[host] = (own, [])
        own, staged = host_staged[host]
        staged_bytes = sum(nbytes for _, nbytes in staged) + meta.nbytes
        if (staged_bytes > worker.scheduler.stage_threshold
                or memory.room(host, staged_bytes, set(own), self.planner.tenant)
                < staged_bytes):
            return
        staged.append((meta.chunk_id, meta.nbytes))
        memory_plan.promote_specs.append(_PromoteSpec(
            chunk_id=meta.chunk_id,
            device=meta.home,
            nbytes=meta.nbytes,
            unit_index=unit_index,
            target="host",
        ))
        self.counters.disk_promotions_staged += 1
        # The host space must make room for the staged bytes ahead of the
        # disk reads: pre-evict host LRU victims other than the group's own
        # and the staged chunks down to disk (those are only *protected*
        # from the reserve: the group may still spill them if its own host
        # working set grows).
        if staged_bytes > memory.free_bytes(host):
            staged_ids = tuple(cid for cid, _ in staged)
            chunk_ids = own + staged_ids
            for spec in memory_plan.reserve_specs:
                if spec.space == host:
                    spec.chunk_ids = chunk_ids
                    spec.nbytes = max(spec.nbytes, staged_bytes)
                    spec.deps = tuple(dict.fromkeys(
                        spec.deps + self._conflict_deps((meta.chunk_id,))
                    ))
                    break
            else:
                memory_plan.reserve_specs.append(_ReserveSpec(
                    space=host,
                    chunk_ids=chunk_ids,
                    nbytes=staged_bytes,
                    deps=self._conflict_deps(staged_ids),
                ))

    def _conflict_deps(self, chunk_ids: Sequence[ChunkId], kind: str = "write") -> Tuple[int, ...]:
        """Every earlier task touching ``chunk_ids``, per the conflict tables.

        Reserve tasks wait for *all* prior readers and writers (``"write"``
        semantics), so they run once the earlier tasks that still need those
        chunks are done; promotions only wait for writers (``"read"``).
        """
        resolve = self.planner.dependency_injector.resolve
        deps: List[int] = []
        for cid in chunk_ids:
            deps.extend(resolve(kind, cid))
        return tuple(dict.fromkeys(deps))

    # ------------------------------------------------------------------ #
    # finalisation: materialise tasks, anchored to the group's timeline
    # ------------------------------------------------------------------ #
    def build_reserve_plan(
        self,
        memory_plan: GroupMemoryPlan,
        previous_group_tail: Dict[int, List[int]],
    ) -> Optional[T.ExecutionPlan]:
        """Materialise the reserve blueprints (submitted *before* the group).

        Conflict dependencies alone would let a reserve task become runnable
        far too early — in a fully queued program every data dependency of a
        later drain may already be satisfied while earlier drains are still
        executing, and an unanchored reserve would pre-evict a space that is
        still empty.  Each reserve is therefore additionally anchored on the
        previous drain's last launches on its worker: the boundary where its
        group's working set takes over the space.
        """
        if not memory_plan.reserve_specs:
            return None
        plan = T.ExecutionPlan(description="window memory reserve")
        for spec in memory_plan.reserve_specs:
            anchor_ids = tuple(previous_group_tail.get(spec.space.worker, ()))
            plan.add(T.MemoryReserveTask(
                task_id=self.planner.allocate_task_id(),
                worker=spec.space.worker,
                deps=tuple(dict.fromkeys(spec.deps + anchor_ids)),
                label=f"reserve {spec.space}",
                space=spec.space,
                chunk_ids=spec.chunk_ids,
                nbytes=spec.nbytes,
            ))
        return plan

    def build_promote_plan(
        self,
        memory_plan: GroupMemoryPlan,
        unit_index: int,
        unit_launch_ids: Sequence[Dict[int, List[int]]],
        previous_group_tail: Dict[int, List[int]],
    ) -> Optional[T.ExecutionPlan]:
        """Materialise unit ``unit_index``'s promotion blueprints.

        The window calls this *immediately before stamping* unit
        ``unit_index`` (and submits the plan just before that unit's own
        plan).  A promotion is anchored on the *first* launch of unit ``u-2``
        on its worker (or the previous drain's tail), giving its up-hierarchy
        transfers roughly one unit of lead over the consumer — enough to
        overlap unit ``u-1``'s compute without arriving so early that the
        promoted chunk is evicted again before use.

        Materialising before the consumer stamps is what makes the promotion
        effective: it registers in the planner's conflict tables as a
        *reader* of the chunk, so a consumer that writes the chunk picks up a
        conflict dependency on the promotion and only starts once the
        promoted data has actually arrived, while read-only consumers race it
        harmlessly.  It also keeps the repo-wide invariant that every
        dependency points at an earlier-allocated, earlier-submitted task.
        """
        specs = [s for s in memory_plan.promote_specs if s.unit_index == unit_index]
        if not specs:
            return None
        plan = T.ExecutionPlan(description="window memory promote")
        for spec in specs:
            worker = spec.device.worker
            if spec.unit_index >= 2:
                anchor_ids = tuple(
                    unit_launch_ids[spec.unit_index - 2].get(worker, ())[:1]
                )
            else:
                anchor_ids = tuple(previous_group_tail.get(worker, ())[:1])
            conflict_deps = self._conflict_deps([spec.chunk_id], kind="read")
            task = T.PromoteChunkTask(
                task_id=self.planner.allocate_task_id(),
                worker=worker,
                deps=tuple(dict.fromkeys(conflict_deps + anchor_ids)),
                label=f"promote {spec.chunk_id}"
                      + (" (to host)" if spec.target == "host" else ""),
                chunk_id=spec.chunk_id,
                device=spec.device,
                nbytes=spec.nbytes,
                target=spec.target,
            )
            plan.add(task)
            # The promotion is a reader of the chunk: writers stamped after
            # it (and later deletes) must wait for the promoted data.
            self.planner.record_reader(spec.chunk_id, task.task_id)
        return plan
