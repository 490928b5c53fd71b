"""The execution planner (Sec. 2.4, Fig. 4) — facade over the pass pipeline.

For every operation the application performs (creating an array, launching a
kernel, gathering results, deleting an array, redistributing an array) the
planner produces an :class:`~repro.core.tasks.ExecutionPlan`: a DAG fragment
per worker.  Kernel launches run through the planning pass pipeline (see
:mod:`.passes`), which produces a structural :class:`~.ir.PlanRecipe`; the
recipe is then *stamped* into a concrete plan — fresh task/chunk ids and tags,
this launch's scalar arguments, and cross-launch conflict dependencies
injected from the planner's reader/writer tables.

Since the launch window was introduced, planning a launch is split in two
driver-side steps:

* :meth:`Planner.prepare_launch` runs at ``Context.launch`` time: it resolves
  the plan-template cache and — on a miss — builds the recipe, so
  planning errors still surface at the launch call site even though
  submission is deferred; either way it returns the cached recipe as it
  is, with the chunks the launch's arrays hold (:data:`~.ir.SlotChunks`);
* :meth:`Planner.stamp_launch` runs when the window drains: it stamps each
  drain unit's recipe — a prepared launch's or a fused chain's — for its
  chunks, with fresh ids and the cross-launch conflict edges that depend on
  everything stamped before it.

Fused recipes (the window's kernel-fusion pass) are cached separately, keyed
by which member parameters share an array plus the *chain* of member cache
keys (any length >= 2), with a negative entry for chains that failed the
legality checks so the expensive region analysis runs once per chain shape,
not once per drain.  The window's greedy chain builder extends chains one
launch at a time, so successful prefixes and failing extensions each get
their own entry (prefix reuse).

The planner is purely driver-side: it never touches data, only metadata.
"""

from __future__ import annotations

import time
from collections import OrderedDict, defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from ...hardware.topology import Cluster
from ..array import DistributedArray
from ..chunk import ChunkIdAllocator, ChunkMeta
from ..distributions import WorkDistribution
from ..geometry import Region, regions_cover
from ..kernel import CompiledKernel
from .. import tasks as T
from .cache import PlanTemplateCache
from .costmodel import TransferCostModel
from .ir import PlanRecipe, SlotChunks, StampedPlan, array_slots, slot_chunks, stamp_recipe
from .passes import (
    DependencyInjectionPass,
    PlanningError,
    _subtract_covered,
    build_fused_recipe,
    build_launch_recipe,
)

__all__ = ["Planner", "PlanningError", "PreparedLaunch"]

#: negative fusion-cache entry: the chain is known not to fuse
_NO_FUSION = object()

#: bound on the fused-recipe cache (entries are chains of launch keys)
_FUSION_CACHE_MAX = 512


@dataclass
class PreparedLaunch:
    """A launch or fused chain that has been analysed but not yet
    stamped/submitted: its recipe, as cached, and the chunks the recipe's
    :class:`~.ir.ChunkRef` names resolve to, taken when it was prepared."""

    recipe: PlanRecipe
    chunks: SlotChunks
    key: Optional[Hashable]
    cache_status: Optional[str]


class Planner:
    """Builds execution plans and tracks inter-launch dependencies."""

    def __init__(
        self,
        cluster: Cluster,
        task_ids: T.TaskIdAllocator,
        chunk_ids: ChunkIdAllocator,
        plan_cache: bool = True,
    ):
        self.cluster = cluster
        self._task_ids = task_ids
        self._chunk_ids = chunk_ids
        #: Tenant id stamped on every plan this planner builds (multi-tenant
        #: serving); ``None`` on the single-tenant path.
        self.tenant: Optional[int] = None
        #: rotation of the work-placement device order (mirrors the owning
        #: context's data-placement rotation under serving); 0 single-tenant
        self.device_rotation: int = 0
        self._tag_counter = 0
        #: optional shared allocator for send/recv message tags; the context
        #: points this at the runtime so tags stay globally unique when many
        #: tenants' planners feed one fabric (None: private counter, same
        #: 1, 2, 3, ... sequence)
        self.tag_allocator = None
        #: chunk-level conflict tracking across launches
        self._writers: Dict[int, List[int]] = defaultdict(list)
        self._readers: Dict[int, List[int]] = defaultdict(list)
        self.cost_model = TransferCostModel(cluster)
        self.cache_enabled = plan_cache
        self.cache = PlanTemplateCache()
        #: fused-recipe LRU cache: (parameter slots, key_0, ..., key_n) chain
        #: keys -> PlanRecipe | _NO_FUSION (negative entries memoise failed
        #: chains)
        self._fusion_cache: "OrderedDict[Hashable, object]" = OrderedDict()
        self.dependency_injector = DependencyInjectionPass(self._writers, self._readers)
        #: wall-clock seconds spent planning kernel launches (driver hot path)
        self.planning_seconds = 0.0
        #: aggregated optimisation-pass statistics over all cold-planned
        #: launches (e.g. ``eliminated_bytes``, ``fusion_elided_bytes``)
        self.pass_stats: Dict[str, float] = {}

    # ------------------------------------------------------------------ #
    # small helpers
    # ------------------------------------------------------------------ #
    def _next_tag(self) -> int:
        if self.tag_allocator is not None:
            return self.tag_allocator.next_id()
        self._tag_counter += 1
        return self._tag_counter

    def _new_task_id(self) -> int:
        return self._task_ids.next_id()

    def allocate_task_id(self) -> int:
        """A fresh task id for auxiliary plans built outside the stamp path
        (the window's memory planner uses this for reserve/promote tasks)."""
        return self._new_task_id()

    def record_reader(self, chunk_id, task_id: int) -> None:
        """Register an out-of-band reader of ``chunk_id`` in the conflict
        tables, so later writes/deletes wait for it (promotion and release
        tasks from the window's memory plans are such readers)."""
        self._readers[chunk_id].append(task_id)

    # ------------------------------------------------------------------ #
    # array lifecycle plans (not cached: they run once per array)
    # ------------------------------------------------------------------ #
    def plan_create_array(
        self,
        array: DistributedArray,
        value: Optional[float] = None,
        data: Optional[np.ndarray] = None,
    ) -> T.ExecutionPlan:
        """CreateChunk + Fill tasks for every chunk of a new array."""
        plan = T.ExecutionPlan(description=f"create {array.name}", tenant=self.tenant)
        for chunk in array.chunks:
            create = T.CreateChunkTask(
                task_id=self._new_task_id(),
                worker=chunk.worker,
                label=f"create {array.name}",
                chunk=chunk,
            )
            plan.add(create)
            chunk_data = None
            if data is not None:
                chunk_data = np.ascontiguousarray(data[chunk.region.as_slices()])
            fill = T.FillTask(
                task_id=self._new_task_id(),
                worker=chunk.worker,
                deps=(create.task_id,),
                label=f"fill {array.name}",
                chunk_id=chunk.chunk_id,
                value=value,
                data=chunk_data,
                nbytes=chunk.nbytes,
            )
            plan.add(fill)
            self._writers[chunk.chunk_id] = [fill.task_id]
        return plan

    def plan_gather(self, array: DistributedArray) -> T.ExecutionPlan:
        """Download every chunk's contents back to the driver."""
        plan = T.ExecutionPlan(description=f"gather {array.name}", tenant=self.tenant)
        for chunk in array.chunks:
            download = T.DownloadTask(
                task_id=self._new_task_id(),
                worker=chunk.worker,
                deps=tuple(self.dependency_injector.resolve("read", chunk.chunk_id)),
                label=f"download {array.name}",
                chunk_id=chunk.chunk_id,
                region=chunk.region,
                nbytes=chunk.nbytes,
            )
            plan.add(download)
            self._readers[chunk.chunk_id].append(download.task_id)
        return plan

    def plan_delete_array(self, array: DistributedArray) -> T.ExecutionPlan:
        """Delete every chunk once its last reader/writer has finished."""
        plan = T.ExecutionPlan(description=f"delete {array.name}", tenant=self.tenant)
        for chunk in array.chunks:
            plan.add(
                T.DeleteChunkTask(
                    task_id=self._new_task_id(),
                    worker=chunk.worker,
                    deps=tuple(self.dependency_injector.resolve("write", chunk.chunk_id)),
                    label=f"delete {array.name}",
                    chunk_id=chunk.chunk_id,
                )
            )
            self._writers.pop(chunk.chunk_id, None)
            self._readers.pop(chunk.chunk_id, None)
        return plan

    # ------------------------------------------------------------------ #
    # in-place redistribution (all-to-all re-chunking)
    # ------------------------------------------------------------------ #
    def plan_redistribute(
        self, array: DistributedArray, new_chunks: Sequence[ChunkMeta], copy: bool = True
    ) -> T.ExecutionPlan:
        """Re-chunk ``array`` in place: create the new chunks, fill each from
        the cheapest old sources (all-to-all), then delete the old chunks.

        Without ``copy`` the new chunks stay empty (zero-filled): the caller
        knows the next launch overwrites every element, so the old contents
        are dropped unread.  Not cached: redistributions are rare,
        layout-changing operations.
        """
        plan = T.ExecutionPlan(description=f"redistribute {array.name}", tenant=self.tenant)
        old_chunks = list(array.chunks)
        itemsize = np.dtype(array.dtype).itemsize
        for new_chunk in new_chunks:
            create = T.CreateChunkTask(
                task_id=self._new_task_id(),
                worker=new_chunk.worker,
                label=f"create {array.name}",
                chunk=new_chunk,
            )
            plan.add(create)
            self._readers[new_chunk.chunk_id] = []
            if not copy:
                self._writers[new_chunk.chunk_id] = [create.task_id]
                continue
            writers: List[int] = []
            covered: List[Region] = []

            def rank(candidate: ChunkMeta):
                piece = candidate.region.intersect(new_chunk.region)
                return self.cost_model.rank_key(
                    candidate, new_chunk.home, piece.size * itemsize
                )

            sources = [
                c for c in old_chunks if c.region.overlaps(new_chunk.region)
            ]
            if not regions_cover(new_chunk.region, [c.region for c in sources]):
                raise PlanningError(
                    f"old chunks of {array.name} do not cover new chunk region "
                    f"{new_chunk.region}"
                )
            for src in sorted(sources, key=rank):
                piece = src.region.intersect(new_chunk.region)
                if piece.is_empty or (covered and regions_cover(piece, covered)):
                    continue
                # Trim away what cheaper sources already provide (exact for
                # the 1-axis stock layouts; anything irreducible re-transfers
                # coherent replicated data, like the gather path).
                piece = _subtract_covered(piece, covered)
                if piece.is_empty:
                    continue
                covered.append(piece)
                read_deps = tuple(
                    self.dependency_injector.resolve("read", src.chunk_id)
                ) + (create.task_id,)
                nbytes = piece.size * itemsize
                if src.worker == new_chunk.worker:
                    copy = T.CopyTask(
                        task_id=self._new_task_id(),
                        worker=src.worker,
                        deps=tuple(dict.fromkeys(read_deps)),
                        label=f"redistribute {array.name}",
                        src_chunk=src.chunk_id,
                        dst_chunk=new_chunk.chunk_id,
                        region=piece,
                        nbytes=nbytes,
                        src_device=src.home,
                        dst_device=new_chunk.home,
                    )
                    plan.add(copy)
                    self._readers[src.chunk_id].append(copy.task_id)
                    writers.append(copy.task_id)
                else:
                    tag = self._next_tag()
                    send = T.SendTask(
                        task_id=self._new_task_id(),
                        worker=src.worker,
                        deps=tuple(dict.fromkeys(read_deps)),
                        label=f"redistribute {array.name}",
                        chunk_id=src.chunk_id,
                        region=piece,
                        dst_worker=new_chunk.worker,
                        tag=tag,
                        nbytes=nbytes,
                    )
                    recv = T.RecvTask(
                        task_id=self._new_task_id(),
                        worker=new_chunk.worker,
                        deps=(send.task_id, create.task_id),
                        label=f"redistribute {array.name}",
                        chunk_id=new_chunk.chunk_id,
                        region=piece,
                        src_worker=src.worker,
                        tag=tag,
                        nbytes=nbytes,
                    )
                    plan.add(send)
                    plan.add(recv)
                    self._readers[src.chunk_id].append(send.task_id)
                    writers.append(recv.task_id)
            self._writers[new_chunk.chunk_id] = writers
        for old in old_chunks:
            plan.add(
                T.DeleteChunkTask(
                    task_id=self._new_task_id(),
                    worker=old.worker,
                    deps=tuple(self.dependency_injector.resolve("write", old.chunk_id)),
                    label=f"delete {array.name} (redistribute)",
                    chunk_id=old.chunk_id,
                )
            )
            self._writers.pop(old.chunk_id, None)
            self._readers.pop(old.chunk_id, None)
        return plan

    def invalidate_all(self) -> int:
        """Evict *every* cached recipe, plain and fused.

        Needed after a permanent device failure: cache keys do not include the
        device list (:meth:`~.cache.PlanTemplateCache.key_for`), so recipes
        planned against the pre-failure topology would happily re-stamp tasks
        onto the dead device.  Returns the number of entries evicted.
        """
        evicted = len(self.cache) + len(self._fusion_cache)
        self.cache.clear()
        self._fusion_cache.clear()
        self.cache.invalidations += evicted
        return evicted

    # ------------------------------------------------------------------ #
    # distributed kernel launches (pass pipeline + template cache)
    # ------------------------------------------------------------------ #
    def prepare_launch(
        self,
        kernel: CompiledKernel,
        grid: Tuple[int, ...],
        block: Tuple[int, ...],
        work_dist: WorkDistribution,
        arrays: Dict[str, DistributedArray],
        rechunk: Callable[[PlanRecipe, Dict[str, DistributedArray]], bool],
    ) -> PreparedLaunch:
        """Resolve the template cache and (on a miss) build the launch's recipe.

        Runs at ``Context.launch`` time, before the launch enters the window:
        planning errors surface at the call site and the cached hot path pays
        nothing at drain time but the re-stamp.  A recipe that names
        misaligned writes, cached or cold, goes to ``rechunk(recipe, arrays)``
        (the context's re-chunk step); when that changes a layout, the launch
        is looked up again under the new one.  The launch is a hit when no
        recipe was planned cold for it.
        """
        started = time.perf_counter()
        recipe, slots, key, cold = self._recipe_for(kernel, grid, block, work_dist, arrays)
        if recipe.misaligned_writes:
            paused = time.perf_counter()  # a relayout is not launch planning
            changed = rechunk(recipe, arrays)
            started += time.perf_counter() - paused
            if changed:
                recipe, slots, key, replanned = self._recipe_for(
                    kernel, grid, block, work_dist, arrays
                )
                cold = cold or replanned
        cache_status: Optional[str] = None
        if key is not None:
            self.cache.record(hit=not cold)
            cache_status = "miss" if cold else "hit"
        prepared = PreparedLaunch(recipe, slot_chunks(slots), key, cache_status)
        self.planning_seconds += time.perf_counter() - started
        return prepared

    def _recipe_for(
        self, kernel, grid, block, work_dist, arrays
    ) -> Tuple[PlanRecipe, List[DistributedArray], Optional[Hashable], bool]:
        """The launch's recipe, its arrays in slot order, its cache key
        (``None`` when it has none) and whether the recipe was planned cold."""
        slots, pattern = array_slots([arrays])
        key = recipe = None
        if self.cache_enabled:
            key = self.cache.key_for(
                kernel, grid, block, work_dist, self.device_rotation, slots, pattern
            )
            try:
                recipe = self.cache.lookup(key)
            except TypeError:
                # User-defined work distributions are not required to be
                # hashable; such launches are simply planned cold every time.
                key = None
        cold = recipe is None
        if cold:
            recipe = build_launch_recipe(
                self.cluster, kernel, grid, block, work_dist, arrays,
                cost_model=self.cost_model, rotation=self.device_rotation,
            )
            self._note_pass_stats(recipe)
            if key is not None:
                self.cache.store(key, recipe)
        return recipe, slots, key, cold

    def _note_pass_stats(self, recipe: PlanRecipe) -> None:
        for note, value in recipe.notes.items():
            self.pass_stats[note] = self.pass_stats.get(note, 0) + value

    def stamp_launch(
        self,
        prepared: PreparedLaunch,
        scalar_sets: Sequence[Dict[str, object]],
        launch_id: int,
    ) -> StampedPlan:
        """Stamp one drain unit's prepared recipe into a concrete plan (window
        drain time), inject its conflict edges and book its accesses.

        ``scalar_sets`` holds one entry per segment: one for a plain launch,
        one per member of a fused chain.  ``launch_id`` is the first
        segment's, which the plan takes.
        """
        started = time.perf_counter()
        stamped = stamp_recipe(
            prepared.recipe,
            prepared.chunks,
            new_task_id=self._new_task_id,
            new_chunk_id=self._chunk_ids.next_id,
            new_tag=self._next_tag,
            resolve_conflicts=self.dependency_injector.resolve,
            scalar_sets=scalar_sets,
            launch_id=launch_id,
            cache_status=prepared.cache_status,
        )
        self.dependency_injector.apply_bookkeeping(stamped)
        stamped.plan.tenant = self.tenant
        self.planning_seconds += time.perf_counter() - started
        return stamped

    # ------------------------------------------------------------------ #
    # cross-launch kernel fusion (used by the launch window)
    # ------------------------------------------------------------------ #
    def prepare_fused_chain(self, members: Sequence[object]) -> Optional[PreparedLaunch]:
        """Fused recipe for a chain of back-to-back launches, with their
        chunks.

        ``members`` are the window's ``PendingLaunch`` records, in program
        order.  Returns ``None`` when the chain is not fusable.  The cache
        status reflects the *fusion* cache: ``"hit"`` only when the fused
        recipe was served memoised, ``"miss"`` when it was built cold this
        drain (even if every member hit the per-launch template cache).
        Decisions are memoised by which member parameters share an array plus
        the tuple of member cache keys — including a *negative* entry when
        the chain is not fusable — with natural prefix reuse: the window's
        greedy builder extends a chain one launch at a time, so every
        successful prefix of a chain has its own (positive) entry and the
        failing extension its own negative one, and iterative applications
        pay the legality analysis once per chain shape.
        """
        slots, pattern = array_slots([m.arrays for m in members])
        chain_key = None
        if self.cache_enabled and all(m.prepared.key is not None for m in members):
            chain_key = (pattern,) + tuple(m.prepared.key for m in members)
            cached = self._fusion_cache.get(chain_key)
            if cached is not None:
                self._fusion_cache.move_to_end(chain_key)
                if cached is _NO_FUSION:
                    return None
                return PreparedLaunch(cached, slot_chunks(slots), chain_key, "hit")
        started = time.perf_counter()
        recipe = build_fused_recipe(
            self.cluster, members, cost_model=self.cost_model,
            rotation=self.device_rotation,
        )
        self.planning_seconds += time.perf_counter() - started
        if recipe is not None:
            self._note_pass_stats(recipe)
        if chain_key is not None:
            self._fusion_cache[chain_key] = recipe if recipe is not None else _NO_FUSION
            while len(self._fusion_cache) > _FUSION_CACHE_MAX:
                self._fusion_cache.popitem(last=False)
        if recipe is None:
            return None
        return PreparedLaunch(
            recipe, slot_chunks(slots), chain_key,
            "miss" if chain_key is not None else None,
        )
