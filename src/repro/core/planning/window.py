"""The launch window: deferred submission and cross-launch optimisation.

``Context.launch`` no longer plans-and-submits eagerly.  It appends a
:class:`PendingLaunch` to a bounded :class:`LaunchWindow` (default depth 4).
The window drains in two ways:

* a **depth drain** when appending launch ``depth+1`` finds the window full
  (depth > 1);
* a **barrier drain** when program-order semantics become observable:
  ``Context.synchronize()`` (and therefore ``gather``), ``gather``/
  ``delete_array``/``redistribute`` of an array some pending launch
  references or some held write-back targets, explicit flushes, serving
  quanta and context exit (``with Context(...) as ctx:``).

Draining runs these cross-launch passes over the group before and during
the per-launch stamping:

1. **Kernel fusion** — maximal chains of back-to-back launches whose
   producer/consumer access regions are superblock-contained (see
   :func:`~.passes.build_fused_recipe`) are merged into one plan template:
   one multi-segment :class:`~repro.core.tasks.LaunchTask` per superblock
   instead of N one-segment ones, with consumer gather transfers elided
   because each segment reads its producer's output in place.  Segments may use
   compatible-but-different work distributions (same superblock boxes under
   a per-axis offset/permutation), and a chain may end in a *reduction
   tail* whose per-superblock partial combine runs inside the fused task.

2. **Whole chains** — at a depth drain, when the launch that filled the
   window extends the group's last unit, that unit stays pending and leads
   the next drain, so chains are not cut at the window boundary.

3. **Cross-launch prefetch** — every launch after the first in the drained
   group has its pre-launch gather/halo transfers stamped with a raised
   priority, so a worker's staging throttle starts the *next* launch's
   predictable halo exchange while the current launch computes.

4. **Window-aware memory planning** (see :mod:`.memplan`) — the group's
   combined per-space working set is computed from the plan templates'
   access summaries; spaces the group will overflow get planned
   pre-eviction (spill victims chosen up front, write-backs overlapped with
   compute) and spilled prefetch candidates get up-hierarchy promotion
   transfers ahead of their use.

5. **The write-back cache** — a depth drain holds each unit's deferrable
   temp write-backs (see :meth:`~.ir.PlanRecipe.writebacks`) and their
   temporaries' deletes back from the plan.  Before a later unit stamps,
   each held piece whose target it touches is dropped when the unit
   overwrites the piece's whole region through its own temp write-backs,
   and otherwise submitted just before the unit as the target's writer.
   Barrier drains submit whatever is still held.

Everything the window does is a driver-side reordering of plan construction:
plans are stamped in program order and nothing reads a chunk before the
held write-backs into it are submitted, so results are exactly those of
eager submission.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, List, Optional, Tuple

from .. import tasks as T
from ..geometry import Region, regions_cover
from .memplan import WindowMemoryPlanner
from .planner import Planner, PreparedLaunch

__all__ = ["PendingLaunch", "LaunchWindow", "DEFAULT_LOOKAHEAD"]

#: default window depth (launches held back before a forced drain)
DEFAULT_LOOKAHEAD = 4


@dataclass
class PendingLaunch:
    """One deferred kernel launch: everything needed to stamp it later."""

    kernel: object
    grid: Tuple[int, ...]
    block: Tuple[int, ...]
    work_dist: object
    scalars: Dict[str, object]
    arrays: Dict[str, object]
    launch_id: int
    prepared: PreparedLaunch
    array_ids: frozenset = field(default_factory=frozenset)


@dataclass
class DrainUnit:
    """One stamping unit of a drained group: a single launch or a fused chain.

    The fusion pass produces these; the memory-planning and stamping passes
    consume them (``recipe`` is the template that will be stamped, and
    ``prefetch`` says whether the PR-3 prefetch stamp applies).
    """

    members: Tuple[PendingLaunch, ...]
    recipe: object
    cache_status: Optional[str]
    prefetch: bool
    fused: bool


@dataclass
class _HeldTemp:
    """A plan temporary whose write-backs the window holds, and its delete."""

    delete: T.Task
    #: held pieces not yet dropped or submitted
    pending: int
    #: the producing unit's plan while its drain has not submitted it yet:
    #: pieces released inside that drain rejoin it, as if never held
    plan: Optional[T.ExecutionPlan]
    #: reader task ids of the dropped pieces (left out of the delete's deps)
    dropped: set = field(default_factory=set)


@dataclass
class _HeldPiece:
    """One held temp write-back: a copy, or a send+recv pair."""

    tasks: Tuple[T.Task, ...]
    region: Region
    nbytes: int
    array_id: Optional[int]
    temp: _HeldTemp

    @property
    def reader(self) -> int:
        """The task that reads the temporary (the copy or the send)."""
        return self.tasks[0].task_id

    @property
    def writer(self) -> int:
        """The task whose completion means the target holds the data."""
        return self.tasks[-1].task_id


class LaunchWindow:
    """Bounded lookahead buffer of pending launches with cross-launch passes.

    ``fusion`` selects the fusion pass's mode: ``True`` (or ``"chain"``) runs
    the greedy chain builder — maximal runs of producer/consumer launches,
    compatible-distribution segments and reduction tails included — while
    ``"pairwise"`` restores the original adjacent-pair-only behaviour
    (identical distributions, no reduction tails; the bench harness uses it as
    the chain-fusion control arm) and ``False`` disables fusion entirely.
    """

    def __init__(
        self,
        runtime: "object",
        planner: Planner,
        counters: "object",
        depth: int = DEFAULT_LOOKAHEAD,
        fusion: object = True,
        prefetch: bool = True,
        memory_planning: bool = True,
    ):
        self.runtime = runtime
        self.planner = planner
        #: the owning context's ``RuntimeStats`` counters
        self.counters = counters
        self.depth = max(1, int(depth))
        if fusion not in (True, False, "chain", "pairwise"):
            raise ValueError(
                f"fusion must be True, False, 'chain' or 'pairwise', got {fusion!r}"
            )
        self.fusion_enabled = bool(fusion)
        self.fusion_pairwise_only = fusion == "pairwise"
        self.prefetch_enabled = prefetch
        self.memory_planning_enabled = memory_planning
        self.memplan = WindowMemoryPlanner(runtime, planner, counters) if memory_planning else None
        self._pending: List[PendingLaunch] = []
        self._holding = False
        #: drains by reason
        self.flush_reasons: Dict[str, int] = {}
        #: held write-backs by target chunk (all from one unit per chunk:
        #: any later unit touching the chunk resolves them first)
        self._held: Dict[int, List[_HeldPiece]] = {}
        #: launch-task ids (by worker) of the previous drain's last unit, the
        #: timeline anchor for the next drain's reserve/promotion tasks
        self._previous_group_tail: Dict[int, List[int]] = {}

    @property
    def launches_fused(self) -> int:
        """Launches merged away by the fusion pass (``RuntimeStats.launches_fused``)."""
        return self.counters.launches_fused

    @property
    def staged_promotions(self) -> int:
        """Disk→host staged promotions planned (``RuntimeStats.disk_promotions_staged``)."""
        return self.counters.disk_promotions_staged

    # ------------------------------------------------------------------ #
    # filling
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._pending)

    def submit(self, pending: PendingLaunch) -> None:
        """Append one launch, draining first if the window is full."""
        if len(self._pending) >= self.depth and not self._holding:
            self.flush("window-full", incoming=pending)
        self._pending.append(pending)
        if self.depth == 1 and not self._holding:
            # A depth-1 window is eager submission (no cross-launch passes).
            self.flush("window-full")

    @contextmanager
    def hold(self):
        """Defer depth-triggered drains while a batch of launches is appended.

        Expression lowering submits a whole DAG's worth of launches at once;
        holding the window open until the batch is complete lets the drain
        passes (chain fusion, prefetch, memory planning) see the DAG as one
        group instead of depth-sized shards.  Barrier-triggered flushes are
        unaffected, and the deferred depth drain runs on exit.  Re-entrant
        holds nest as a no-op.
        """
        if self._holding or self.depth == 1:
            # depth 1 means eager submission with no cross-launch passes;
            # holding would silently re-enable them for lowered batches
            yield
            return
        self._holding = True
        try:
            yield
        finally:
            self._holding = False
            if len(self._pending) >= self.depth:
                self.flush("window-full")

    def references(self, array_id: int) -> bool:
        """True when some pending launch binds the given array, or some held
        write-back targets one of its chunks."""
        return any(array_id in p.array_ids for p in self._pending) or any(
            piece.array_id == array_id
            for pieces in self._held.values() for piece in pieces
        )

    # ------------------------------------------------------------------ #
    # draining
    # ------------------------------------------------------------------ #
    def _submit(self, plan) -> None:
        """Submit ``plan`` (if any), tagging it with this window's tenant first.

        Launch plans come out of the planner already stamped; the window's
        auxiliary memory plans (reserve/promote/release) and held write-backs
        are built outside the stamp path and pick up the tag here.
        """
        if plan is None:
            return
        if plan.tenant is None:
            plan.tenant = self.planner.tenant
        self.runtime.submit_plan(plan)

    def flush(
        self, reason: str = "explicit", incoming: Optional[PendingLaunch] = None
    ) -> None:
        """Stamp and submit every pending launch, fusing/prefetching first.

        A *depth drain* (``"window-full"`` at depth > 1) keeps the group's
        last unit pending when ``incoming``, the launch that filled the
        window, extends it, and holds the units' deferrable temp write-backs
        in the write-back cache.  Every other drain is a *barrier*: it
        carries nothing and submits whatever is still held, even when no
        launch is pending.
        """
        hold = reason == "window-full" and self.depth > 1
        if not self._pending:
            if not hold:
                self._submit_held()
            return
        group, self._pending = self._pending, []
        counters = self.counters
        counters.window_flushes += 1
        self.flush_reasons[reason] = self.flush_reasons.get(reason, 0) + 1

        # Pass 1 — kernel fusion: partition the group into stamping units.
        # The greedy chain builder keeps absorbing the next window launch
        # while the extended chain stays legal; every prefix decision
        # (positive and negative) is memoised by the planner's chain-key
        # fusion cache, so steady-state drains pay dictionary lookups only.
        units: List[DrainUnit] = []
        index = 0
        while index < len(group):
            members: List[PendingLaunch] = [group[index]]
            recipe, status = None, None
            if self.fusion_enabled:
                limit = 2 if self.fusion_pairwise_only else len(group) - index
                while index + len(members) < len(group) and len(members) < limit:
                    candidate = tuple(members) + (group[index + len(members)],)
                    if self.fusion_pairwise_only:
                        ext, ext_status = self.planner.prepare_fused(*candidate)
                    else:
                        ext, ext_status = self.planner.prepare_fused_chain(candidate)
                    if ext is None:
                        break
                    members.append(candidate[-1])
                    recipe, status = ext, ext_status
            # The prefetch pass applies to every launch after the first of the
            # drained group: its pre-launch transfers are predictable one
            # launch ahead, so they are stamped with a raised priority.
            prefetch = self.prefetch_enabled and index > 0
            if recipe is not None:
                units.append(DrainUnit(
                    members=tuple(members),
                    recipe=recipe, cache_status=status,
                    prefetch=prefetch, fused=True,
                ))
            else:
                pending = group[index]
                units.append(DrainUnit(
                    members=(pending,),
                    recipe=pending.prepared.recipe,
                    cache_status=pending.prepared.cache_status,
                    prefetch=prefetch, fused=False,
                ))
            index += len(units[-1].members)

        # Whole chains: when the launch that filled the window extends the
        # group's last unit, that unit leads the next drain instead of being
        # cut off here.  Never the whole group, so the window stays bounded.
        if (
            incoming is not None and hold and len(units) > 1
            and self._extends(units[-1], incoming)
        ):
            self._pending = list(units.pop().members)
            counters.units_carried += 1

        # Pass 2 — window-aware memory planning.  Must run before stamping:
        # reserve/promotion dependencies come from the conflict tables, which
        # must still describe only pre-group work.
        memory_plan = None
        if self.memplan is not None:
            memory_plan = self.memplan.plan_group(units, hold)

        # Pass 3 — stamping, in program order.  Held write-backs the unit
        # touches are resolved first, then the unit's promotion plan is
        # materialised, so a consumer that writes a promoted chunk picks up a
        # conflict dependency on the promotion, and a promotion of a chunk
        # with a held write-back depends on the write-back.
        plans = []
        promote_plans: List[object] = []
        resolved_plans: List[object] = []
        opened: List[_HeldTemp] = []
        unit_launch_ids: List[Dict[int, List[int]]] = []
        for index, unit in enumerate(units):
            resolved_plans.append(self._held_plan(self._resolve(unit.recipe)))
            if memory_plan is not None:
                promote_plans.append(self.memplan.build_promote_plan(
                    memory_plan, index, unit_launch_ids, self._previous_group_tail
                ))
            else:
                promote_plans.append(None)
            if unit.fused:
                stamped = self.planner.stamp_fused(
                    unit.recipe,
                    scalar_sets=[m.scalars for m in unit.members],
                    launch_ids=[m.launch_id for m in unit.members],
                    cache_status=unit.cache_status,
                    prefetch=unit.prefetch,
                    hold=hold,
                )
                counters.launches_fused += len(unit.members) - 1
                if len(unit.members) > 2:
                    # launches that joined a chain longer than a pair — what
                    # pairwise-only fusion could not have merged
                    counters.launches_fused_chain += len(unit.members)
                counters.fused_chain_max_len = max(
                    counters.fused_chain_max_len, len(unit.members)
                )
                counters.reductions_fused += int(
                    unit.recipe.notes.get("fused_reductions", 0)
                )
            else:
                pending = unit.members[0]
                stamped = self.planner.stamp_launch(
                    pending.prepared,
                    pending.scalars,
                    pending.launch_id,
                    prefetch=unit.prefetch,
                    hold=hold,
                )
            plan = stamped.plan
            if stamped.held_tasks:
                opened.extend(self._hold(unit.recipe, plan, stamped.held_tasks))
            if unit.prefetch:
                counters.transfers_prefetched += stamped.prefetched
            # Only the memory planner consumes launch-id anchors; skip the
            # per-task scan entirely when the pass is disabled.
            if self.memplan is not None:
                by_worker: Dict[int, List[int]] = {}
                for worker, tasks in plan.tasks_by_worker.items():
                    ids = [t.task_id for t in tasks if isinstance(t, T.LaunchTask)]
                    if ids:
                        by_worker[worker] = ids
                unit_launch_ids.append(by_worker)
            plans.append(plan)

        # Pieces released inside this drain rejoined their producer's plan at
        # its end; restore stamp order (task ids follow it), as if never held.
        for plan in {id(temp.plan): temp.plan for temp in opened}.values():
            for tasks in plan.tasks_by_worker.values():
                tasks.sort(key=attrgetter("task_id"))
        for temp in opened:
            temp.plan = None

        # Submission: reserves precede the whole group; each unit's resolved
        # write-backs and promote plan precede the unit they serve (but
        # follow their anchor units), so every dependency points at an
        # already-submitted task and on a readiness tie the promotion stages
        # before its consumer; the pin release comes last, and a barrier
        # then submits whatever is still held.
        if memory_plan is not None:
            counters.window_memory_plans += 1
            reserve = self.memplan.build_reserve_plan(
                memory_plan, self._previous_group_tail
            )
            if reserve is not None:
                self._submit(reserve)
        for plan, promote, resolved in zip(plans, promote_plans, resolved_plans):
            self._submit(resolved)
            self._submit(promote)
            self._submit(plan)
        if memory_plan is not None:
            release = self.memplan.build_release_plan(memory_plan, plans)
            if release is not None:
                self._submit(release)
        if not hold:
            self._submit_held()
        # Fold this group's launches into the per-worker anchor map: a
        # worker's anchor is its most recent launch across *all* units (the
        # last unit may not have touched every worker), and workers untouched
        # by this group keep their older anchor.
        for by_worker in unit_launch_ids:
            self._previous_group_tail.update(by_worker)

    # ------------------------------------------------------------------ #
    # whole chains and the write-back cache
    # ------------------------------------------------------------------ #
    def _extends(self, unit: DrainUnit, incoming: PendingLaunch) -> bool:
        """True when ``incoming`` would fuse onto ``unit``."""
        if not self.fusion_enabled:
            return False
        if self.fusion_pairwise_only:
            return len(unit.members) == 1 and (
                self.planner.prepare_fused(unit.members[0], incoming)[0] is not None
            )
        chain = unit.members + (incoming,)
        return self.planner.prepare_fused_chain(chain)[0] is not None

    def _hold(
        self, recipe, plan: T.ExecutionPlan, held_tasks: Dict[int, T.Task]
    ) -> List[_HeldTemp]:
        """Put one stamped unit's deferrable write-backs in the cache;
        returns the held temporaries."""
        writebacks = recipe.writebacks()
        temps = {
            slot: _HeldTemp(delete=held_tasks[index], pending=0, plan=plan)
            for slot, index in writebacks.deletes.items()
        }
        for piece in writebacks.pieces:
            temp = temps[piece.temp]
            temp.pending += 1
            self._held.setdefault(piece.chunk_id, []).append(_HeldPiece(
                tasks=tuple(held_tasks[index] for index in piece.protos),
                region=piece.region,
                nbytes=piece.nbytes,
                array_id=recipe.chunk_metas[piece.chunk_id].array_id,
                temp=temp,
            ))
        self.counters.writebacks_deferred += len(writebacks.pieces)
        return list(temps.values())

    def _resolve(self, recipe) -> List[T.Task]:
        """Drop or release the held write-backs whose target ``recipe`` touches.

        A piece is *dropped* when the recipe touches its target only through
        temp write-backs that cover the piece's region: nothing can read
        what it would have written.  Otherwise it is *released*: submitted
        before the recipe's plan, as its target's writer — or, when its
        producer's plan is still unsubmitted, as part of that plan.  Returns
        the tasks to submit before the recipe's plan (released pieces and the
        deletes of settled temporaries).
        """
        if not self._held:
            return []
        writebacks = recipe.writebacks()
        tasks: List[T.Task] = []
        for chunk_id in writebacks.touched:
            pieces = self._held.pop(chunk_id, None)
            if pieces is None:
                continue
            cover = writebacks.overwrites.get(chunk_id)
            writers = []
            for piece in pieces:
                if cover is not None and (
                    any(region.contains_region(piece.region) for region in cover)
                    or regions_cover(piece.region, cover)
                ):
                    self.counters.writebacks_dropped += 1
                    self.counters.writeback_bytes_dropped += piece.nbytes
                    piece.temp.dropped.add(piece.reader)
                else:
                    self._emit(piece.temp, piece.tasks, tasks)
                    writers.append(piece.writer)
                self._emit(piece.temp, self._settle(piece.temp), tasks)
            if writers:
                self.planner.dependency_injector.record_writers(chunk_id, writers)
        return tasks

    def _submit_held(self) -> None:
        """Submit every held write-back (a barrier drain)."""
        tasks: List[T.Task] = []
        for chunk_id, pieces in self._held.items():
            self.planner.dependency_injector.record_writers(
                chunk_id, [piece.writer for piece in pieces]
            )
            for piece in pieces:
                tasks.extend(piece.tasks)
                tasks.extend(self._settle(piece.temp))
        self._held.clear()
        self._submit(self._held_plan(tasks))

    @staticmethod
    def _emit(temp: _HeldTemp, released, tasks: List[T.Task]) -> None:
        """Route released tasks of ``temp`` into its producer's unsubmitted
        plan, or else onto ``tasks``."""
        if temp.plan is None:
            tasks.extend(released)
        else:
            for task in released:
                temp.plan.add(task)

    @staticmethod
    def _settle(temp: _HeldTemp) -> Tuple[T.Task, ...]:
        """Count one piece of ``temp`` resolved; its delete once all are."""
        temp.pending -= 1
        if temp.pending:
            return ()
        delete = temp.delete
        if temp.dropped:
            delete.deps = tuple(d for d in delete.deps if d not in temp.dropped)
        return (delete,)

    @staticmethod
    def _held_plan(tasks: List[T.Task]) -> Optional[T.ExecutionPlan]:
        """Wrap released write-backs in a plan (``None`` when there are none)."""
        if not tasks:
            return None
        plan = T.ExecutionPlan(description="held write-backs")
        for task in tasks:
            plan.add(task)
        return plan
