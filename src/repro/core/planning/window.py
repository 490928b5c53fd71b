"""The launch window: deferred submission and cross-launch optimisation.

``Context.launch`` no longer plans-and-submits eagerly.  It appends a
:class:`PendingLaunch` to a bounded :class:`LaunchWindow` (default depth 4).
The window drains in two ways:

* a **depth drain** when appending launch ``depth+1`` finds the window full
  (depth > 1);
* a **barrier drain** when program-order semantics become observable:
  ``Context.synchronize()`` (and therefore ``gather``), ``gather``/
  ``delete_array``/``redistribute`` of an array some pending launch
  references (a launch's re-chunk of an array it only writes included),
  explicit flushes, serving quanta and context exit
  (``with Context(...) as ctx:``).

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

3. **Window-aware memory planning** (see :mod:`.memplan`) — the group's
   combined per-space working set is computed from the plan templates'
   access summaries, each resolved through its unit's own chunks; spaces
   the group will overflow get planned
   pre-eviction (spill victims chosen up front, write-backs overlapped with
   compute) and the spilled prefetch candidates of every unit after the
   group's first get up-hierarchy promotion transfers ahead of their use.

Everything the window does is a driver-side reordering of plan construction:
plans are stamped in program order, so results are exactly those of eager
submission.

Fused chains pay in virtual time once their intermediates are written in
place: ``Context.launch`` re-chunks an array a launch only writes to that
launch's superblock write regions (see ARCHITECTURE "Re-chunking write-only
arrays"), so a fused task writes each intermediate straight into a chunk on
its own GPU instead of into a temporary that a write-back copies home.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .. import tasks as T
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
    consume them (``prepared`` holds the recipe that will be stamped and the
    chunks it will be stamped for).
    """

    members: Tuple[PendingLaunch, ...]
    prepared: PreparedLaunch


class LaunchWindow:
    """Bounded lookahead buffer of pending launches with cross-launch passes.

    ``fusion`` switches the fusion pass: ``True`` runs the greedy chain
    builder — maximal runs of producer/consumer launches, compatible-
    distribution segments and reduction tails included — and ``False``
    disables fusion entirely.
    """

    def __init__(
        self,
        runtime: "object",
        planner: Planner,
        counters: "object",
        depth: int = DEFAULT_LOOKAHEAD,
        fusion: bool = True,
        memory_planning: bool = True,
    ):
        self.runtime = runtime
        self.planner = planner
        #: the owning context's ``RuntimeStats`` counters
        self.counters = counters
        self.depth = max(1, int(depth))
        if fusion not in (True, False):
            raise ValueError(f"fusion must be True or False, got {fusion!r}")
        self.fusion_enabled = bool(fusion)
        self.memplan = WindowMemoryPlanner(runtime, planner, counters) if memory_planning else None
        self._pending: List[PendingLaunch] = []
        self._holding = False
        #: drains by reason
        self.flush_reasons: Dict[str, int] = {}
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
        passes (chain fusion, memory planning) see the DAG as one
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
        """True when some pending launch binds the given array."""
        return any(array_id in p.array_ids for p in self._pending)

    # ------------------------------------------------------------------ #
    # draining
    # ------------------------------------------------------------------ #
    def _submit(self, plan) -> None:
        """Submit ``plan`` (if any), tagging it with this window's tenant first.

        Launch plans come out of the planner already stamped; the window's
        auxiliary memory plans (reserve/promote) are built outside the stamp
        path and pick up the tag here.
        """
        if plan is None:
            return
        if plan.tenant is None:
            plan.tenant = self.planner.tenant
        self.runtime.submit_plan(plan)

    def flush(
        self, reason: str = "explicit", incoming: Optional[PendingLaunch] = None
    ) -> None:
        """Stamp and submit every pending launch, fusing and memory-planning first.

        A *depth drain* (``"window-full"`` at depth > 1) keeps the group's
        last unit pending when ``incoming``, the launch that filled the
        window, extends it.  Every other drain is a *barrier*: it carries
        nothing.
        """
        if not self._pending:
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
            prepared = group[index].prepared
            if self.fusion_enabled:
                while index + len(members) < len(group):
                    candidate = tuple(members) + (group[index + len(members)],)
                    fused = self.planner.prepare_fused_chain(candidate)
                    if fused is None:
                        break
                    members.append(candidate[-1])
                    prepared = fused
            units.append(DrainUnit(tuple(members), prepared))
            index += len(members)

        # Whole chains: when the launch that filled the window extends the
        # group's last unit, that unit leads the next drain instead of being
        # cut off here.  Never the whole group, so the window stays bounded.
        if (
            incoming is not None and reason == "window-full" and self.depth > 1
            and len(units) > 1 and self._extends(units[-1], incoming)
        ):
            self._pending = list(units.pop().members)
            counters.units_carried += 1

        # Pass 2 — window-aware memory planning.  Must run before stamping:
        # reserve/promotion dependencies come from the conflict tables, which
        # must still describe only pre-group work.
        memory_plan = None
        if self.memplan is not None:
            memory_plan = self.memplan.plan_group(units)

        # Pass 3 — stamping, in program order.  Each unit's promotion plan is
        # materialised first, so a consumer that writes a promoted chunk picks
        # up a conflict dependency on the promotion.
        plans = []
        promote_plans: List[object] = []
        unit_launch_ids: List[Dict[int, List[int]]] = []
        for index, unit in enumerate(units):
            if memory_plan is not None:
                promote_plans.append(self.memplan.build_promote_plan(
                    memory_plan, index, unit_launch_ids, self._previous_group_tail
                ))
            else:
                promote_plans.append(None)
            prepared = unit.prepared
            plan = self.planner.stamp_launch(
                prepared,
                [m.scalars for m in unit.members],
                [m.launch_id for m in unit.members],
            ).plan
            if prepared.cache_status == "hit":
                counters.plan_cache_hits += 1
            elif prepared.cache_status == "miss":
                counters.plan_cache_misses += 1
            if len(unit.members) > 1:
                counters.launches_fused += len(unit.members) - 1
                if len(unit.members) > 2:
                    # launches that joined a chain longer than a pair
                    counters.launches_fused_chain += len(unit.members)
                counters.fused_chain_max_len = max(
                    counters.fused_chain_max_len, len(unit.members)
                )
                counters.reductions_fused += int(
                    prepared.recipe.notes.get("fused_reductions", 0)
                )
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

        # Submission: reserves precede the whole group, and each unit's
        # promote plan precedes the unit it serves (but follows its anchor
        # units), so every dependency points at an already-submitted task and
        # on a readiness tie the promotion stages before its consumer.
        if memory_plan is not None:
            counters.window_memory_plans += 1
            self._submit(self.memplan.build_reserve_plan(
                memory_plan, self._previous_group_tail
            ))
        for plan, promote in zip(plans, promote_plans):
            self._submit(promote)
            self._submit(plan)
        # Fold this group's launches into the per-worker anchor map: a
        # worker's anchor is its most recent launch across *all* units (the
        # last unit may not have touched every worker), and workers untouched
        # by this group keep their older anchor.
        for by_worker in unit_launch_ids:
            self._previous_group_tail.update(by_worker)

    # ------------------------------------------------------------------ #
    # whole chains
    # ------------------------------------------------------------------ #
    def _extends(self, unit: DrainUnit, incoming: PendingLaunch) -> bool:
        """True when ``incoming`` would fuse onto ``unit``."""
        return self.fusion_enabled and (
            self.planner.prepare_fused_chain(unit.members + (incoming,)) is not None
        )
