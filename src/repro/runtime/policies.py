"""Pluggable task-selection policies for the per-worker scheduler.

The paper's scheduler "selects one arbitrary task" when several tasks are
ready at the same time and names smarter selection (data locality, task
priority) as future work (Sec. 3.3).  This module implements that future work
as a small policy interface: whenever the scheduler has to pick the next task
to stage from a backlog (tasks held back by the staging throttle), it asks the
policy which one to take.

Policies only *reorder* work that is already runnable; they never violate the
DAG dependencies (those are enforced before a task ever reaches a policy) and
therefore cannot affect correctness — only performance, exactly like the
work/data distributions themselves.

Available policies
------------------

``fifo``
    Arrival order.  This reproduces the paper's baseline behaviour ("selects
    one arbitrary task"): the backlog is drained in the order tasks became
    ready.

``locality``
    Prefer the task whose staged working set needs the fewest bytes moved
    (chunks already resident in the right memory space are free).  Ties fall
    back to arrival order.

``priority``
    Prefer tasks from older kernel launches first and, within one launch,
    communication tasks (send/recv/copy/reduce) before kernel launches, so
    data for the *next* launch is already moving while the current one
    computes.

``smallest``
    Prefer the task with the smallest total staged footprint, which maximises
    the number of concurrently staged tasks under the throttle.

``fairshare``
    Multi-tenant serving: prefer the task whose tenant has the smallest
    weighted virtual finish tag on the serving system's fair-share clock
    (see :mod:`repro.runtime.serving`), so a worker's backlog drains in
    cross-tenant WFQ order.  Behaves like ``fifo`` when no serving layer
    is attached.
"""

from __future__ import annotations

import abc
from typing import Dict, Optional, Sequence, Tuple, Type

from ..core import tasks as T

__all__ = [
    "SchedulingPolicy",
    "FifoPolicy",
    "LocalityPolicy",
    "PriorityPolicy",
    "SmallestFirstPolicy",
    "FairSharePolicy",
    "POLICIES",
    "get_policy",
]


class SchedulingPolicy(abc.ABC):
    """Strategy deciding which backlogged task the scheduler stages next."""

    #: Registry key; subclasses must override.
    name: str = "abstract"

    @abc.abstractmethod
    def select(self, backlog: Sequence[T.Task], scheduler: "object") -> int:
        """Return the index into ``backlog`` of the task to try next.

        ``backlog`` is never empty.  ``scheduler`` is the calling
        :class:`~repro.runtime.scheduler.Scheduler`; policies may consult its
        memory manager but must not mutate any state.
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class FifoPolicy(SchedulingPolicy):
    """Arrival order — the paper's baseline 'arbitrary' selection."""

    name = "fifo"

    def select(self, backlog: Sequence[T.Task], scheduler: "object") -> int:
        """Pick the first backlogged task (submission order)."""
        return 0


class LocalityPolicy(SchedulingPolicy):
    """Data-locality-aware selection: fewest bytes to move first."""

    name = "locality"

    def select(self, backlog: Sequence[T.Task], scheduler: "object") -> int:
        """Prefer the task whose working set needs the fewest staged-in bytes."""
        memory = scheduler.memory
        best_index = 0
        best_cost: Optional[int] = None
        for index, task in enumerate(backlog):
            requirements = list(task.chunk_requirements())
            cost = memory.staging_bytes_needed(requirements) if requirements else 0
            if best_cost is None or cost < best_cost:
                best_index, best_cost = index, cost
            if best_cost == 0:
                break
        return best_index


#: Rank of task kinds under the ``priority`` policy: keep data moving first.
_KIND_RANK: Dict[str, int] = {
    "send": 0,
    "recv": 0,
    "copy": 1,
    "reduce": 2,
    "fill": 3,
    "download": 4,
    "launch": 5,
}


class PriorityPolicy(SchedulingPolicy):
    """Oldest launch first; within a launch, communication before compute."""

    name = "priority"

    def select(self, backlog: Sequence[T.Task], scheduler: "object") -> int:
        """Prefer the highest-priority task, then submission order."""
        def key(item: Tuple[int, T.Task]) -> Tuple[int, int, int]:
            index, task = item
            launch = getattr(task, "launch_id", None)
            launch_rank = launch if launch is not None else task.task_id
            return (launch_rank, _KIND_RANK.get(task.kind, 4), index)

        return min(enumerate(backlog), key=key)[0]


class SmallestFirstPolicy(SchedulingPolicy):
    """Smallest staged footprint first (packs more tasks under the throttle)."""

    name = "smallest"

    def select(self, backlog: Sequence[T.Task], scheduler: "object") -> int:
        """Prefer the task with the smallest staging footprint."""
        memory = scheduler.memory

        def footprint(item: Tuple[int, T.Task]) -> Tuple[int, int]:
            index, task = item
            requirements = list(task.chunk_requirements())
            return (memory.footprint(requirements) if requirements else 0, index)

        return min(enumerate(backlog), key=footprint)[0]


class FairSharePolicy(SchedulingPolicy):
    """Cross-tenant WFQ order: smallest fair-share tag first.

    The serving layer (:mod:`repro.runtime.serving`) publishes its
    :class:`~repro.runtime.serving.FairShareClock` on the runtime as
    ``fair_share`` and tags every submitted task with its tenant.  This
    policy drains a worker's backlog in ascending order of each task's
    tenant tag on that clock, so a backlog holding several tenants' tasks
    is served in the same weighted order the admission scheduler used.
    Untenanted tasks (or runtimes with no serving layer) rank first, which
    degenerates to ``fifo`` on the single-tenant path.
    """

    name = "fairshare"

    def select(self, backlog: Sequence[T.Task], scheduler: "object") -> int:
        """Prefer the task of the tenant with the smallest virtual tag."""
        runtime = getattr(scheduler, "runtime", None)
        clock = getattr(runtime, "fair_share", None)
        if clock is None:
            return 0
        task_tenant = runtime._task_tenant

        def key(item: Tuple[int, T.Task]) -> Tuple[float, int]:
            index, task = item
            tenant = task_tenant.get(task.task_id)
            tag = clock.tag_of(tenant) if tenant is not None else 0.0
            return (tag, index)

        return min(enumerate(backlog), key=key)[0]


#: Registry of selectable policies, keyed by :attr:`SchedulingPolicy.name`.
POLICIES: Dict[str, Type[SchedulingPolicy]] = {
    cls.name: cls
    for cls in (
        FifoPolicy,
        LocalityPolicy,
        PriorityPolicy,
        SmallestFirstPolicy,
        FairSharePolicy,
    )
}


def get_policy(policy: "str | SchedulingPolicy | None") -> SchedulingPolicy:
    """Resolve a policy argument (name, instance or ``None``) to an instance."""
    if policy is None:
        return FifoPolicy()
    if isinstance(policy, SchedulingPolicy):
        return policy
    try:
        return POLICIES[policy]()
    except KeyError:
        raise ValueError(
            f"unknown scheduling policy {policy!r}; available: {sorted(POLICIES)}"
        ) from None
