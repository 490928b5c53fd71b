"""Per-worker task scheduler (Sec. 3.3).

Each worker schedules its own DAG: the driver only *plans*.  A task becomes
ready when all its predecessor tasks (possibly from earlier plans) have
finished; it then passes through the worker's scheduler control path (fixed
per-task cost), is *staged* by the memory manager (all its chunks are
materialised in the right memory spaces), executed on its resource, and
finally unstaged so its successors can proceed.

Bookkeeping tasks (:attr:`~repro.core.tasks.Task.bookkeeping`) skip all of
that: the moment one is ready, the scheduler registers (create) or drops
(delete) its chunk with the worker's storage and memory manager, or does
nothing (combine), and reports its completion at the same virtual instant.

The scheduler throttles how many bytes may be staged per executor at once
(default 2 GB, as in the paper): too few concurrently staged tasks prevents
overlapping transfers with execution, too many causes contention because
chunks are staged too far ahead of time.  When the throttle frees room, a
backlogged promotion (:class:`~repro.core.tasks.PromoteChunkTask`) stages
before the scheduling policy's pick.
"""

from __future__ import annotations

from typing import Dict, List

from ..core import tasks as T
from ..errors import FaultError
from ..hardware.topology import WorkerId
from .executors import TaskExecutor
from .memory import MemoryManager
from .policies import SchedulingPolicy, get_policy
from .resources import WorkerResources

__all__ = ["Scheduler", "DEFAULT_STAGE_THRESHOLD"]

#: Maximum bytes staged per executor at any one time (Sec. 3.4: "2 GB works well").
DEFAULT_STAGE_THRESHOLD = 2 * 1024 ** 3

#: interned "sched <kind>" labels (one f-string per task kind, not per task)
_SCHED_LABELS: Dict[str, str] = {}


class Scheduler:
    """Schedules one worker's tasks onto its local resources."""

    def __init__(
        self,
        runtime: "object",
        worker: WorkerId,
        resources: WorkerResources,
        memory: MemoryManager,
        executor: TaskExecutor,
        stage_threshold: int = DEFAULT_STAGE_THRESHOLD,
        policy: "str | SchedulingPolicy | None" = None,
    ):
        self.runtime = runtime
        self.worker = worker
        self.resources = resources
        self.memory = memory
        self.executor = executor
        self.stage_threshold = stage_threshold
        self.policy = get_policy(policy)

        self._staged_bytes: Dict[object, int] = {}
        self._throttled: Dict[object, List[T.Task]] = {}
        #: per-throttle-key count of backlogged promotions, so
        #: ``_drain_throttled`` scans the backlog for one only when it holds one
        self._throttled_promotions: Dict[object, int] = {}
        #: task_id -> (requirements, footprint) memo for backlogged tasks, so
        #: every failed drain attempt does not recompute the task's chunk
        #: requirements and re-sum its footprint (both are static per task)
        self._throttled_info: Dict[int, tuple] = {}
        self.tasks_completed = 0
        #: Permanently failed local devices.  Recovery retargets all chunks
        #: and invalidates every cached plan, so no new task should ever name
        #: a blacklisted device — this guard turns a planner bug into a loud
        #: :class:`~repro.errors.FaultError` instead of computing on a ghost.
        self.blacklist: set = set()

    # ------------------------------------------------------------------ #
    # submission and readiness
    # ------------------------------------------------------------------ #
    def submit(self, tasks: List[T.Task]) -> None:
        """Receive a DAG fragment from the driver.

        Each task's chunk requirements are announced to the memory manager,
        which spills by their next use.  They are not kept: holding every
        queued task's requirements until it stages costs more in garbage
        collection than :meth:`_begin_staging` spends recomputing them.
        Each dependency still registered with the runtime as unfinished gets
        the task's countdown entry appended to its waiter list; the runtime
        decrements the entry as those dependencies complete and calls
        :meth:`_ready` when it reaches zero.
        """
        waiters = self.runtime._waiters
        ready = self._ready
        blacklist = self.blacklist
        announce = self.memory.announce
        for task in tasks:
            if blacklist and getattr(task, "device", None) in blacklist:
                raise FaultError(
                    f"task {task} targets blacklisted device {task.device} "
                    f"(failed permanently); plans must be rebuilt against the "
                    f"surviving topology"
                )
            requirements = task.chunk_requirements()
            if requirements:
                announce(task.task_id, requirements)
            entry = None
            for dep in task.deps:
                if dep in waiters:
                    if entry is None:
                        entry = [task, 1, ready]
                    else:
                        entry[1] += 1
                    subscribed = waiters[dep]
                    if subscribed is None:
                        waiters[dep] = [entry]
                    else:
                        subscribed.append(entry)
            if entry is None:
                ready(task)

    def _ready(self, task: T.Task) -> None:
        """Dependencies satisfied: pass through the scheduler control path."""
        if task.bookkeeping:
            self._apply_bookkeeping(task)
            return
        kind = task.kind
        label = _SCHED_LABELS.get(kind)
        if label is None:
            label = _SCHED_LABELS.setdefault(kind, f"sched {kind}")
        self.resources.scheduler.request(
            0.0, lambda: self._begin_staging(task), label=label
        )

    def _apply_bookkeeping(self, task: T.Task) -> None:
        """Register a created chunk or drop a deleted one, then complete."""
        if isinstance(task, T.CreateChunkTask):
            task.apply(self.executor.storage, self.executor.kernel_registry)
            self.memory.register(task.chunk)
        elif isinstance(task, T.DeleteChunkTask):
            self.executor.storage.delete(task.chunk_id)
            self.memory.delete(task.chunk_id)
        self.tasks_completed += 1
        self.runtime.notify_completion(task.task_id)

    # ------------------------------------------------------------------ #
    # staging with throttle
    # ------------------------------------------------------------------ #
    def _throttle_key(self, task: T.Task) -> object:
        if isinstance(task, (T.LaunchTask, T.PromoteChunkTask)):
            return task.device
        if isinstance(task, T.ReduceTask):
            home = self.memory.home_of(task.dst_chunk)
            if home is not None:
                return home
        return "host"

    def _begin_staging(self, task: T.Task) -> None:
        requirements = list(task.chunk_requirements())
        key = self._throttle_key(task)
        footprint = self.memory.footprint(requirements) if requirements else 0
        staged = self._staged_bytes.get(key, 0)
        if requirements and staged > 0 and staged + footprint > self.stage_threshold:
            self._throttled.setdefault(key, []).append(task)
            self._throttled_info[task.task_id] = (requirements, footprint)
            if isinstance(task, T.PromoteChunkTask):
                self._throttled_promotions[key] = self._throttled_promotions.get(key, 0) + 1
            return
        self._stage_now(task, key, footprint, requirements)

    def _stage_now(self, task: T.Task, key, footprint: int, requirements) -> None:
        self._staged_bytes[key] = self._staged_bytes.get(key, 0) + footprint
        had_requirements = bool(requirements)

        def _staged() -> None:
            self.executor.execute(
                task, lambda: self._finish(task, key, footprint, had_requirements)
            )

        if requirements:
            # Promotions are issued ahead of any consumer: their staging is
            # background work and must not count as a stall event.  The write
            # set is passed uncomputed: the manager asks for it at commit,
            # and only while a staged chunk keeps a disk copy.
            self.memory.stage(
                task.task_id, requirements, _staged,
                background=isinstance(task, T.PromoteChunkTask),
                writes=task.chunk_writes,
            )
        else:
            _staged()

    def _finish(self, task: T.Task, key, footprint: int, had_requirements: bool) -> None:
        if footprint or had_requirements:
            self.memory.unstage(task.task_id)
        self._staged_bytes[key] = self._staged_bytes.get(key, 0) - footprint
        self.tasks_completed += 1
        self.runtime.notify_completion(task.task_id)
        self._drain_throttled(key)

    def _drain_throttled(self, key) -> None:
        backlog = self._throttled.get(key)
        if not backlog:
            return
        promotions = self._throttled_promotions
        while backlog:
            # A backlogged promotion (the window's staging of a spilled chunk
            # back to its GPU ahead of its use) jumps the backlog so its data
            # moves while earlier work computes; otherwise the scheduling
            # policy picks which backlogged task to stage next (the paper
            # picks arbitrarily; locality/priority policies are the future
            # work of Sec. 3.3).  A promotion too large for the staging
            # throttle must not block the policy's own pick, so both
            # candidates are tried; when neither fits we stop draining until
            # more work unstages.  The maintained promotion count saves a
            # backlog scan on every completion when there is none.
            candidates = [self.policy.select(backlog, self)]
            if promotions.get(key):
                preferred = next(
                    i for i, task in enumerate(backlog) if isinstance(task, T.PromoteChunkTask)
                )
                if preferred != candidates[0]:
                    candidates.insert(0, preferred)
            for index in candidates:
                task = backlog[index]
                requirements, footprint = self._throttled_info[task.task_id]
                staged = self._staged_bytes.get(key, 0)
                if staged > 0 and staged + footprint > self.stage_threshold:
                    continue
                backlog.pop(index)
                del self._throttled_info[task.task_id]
                if isinstance(task, T.PromoteChunkTask):
                    promotions[key] -= 1
                self._stage_now(task, key, footprint, requirements)
                break
            else:
                return

    # ------------------------------------------------------------------ #
    # diagnostics
    # ------------------------------------------------------------------ #
    def describe_stuck(self) -> str:
        """Human-readable dump of stuck tasks and the resources they wait on
        (unfinished dependencies, staging-throttle keys, memory-staging
        queues) for :class:`~repro.errors.SimulationStalled` reports."""
        waiters = self.runtime._waiters
        ready = self._ready
        waiting = {}
        for entries in waiters.values():
            for entry in entries or ():
                if entry[2] == ready:
                    waiting[entry[0].task_id] = entry
        lines = [f"worker {self.worker}: {len(waiting)} waiting tasks"]
        for task, unmet, _ in list(waiting.values())[:10]:
            unfinished = [dep for dep in task.deps if dep in waiters]
            lines.append(f"  {task} waiting on {unmet} unfinished dependencies {unfinished}")
        for key, queue in self._throttled.items():
            if queue:
                lines.append(
                    f"  {len(queue)} tasks throttled on resource {key} "
                    f"({self._staged_bytes.get(key, 0)} bytes staged)"
                )
        stalled = getattr(self.memory, "_pending", ())
        for pending in list(stalled)[:10]:
            chunks = ", ".join(f"chunk#{cid}({kind})" for cid, kind in pending.requirements)
            space, limit = pending.block.space, pending.block.limit
            lines.append(
                f"  task {pending.task_id} stalled in memory staging on [{chunks}]: blocked on "
                f"{space} with {self.memory.pinned_bytes(space)} bytes pinned (limit {limit})"
            )
        return "\n".join(lines)
