"""Tests for the pluggable scheduling policies (Sec. 3.3 future work) and
the staging throttle's precedence for window promotions."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro import BlockDist, Context, ExecutionMode, azure_nc24rsv2
from repro.core import tasks as T
from repro.core.geometry import Region
from repro.hardware import DeviceId
from repro.kernels import create_workload
from repro.runtime import (
    FifoPolicy,
    LocalityPolicy,
    PriorityPolicy,
    SchedulingPolicy,
    SmallestFirstPolicy,
    get_policy,
)
from repro.runtime.policies import POLICIES
from repro.runtime.scheduler import Scheduler

GPU0 = DeviceId(0, 0)


# --------------------------------------------------------------------------- #
# registry / construction
# --------------------------------------------------------------------------- #
def test_policy_registry_contains_all_policies():
    assert set(POLICIES) == {"fifo", "locality", "priority", "smallest", "fairshare"}
    for name, cls in POLICIES.items():
        assert cls.name == name
        assert issubclass(cls, SchedulingPolicy)


def test_get_policy_accepts_none_name_and_instance():
    assert isinstance(get_policy(None), FifoPolicy)
    assert isinstance(get_policy("locality"), LocalityPolicy)
    instance = PriorityPolicy()
    assert get_policy(instance) is instance


def test_get_policy_rejects_unknown_name():
    with pytest.raises(ValueError, match="unknown scheduling policy"):
        get_policy("does-not-exist")


# --------------------------------------------------------------------------- #
# unit-level selection behaviour (fake scheduler/memory)
# --------------------------------------------------------------------------- #
class _FakeMemory:
    """Memory stub exposing only what the policies consult."""

    def __init__(self, move_bytes, total_bytes=None):
        self._move = move_bytes
        self._total = total_bytes or move_bytes

    def staging_bytes_needed(self, requirements):
        if not requirements:
            return 0
        return self._move[requirements[0][0]]

    def footprint(self, requirements):
        if not requirements:
            return 0
        return self._total[requirements[0][0]]


class _FakeScheduler:
    def __init__(self, memory):
        self.memory = memory


def _launch(task_id, chunk_id, launch_id=0, worker=0, device=None):
    binding = T.ArrayArgBinding(
        param="a",
        chunk_id=chunk_id,
        access_region=Region.from_shape((4,)),
        mode="read",
    )
    return T.LaunchTask(
        task_id=task_id,
        worker=worker,
        kernel_names=("k",),
        device=device,
        array_args_list=((binding,),),
        launch_id=launch_id,
    )


def test_fifo_policy_always_picks_first():
    backlog = [_launch(1, 10), _launch(2, 11), _launch(3, 12)]
    scheduler = _FakeScheduler(_FakeMemory({10: 100, 11: 0, 12: 50}))
    assert FifoPolicy().select(backlog, scheduler) == 0


def test_locality_policy_prefers_resident_chunks():
    backlog = [_launch(1, 10), _launch(2, 11), _launch(3, 12)]
    # chunk 11 needs no data movement, the others do
    scheduler = _FakeScheduler(_FakeMemory({10: 100, 11: 0, 12: 50}))
    assert LocalityPolicy().select(backlog, scheduler) == 1


def test_locality_policy_breaks_ties_by_arrival_order():
    backlog = [_launch(1, 10), _launch(2, 11)]
    scheduler = _FakeScheduler(_FakeMemory({10: 64, 11: 64}))
    assert LocalityPolicy().select(backlog, scheduler) == 0


def test_smallest_policy_prefers_smallest_footprint():
    backlog = [_launch(1, 10), _launch(2, 11), _launch(3, 12)]
    scheduler = _FakeScheduler(
        _FakeMemory({10: 0, 11: 0, 12: 0}, total_bytes={10: 300, 11: 100, 12: 200})
    )
    assert SmallestFirstPolicy().select(backlog, scheduler) == 1


def test_priority_policy_orders_by_launch_then_kind():
    older_launch = _launch(5, 10, launch_id=1)
    newer_launch = _launch(6, 11, launch_id=2)
    send = T.SendTask(task_id=7, worker=0, chunk_id=12, region=Region.from_shape((4,)),
                      dst_worker=1, tag=3, nbytes=16)
    scheduler = _FakeScheduler(_FakeMemory({10: 0, 11: 0, 12: 0}))
    # Older launch beats newer launch.
    assert PriorityPolicy().select([newer_launch, older_launch], scheduler) == 1
    # A send (no launch_id attribute -> ranked by its own task id) with a lower
    # id than both launches goes first; communication rank is used within ties.
    assert PriorityPolicy().select([older_launch, send], scheduler) == 0


def test_priority_policy_prefers_communication_within_same_launch():
    launch = _launch(9, 10, launch_id=4)
    copy = T.CopyTask(task_id=8, worker=0, src_chunk=11, dst_chunk=12,
                      region=Region.from_shape((4,)), nbytes=32)
    copy.launch_id = 4  # planner tags tasks of one distributed launch
    scheduler = _FakeScheduler(_FakeMemory({10: 0, 11: 0, 12: 0}))
    assert PriorityPolicy().select([launch, copy], scheduler) == 1


# --------------------------------------------------------------------------- #
# staging throttle: backlogged promotions go first (real Scheduler, stubs)
# --------------------------------------------------------------------------- #
class _StagingMemory:
    """Memory stub: fixed chunk sizes; every staging is granted at once and
    recorded in order."""

    def __init__(self, sizes):
        self.sizes = sizes
        self.staged = []

    def announce(self, task_id, requirements):
        pass

    def footprint(self, requirements):
        return sum(self.sizes[chunk_id] for chunk_id, _ in requirements)

    def stage(self, task_id, requirements, callback, background, writes):
        self.staged.append(task_id)
        callback()

    def unstage(self, task_id):
        pass


class _HeldExecutor:
    """Executor stub that runs a staged task until the test finishes it."""

    def __init__(self):
        self.running = {}

    def execute(self, task, done):
        self.running[task.task_id] = done

    def finish(self, task_id):
        self.running.pop(task_id)()


def _throttled_scheduler(sizes, threshold=100):
    """A FIFO-policy ``Scheduler`` whose control path and staging act at once."""
    memory = _StagingMemory(sizes)
    executor = _HeldExecutor()
    runtime = SimpleNamespace(_waiters={}, notify_completion=lambda task_id: None)
    control = SimpleNamespace(request=lambda duration, callback, label="": callback())
    scheduler = Scheduler(runtime, 0, SimpleNamespace(scheduler=control), memory,
                          executor, stage_threshold=threshold)
    return scheduler, memory, executor


def _promote(task_id, chunk_id, nbytes):
    return T.PromoteChunkTask(task_id=task_id, worker=0, chunk_id=chunk_id,
                              device=GPU0, nbytes=nbytes)


def test_backlogged_promotion_stages_before_an_earlier_launch():
    scheduler, memory, executor = _throttled_scheduler({10: 80, 11: 50, 12: 50})
    scheduler.submit([_launch(1, 10, device=GPU0), _launch(2, 11, device=GPU0),
                      _promote(3, 12, 50)])
    assert memory.staged == [1]  # the full throttle backlogs launch 2, then the promotion
    executor.finish(1)
    assert memory.staged == [1, 3, 2]  # FIFO alone would stage launch 2 first


def test_promotion_too_large_for_the_throttle_does_not_hold_back_the_policy_pick():
    scheduler, memory, executor = _throttled_scheduler({10: 50, 11: 40, 12: 30, 13: 90})
    scheduler.submit([_launch(1, 10, device=GPU0), _launch(2, 11, device=GPU0),
                      _launch(3, 12, device=GPU0), _promote(4, 13, 90)])
    assert memory.staged == [1, 2]  # 90 of 100 bytes staged: launch 3 and the promotion wait
    executor.finish(1)  # 40 bytes staged: the promotion does not fit, launch 3 does
    assert memory.staged == [1, 2, 3]
    executor.finish(2)
    executor.finish(3)
    assert memory.staged == [1, 2, 3, 4]


# --------------------------------------------------------------------------- #
# memory-manager helper used by the locality policy
# --------------------------------------------------------------------------- #
def test_staging_bytes_needed_counts_only_non_resident_chunks():
    ctx = Context(azure_nc24rsv2(1, 1))
    a = ctx.from_numpy(np.arange(1024, dtype=np.float64), BlockDist(256))
    ctx.synchronize()
    worker = ctx.runtime.workers[0]
    chunk_ids = [chunk.chunk_id for chunk in a.chunks]
    requirements = [(cid, "gpu") for cid in chunk_ids]
    # Freshly uploaded chunks live in host memory: staging to GPU must move them.
    assert worker.memory.staging_bytes_needed(requirements) > 0
    # Staging to host (where they already are) moves nothing.
    assert worker.memory.staging_bytes_needed([(cid, "host") for cid in chunk_ids]) == 0
    # Unknown chunks are ignored rather than crashing the policy.
    assert worker.memory.staging_bytes_needed([(10 ** 9, "gpu")]) == 0


# --------------------------------------------------------------------------- #
# end-to-end: every policy produces correct results and completes
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_policies_preserve_functional_correctness(policy):
    ctx = Context(azure_nc24rsv2(nodes=1, gpus_per_node=2), scheduler_policy=policy)
    workload = create_workload("black_scholes", ctx, n=20_000)
    workload.run()
    assert workload.verify()


@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_policies_complete_under_memory_pressure(policy):
    """Small GPU pools force spilling and a throttled backlog — the policies'
    actual decision point — while results must stay correct."""
    ctx = Context(
        azure_nc24rsv2(nodes=1, gpus_per_node=1),
        scheduler_policy=policy,
        stage_threshold=1 * 1024 ** 2,
    )
    # Shrink the single GPU pool so chunks must be evicted and re-staged.
    worker = ctx.runtime.workers[0]
    gpu_space = ctx.cluster.nodes[0].devices[0].memory_space
    worker.memory._capacity[gpu_space] = 384 * 1024  # a few chunks only
    workload = create_workload("kmeans", ctx, n=30_000, chunk_elems=6_000)
    workload.run()
    assert workload.verify()


def test_policy_affects_only_performance_not_results_in_simulate_mode():
    """Identical plans under different policies finish with identical task counts."""
    times = {}
    tasks = {}
    for policy in sorted(POLICIES):
        ctx = Context(
            azure_nc24rsv2(nodes=1, gpus_per_node=4),
            mode=ExecutionMode.SIMULATE,
            scheduler_policy=policy,
        )
        workload = create_workload("gemm", ctx, n=int(2e13))
        result = workload.run()
        times[policy] = result.elapsed
        tasks[policy] = ctx.stats().tasks_completed
    assert len(set(tasks.values())) == 1, tasks
    for elapsed in times.values():
        assert elapsed > 0
