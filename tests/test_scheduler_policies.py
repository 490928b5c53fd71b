"""Tests for the per-worker scheduler's staging throttle: the backlog it
keeps under memory pressure and the precedence it gives window promotions."""

from types import SimpleNamespace

from repro import Context, azure_nc24rsv2
from repro.core import tasks as T
from repro.core.geometry import Region
from repro.hardware import DeviceId
from repro.kernels import create_workload
from repro.runtime.scheduler import Scheduler

GPU0 = DeviceId(0, 0)


# --------------------------------------------------------------------------- #
# staging throttle: backlogged promotions go first (real Scheduler, stubs)
# --------------------------------------------------------------------------- #
def _launch(task_id, chunk_id, device):
    binding = T.ArrayArgBinding(
        param="a",
        chunk_id=chunk_id,
        access_region=Region.from_shape((4,)),
        mode="read",
    )
    return T.LaunchTask(
        task_id=task_id,
        worker=0,
        kernel_names=("k",),
        device=device,
        array_args_list=((binding,),),
    )


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
    """A ``Scheduler`` whose control path and staging act at once."""
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
# end-to-end: a throttled backlog under memory pressure still verifies
# --------------------------------------------------------------------------- #
def test_throttled_backlog_completes_under_memory_pressure(monkeypatch):
    """A small GPU pool forces spilling and a small staging throttle holds
    tasks back in the scheduler's backlog, while results must stay correct."""
    backlogged = []
    begin_staging = Scheduler._begin_staging

    def recording(self, task):
        begin_staging(self, task)
        if task.task_id in self._throttled_info:
            backlogged.append(task.task_id)

    monkeypatch.setattr(Scheduler, "_begin_staging", recording)
    ctx = Context(
        azure_nc24rsv2(nodes=1, gpus_per_node=1),
        stage_threshold=128 * 1024,
        memory_capacities={GPU0.memory_space: 384 * 1024},  # a few chunks only
    )
    workload = create_workload("kmeans", ctx, n=30_000, chunk_elems=6_000)
    workload.run()
    assert workload.verify()
    assert backlogged
    assert ctx.stats().staging_stalls > 0
