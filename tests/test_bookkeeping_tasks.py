"""Tests for bookkeeping tasks (create, delete, combine).

They stage nothing and run on no resource, so a worker's scheduler applies
each the moment its last dependency finishes and reports its completion at
once: no scheduler-channel or CPU interval, no virtual time.  The tasks stay
in the plans, so every task count is unchanged."""

import numpy as np
import pytest

import repro.apps  # noqa: F401  (registers the cgc workload)
from repro import BlockDist, BlockWorkDist, Context, KernelCost, KernelDef, azure_nc24rsv2
from repro.core import tasks as T
from repro.kernels import create_workload

BOOKKEEPING = ("createchunk", "deletechunk", "combine")


def test_bookkeeping_tasks_skip_the_scheduler_and_cpu_channels():
    ctx = Context(azure_nc24rsv2(nodes=1, gpus_per_node=4), mode="functional",
                  record_plans=True)
    workload = create_workload("kmeans2", ctx, 40_960)
    workload.run()
    assert workload.verify()
    tasks = [task for plan in ctx.runtime.recorded_plans for task in plan.all_tasks()]
    bookkeeping = [task for task in tasks if task.kind in BOOKKEEPING]
    assert {"createchunk", "deletechunk"} <= {task.kind for task in bookkeeping}
    intervals = ctx.runtime.trace.intervals
    sched = [i for i in intervals if i.resource.endswith(".sched")]
    assert not [i for i in sched if i.label in ("sched createchunk", "sched deletechunk")]
    assert not [i for i in intervals if i.resource.endswith(".cpu")
                and i.label.startswith(("create", "delete"))]
    assert len(sched) == len(tasks) - len(bookkeeping)
    assert ctx.stats().tasks_completed == len(tasks)
    assert all(task.bookkeeping == (task.kind in BOOKKEEPING) for task in tasks)


def test_a_delete_takes_effect_the_instant_its_last_reader_finishes():
    ctx = Context(azure_nc24rsv2(nodes=1, gpus_per_node=2), mode="functional",
                  record_plans=True)

    def body(lc, n, out, inp):
        i = lc.global_indices(0)
        i = i[i < n]
        out.scatter(i, inp.gather(i) * 2.0)

    kernel = (
        KernelDef("double_it", func=body).param_value("n", "int64")
        .param_array("out", "float32").param_array("inp", "float32")
        .annotate("global i => read inp[i], write out[i]")
        .with_cost(KernelCost(1, 8)).compile(ctx)
    )
    n = 1024
    x = ctx.ones(n, BlockDist(n // 2), name="x")
    y = ctx.zeros(n, BlockDist(n // 2), name="y")
    kernel.launch(n, 64, BlockWorkDist(n // 2), (n, y, x))
    x.delete()
    ctx.flush_launches()

    runtime = ctx.runtime
    deletes = {task.task_id: task for plan in runtime.recorded_plans
               for task in plan.all_tasks() if isinstance(task, T.DeleteChunkTask)}
    assert len(deletes) == len(x.chunks) == 2
    watched = {}  # dependency id -> the delete tasks waiting on it
    for delete in deletes.values():
        assert delete.deps
        for dep in delete.deps:
            watched.setdefault(dep, []).append(delete)
    nbytes = {chunk.chunk_id: chunk.nbytes for chunk in x.chunks}
    seen = []
    notify = runtime.notify_completion

    def spy(task_id):
        checks = []
        for delete in watched.get(task_id, ()):
            memory = runtime.workers[delete.worker].memory
            if memory.knows(delete.chunk_id):
                space = memory.residency(delete.chunk_id)
                checks.append((delete, memory, space, memory.used_bytes(space)))
        notify(task_id)
        for delete, memory, space, used in checks:
            if any(dep in runtime._waiters for dep in delete.deps):
                continue  # not the delete's last dependency
            seen.append(delete.chunk_id)
            assert delete.task_id not in runtime._waiters
            assert not memory.knows(delete.chunk_id)
            assert delete.chunk_id not in runtime.workers[delete.worker].storage
            assert memory.used_bytes(space) == used - nbytes[delete.chunk_id]

    runtime.notify_completion = spy
    ctx.synchronize()
    assert sorted(seen) == sorted(nbytes)
    np.testing.assert_array_equal(ctx.gather(y), np.full(n, 2.0, dtype=np.float32))


#: functional runs: (n, nodes, gpus), then the task, launch, network-byte and
#: plan-cache counts, and the virtual time the runtime reached when every
#: bookkeeping task still passed through the scheduler and CPU channels.
#: The task counts are those of plans whose reduction temporaries are
#: created holding their identity (no fill task follows their creates):
#: 20 fewer for kmeans2 and 6 fewer for cgc than in the plans of that time.
PARENT = {
    "hotspot3": ((128 * 128, 2, 2), (30, 30, 0, 8, 2), 0.0025599303834038037),
    "kmeans2": ((40_960, 1, 4), (153, 15, 0, 8, 2), 0.011402892313754178),
    "cgc": ((64 * 64, 2, 2), (125, 8, 40192, 0, 5), 0.005977219895360479),
}


@pytest.mark.parametrize("name", sorted(PARENT))
def test_counts_are_unchanged_and_virtual_time_falls(name):
    (n, nodes, gpus), counts, virtual_time = PARENT[name]
    ctx = Context(azure_nc24rsv2(nodes=nodes, gpus_per_node=gpus), mode="functional")
    workload = create_workload(name, ctx, n)
    workload.run()
    stats = ctx.stats()
    assert (stats.tasks_completed, stats.kernel_launches, stats.network_bytes,
            stats.plan_cache_hits, stats.plan_cache_misses) == counts
    assert stats.virtual_time < virtual_time
    assert workload.verify()
