"""Tests for the execution planner, the task DAGs it builds and the runtime
that executes them (dependencies, communication, reductions, consistency)."""

import numpy as np
import pytest

from repro import (
    BlockDist,
    BlockWorkDist,
    Context,
    KernelCost,
    KernelDef,
    ReplicatedDist,
    StencilDist,
    azure_nc24rsv2,
)
from repro.core import tasks as T
from repro.core.planning import PlanningError
from repro.core.tasks import ExecutionPlan
from repro.kernels import create_workload
from repro.runtime.system import ExecutionMode


def make_ctx(nodes=1, gpus=2, **kw):
    return Context(azure_nc24rsv2(nodes=nodes, gpus_per_node=gpus), **kw)


def scale_kernel(ctx):
    def body(lc, n, out, inp):
        i = lc.global_indices(0)
        i = i[i < n]
        out.scatter(i, inp.gather(i) * 2.0)

    return (
        KernelDef("scale2", func=body)
        .param_value("n", "int64")
        .param_array("out", "float32")
        .param_array("inp", "float32")
        .annotate("global i => read inp[i], write out[i]")
        .with_cost(KernelCost(1, 8))
        .compile(ctx)
    )


# --------------------------------------------------------------------------- #
# plan structure
# --------------------------------------------------------------------------- #
def test_plan_validate_detects_cycles_and_duplicates():
    plan = ExecutionPlan()
    plan.add(T.CombineTask(task_id=1, worker=0, deps=(2,)))
    plan.add(T.CombineTask(task_id=2, worker=0, deps=(1,)))
    with pytest.raises(ValueError):
        plan.validate()
    dup = ExecutionPlan()
    dup.add(T.CombineTask(task_id=1, worker=0))
    dup.add(T.CombineTask(task_id=1, worker=0))
    with pytest.raises(ValueError):
        dup.validate()


def test_array_creation_plan_has_create_and_fill_per_chunk():
    ctx = make_ctx()
    x = ctx.zeros(1000, BlockDist(100), name="x")
    ctx.synchronize()
    assert x.chunk_count == 10
    stats = ctx.stats()
    # create + fill per chunk = 20 tasks
    assert stats.tasks_completed == 20


def test_local_launch_uses_chunks_directly_without_communication():
    ctx = make_ctx(nodes=1, gpus=2)
    kernel = scale_kernel(ctx)
    n = 1000
    x = ctx.ones(n, BlockDist(250), name="x")
    y = ctx.zeros(n, BlockDist(250), name="y")
    kernel.launch(n, 50, BlockWorkDist(250), (n, y, x))
    ctx.synchronize()
    stats = ctx.stats()
    assert stats.network_messages == 0
    # 4 superblocks, one launch task each, aligned with the chunks
    assert stats.kernel_launches == 4
    assert np.allclose(ctx.gather(y), 2.0)


def test_misaligned_distribution_generates_copies_but_stays_correct():
    """Work on GPUs that do not own the data: the planner inserts transfers."""
    ctx = make_ctx(nodes=1, gpus=2)
    kernel = scale_kernel(ctx)
    n = 600
    # data all on one chunk layout, work split differently (3 superblocks vs 2 chunks)
    x = ctx.ones(n, BlockDist(300), name="x")
    y = ctx.zeros(n, BlockDist(300), name="y")
    kernel.launch(n, 10, BlockWorkDist(200), (n, y, x))
    ctx.synchronize()
    assert np.allclose(ctx.gather(y), 2.0)


def test_cross_node_access_uses_send_recv():
    ctx = make_ctx(nodes=2, gpus=1)
    kernel = scale_kernel(ctx)
    n = 400
    # Both chunks of x live spread over the two nodes; the reversed work
    # distribution forces each node to read the other's chunk.
    x = ctx.ones(n, BlockDist(200), name="x")
    y = ctx.zeros(n, ReplicatedDist(), name="y")
    kernel.launch(n, 10, BlockWorkDist(200), (n, y, x))
    ctx.synchronize()
    stats = ctx.stats()
    assert stats.network_messages > 0
    assert np.allclose(ctx.gather(y), 2.0)


def test_empty_access_region_is_a_planning_error():
    ctx = make_ctx()

    def body(lc, out):
        return None

    kernel = (
        KernelDef("oob", func=body)
        .param_array("out", "float32")
        .annotate("global i => write out[i+1000]")
        .with_cost(KernelCost(1, 1))
        .compile(ctx)
    )
    out = ctx.zeros(10, BlockDist(10), name="out")
    with pytest.raises(PlanningError):
        kernel.launch(10, 10, BlockWorkDist(10), (out,))


# --------------------------------------------------------------------------- #
# sequential consistency across launches
# --------------------------------------------------------------------------- #
def test_dependent_launches_run_in_program_order():
    ctx = make_ctx(nodes=1, gpus=2)
    kernel = scale_kernel(ctx)
    n = 512
    dist = BlockDist(128)
    a = ctx.ones(n, dist, name="a")
    b = ctx.zeros(n, dist, name="b")
    # b = 2a ; a = 2b ; b = 2a  -> read-write / write-read / write-write chains
    for src, dst in ((a, b), (b, a), (a, b)):
        kernel.launch(n, 32, BlockWorkDist(128), (n, dst, src))
    ctx.synchronize()
    assert np.allclose(ctx.gather(b), 8.0)
    assert np.allclose(ctx.gather(a), 4.0)


def test_halo_coherence_between_iterations():
    """Replicated halo cells must be refreshed before the next launch reads them."""
    ctx = make_ctx(nodes=1, gpus=2)

    def shift(lc, n, out, inp):
        i = lc.global_indices(0)
        i = i[i < n]
        out.scatter(i, inp.gather(i - 1, fill=0.0) + 1.0)

    kernel = (
        KernelDef("shift", func=shift)
        .param_value("n", "int64")
        .param_array("out", "float32")
        .param_array("inp", "float32")
        .annotate("global i => read inp[i-1:i], write out[i]")
        .with_cost(KernelCost(1, 8))
        .compile(ctx)
    )
    n = 64
    dist = StencilDist(16, halo=1)
    x = ctx.zeros(n, dist, name="x")
    y = ctx.zeros(n, dist, name="y")
    iterations = 4
    src, dst = x, y
    for _ in range(iterations):
        kernel.launch(n, 8, BlockWorkDist(16), (n, dst, src))
        src, dst = dst, src
    result = ctx.gather(src)
    ref = np.zeros(n, dtype=np.float32)
    for _ in range(iterations):
        shifted = np.concatenate(([0.0], ref[:-1]))
        ref = (shifted + 1.0).astype(np.float32)
    assert np.array_equal(result, ref)


def test_reduction_produces_hierarchical_tasks_and_correct_result():
    ctx = make_ctx(nodes=2, gpus=2)

    def accumulate(lc, n, values, total):
        i = lc.global_indices(0)
        i = i[i < n]
        total[0] = total[0] + float(values.gather(i).sum())

    kernel = (
        KernelDef("sum_all", func=accumulate)
        .param_value("n", "int64")
        .param_array("values", "float32")
        .param_array("total", "float32")
        .annotate("global i => read values[i], reduce(+) total[0]")
        .with_cost(KernelCost(1, 4))
        .compile(ctx)
    )
    n = 4000
    data = np.arange(n, dtype=np.float32)
    values = ctx.from_numpy(data, BlockDist(500), name="values")
    total = ctx.zeros(1, ReplicatedDist(), name="total")
    kernel.launch(n, 100, BlockWorkDist(500), (n, values, total))
    ctx.synchronize()
    assert ctx.gather(total)[0] == pytest.approx(data.sum(), rel=1e-6)
    # a second launch overwrites (reduce semantics), not accumulates
    kernel.launch(n, 100, BlockWorkDist(500), (n, values, total))
    assert ctx.gather(total)[0] == pytest.approx(data.sum(), rel=1e-6)


# --------------------------------------------------------------------------- #
# runtime behaviour
# --------------------------------------------------------------------------- #
def test_simulate_mode_runs_without_materialising_data():
    ctx = make_ctx(mode=ExecutionMode.SIMULATE)
    kernel = scale_kernel(ctx)
    n = 10_000_000
    x = ctx.ones(n, BlockDist(1_000_000), name="x")
    y = ctx.zeros(n, BlockDist(1_000_000), name="y")
    kernel.launch(n, 256, BlockWorkDist(1_000_000), (n, y, x))
    elapsed = ctx.synchronize()
    assert elapsed > 0
    with pytest.raises(RuntimeError):
        ctx.gather(y)


def test_virtual_time_advances_monotonically_across_synchronisations():
    ctx = make_ctx()
    kernel = scale_kernel(ctx)
    n = 1000
    x = ctx.ones(n, BlockDist(250), name="x")
    y = ctx.zeros(n, BlockDist(250), name="y")
    t0 = ctx.synchronize()
    kernel.launch(n, 50, BlockWorkDist(250), (n, y, x))
    t1 = ctx.synchronize()
    kernel.launch(n, 50, BlockWorkDist(250), (n, x, y))
    t2 = ctx.synchronize()
    assert t0 <= t1 <= t2
    assert t2 > t0


def test_overlap_of_compute_and_pcie_is_visible_in_trace():
    """With data larger than GPU memory, kernels and PCIe transfers overlap."""
    ctx = Context(azure_nc24rsv2(nodes=1, gpus_per_node=1), mode=ExecutionMode.SIMULATE)
    from repro.kernels import KMeansWorkload

    workload = KMeansWorkload(ctx, n=1_500_000_000, iterations=3)
    workload.run()
    trace = ctx.trace()
    overlap = trace.overlap_time("w0.gpu0.compute", "w0.pcie")
    assert overlap > 0


def test_completion_state_is_released_after_every_pass():
    """The runtime keeps completion entries only for tasks still in flight."""
    ctx = make_ctx(mode=ExecutionMode.SIMULATE)
    work = create_workload("hotspot3", ctx, 64 * 64, chunk_elems=64 * 16, iterations=2)
    work.prepare()
    completed = 0
    for _ in range(3):
        work.submit()
        ctx.synchronize()
        assert ctx.runtime._waiters == {}
        assert ctx.stats().tasks_completed > completed
        completed = ctx.stats().tasks_completed


def test_a_task_completing_twice_is_rejected():
    ctx = make_ctx()
    runtime = ctx.runtime
    plan = ExecutionPlan()
    task = plan.add(T.CombineTask(task_id=runtime.task_ids.next_id(), worker=0))
    runtime.submit_plan(plan)
    runtime.run_until_idle()
    with pytest.raises(RuntimeError, match="completed twice"):
        runtime.notify_completion(task.task_id)


def test_deleted_array_cannot_be_used():
    ctx = make_ctx()
    kernel = scale_kernel(ctx)
    x = ctx.ones(100, BlockDist(50), name="x")
    y = ctx.zeros(100, BlockDist(50), name="y")
    x.delete()
    with pytest.raises(RuntimeError):
        kernel.launch(100, 10, BlockWorkDist(50), (100, y, x))
    with pytest.raises(RuntimeError):
        ctx.gather(x)


def test_delete_frees_worker_storage():
    ctx = make_ctx()
    x = ctx.ones(1000, BlockDist(250), name="x")
    ctx.synchronize()
    assert sum(w.storage.chunk_count for w in ctx.runtime.workers) == 4
    x.delete()
    ctx.synchronize()
    assert sum(w.storage.chunk_count for w in ctx.runtime.workers) == 0
