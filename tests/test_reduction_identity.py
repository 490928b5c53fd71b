"""Tests for reduction temporaries created holding their identity.

Every superblock partial, per-GPU accumulator and root accumulator of a
``reduce(f)`` launch is created by one create task that carries f's
identity, exact in the array's dtype: no fill task initialises it in host
memory and no upload brings it to its GPU.  Fill tasks come only from array
creation (``zeros``/``full``/``from_numpy``), and lineage replay rebuilds a
lost temporary from its create."""

import numpy as np

from repro import (
    BlockDist,
    BlockWorkDist,
    Context,
    CustomWorkDist,
    KernelCost,
    KernelDef,
    ReplicatedDist,
    azure_nc24rsv2,
)
from repro.core import tasks as T
from repro.core.reductions import get_reduce_op
from repro.kernels import create_workload

N = 1024
OP_NAMES = {"+": "add", "*": "mul", "min": "min", "max": "max"}
DTYPES = ("int32", "int64", "uint64", "float32")


def make_ctx(gpus=2, **kw):
    return Context(azure_nc24rsv2(nodes=1, gpus_per_node=gpus), **kw)


def reduce_kernel(ctx, op, dtype, name=None):
    """``reduce(op)`` of every element of ``inp`` into ``acc[0]``."""
    combine = get_reduce_op(op).combine

    def body(lc, n, inp, acc):
        i = lc.global_indices(0)
        i = i[i < n]
        if i.size:
            acc[0:1] = combine(acc[0:1], combine.reduce(inp.gather(i))).astype(dtype)

    return (
        KernelDef(name or f"reduce_{OP_NAMES[op]}_{dtype}", func=body)
        .param_value("n", "int64")
        .param_array("inp", dtype)
        .param_array("acc", dtype)
        .annotate(f"global i => read inp[i], reduce({op}) acc[0]")
        .with_cost(KernelCost(1, 8))
        .compile(ctx)
    )


def point_kernel(ctx):
    def body(lc, n, out, inp):
        i = lc.global_indices(0)
        i = i[i < n]
        out.scatter(i, inp.gather(i) * np.float32(2.0))

    return (
        KernelDef("double_it", func=body)
        .param_value("n", "int64")
        .param_array("out", "float32")
        .param_array("inp", "float32")
        .annotate("global i => read inp[i], write out[i]")
        .with_cost(KernelCost(1, 8))
        .compile(ctx)
    )


def inputs(op, dtype, rng):
    """Values whose reduction is exact in ``dtype`` and, for min and max,
    lie next to the identity, so an identity off by one ulp shows."""
    dtype = np.dtype(dtype)
    if op == "+":
        return rng.integers(0, 10, N).astype(dtype)
    if op == "*":
        values = np.ones(N, dtype=dtype)
        values[rng.choice(N, 12, replace=False)] = 2
        return values
    if dtype.kind == "f":
        return (rng.random(N) * 1e6 * (1 if op == "min" else -1)).astype(dtype)
    info = np.iinfo(dtype)
    if op == "min":
        return (info.max - rng.integers(1, 1000, N).astype(dtype)).astype(dtype)
    return (info.min + rng.integers(1, 1000, N).astype(dtype)).astype(dtype)


def reduction_temps(plans):
    """Every create task of a launch plan that makes a reduction temporary."""
    return [
        task
        for plan in plans
        if plan.launch_id is not None
        for task in plan.all_tasks()
        if isinstance(task, T.CreateChunkTask)
        and task.chunk.label.startswith(("partial ", "acc "))
        and " from " not in task.chunk.label
    ]


def test_integer_and_float_reductions_into_replicated_arrays_equal_numpy():
    """``+``, ``*``, ``min`` and ``max`` into replicated int32, int64, uint64
    and float32 arrays on two GPUs (two superblocks each) equal NumPy's
    reduction: each identity is exact in its dtype (``min`` into int64 used
    to raise ``OverflowError`` from ``float(2**63 - 1)``)."""
    ctx = make_ctx(mode="functional")
    rng = np.random.default_rng(7)
    expected, results = {}, {}
    for dtype in DTYPES:
        for op in OP_NAMES:
            values = inputs(op, dtype, rng)
            inp = ctx.from_numpy(values, BlockDist(N // 4), name=f"in_{OP_NAMES[op]}_{dtype}")
            acc = ctx.zeros(1, ReplicatedDist(), dtype=dtype, name=f"acc_{OP_NAMES[op]}_{dtype}")
            reduce_kernel(ctx, op, dtype).launch(N, 64, BlockWorkDist(N // 4), (N, inp, acc))
            expected[(op, dtype)] = get_reduce_op(op).combine.reduce(values)
            results[(op, dtype)] = acc
    ctx.synchronize()
    for key, acc in results.items():
        got = ctx.gather(acc)
        assert got.dtype == np.dtype(key[1]), key
        assert got[0] == expected[key], (key, got[0], expected[key])


def test_no_launch_plan_holds_a_fill_task():
    """A plain reduce launch, a fused reduction tail (with epilogues on four
    GPUs, with reduce tasks on two) and a reduction whose root device runs
    no superblock all create their temporaries holding the identity, and no
    launch plan holds a fill task."""

    def plain(ctx):
        x = ctx.from_numpy(-np.arange(1, N + 1, dtype=np.float32), BlockDist(N // 4), name="x")
        best = ctx.zeros(1, ReplicatedDist(), dtype="float32", name="best")
        reduce_kernel(ctx, "max", "float32").launch(N, 64, BlockWorkDist(N // 4), (N, x, best))
        return best, np.float32(-1.0), {"partial", "acc"}

    def fused_tail(ctx):
        x = ctx.from_numpy(-np.arange(1, N + 1, dtype=np.float32), BlockDist(N // 4), name="x")
        y = ctx.zeros(N, BlockDist(N // 4), dtype="float32", name="y")
        best = ctx.zeros(1, ReplicatedDist(), dtype="float32", name="best")
        point_kernel(ctx).launch(N, 64, BlockWorkDist(N // 4), (N, y, x))
        reduce_kernel(ctx, "max", "float32").launch(N, 64, BlockWorkDist(N // 4), (N, y, best))
        return best, np.float32(-2.0), {"partial", "acc"}

    def root_runs_nothing(ctx):
        def on_other_gpus(grid, block, devices):
            return BlockWorkDist(N // 4).superblocks(grid, block, devices[1:])

        x = ctx.from_numpy(-np.arange(1, N + 1, dtype=np.float32), BlockDist(N // 4), name="x")
        best = ctx.zeros(1, BlockDist(1), dtype="float32", name="best")
        assert {chunk.home.local_index for chunk in best.chunks} == {0}
        reduce_kernel(ctx, "max", "float32").launch(
            N, 64, CustomWorkDist(on_other_gpus), (N, x, best)
        )
        return best, np.float32(-1.0), {"partial", "acc", "root"}

    programs = [(plain, 2, False), (fused_tail, 4, True), (fused_tail, 2, True),
                (root_runs_nothing, 2, False)]
    for program, gpus, fused in programs:
        ctx = make_ctx(gpus=gpus, mode="functional", record_plans=True)
        best, want, kinds = program(ctx)
        ctx.synchronize()
        assert ctx.stats().reductions_fused == int(fused)
        assert ctx.gather(best)[0] == want
        launch_plans = [plan for plan in ctx.recorded_plans if plan.launch_id is not None]
        assert launch_plans
        assert not [t for plan in launch_plans for t in plan.all_tasks()
                    if isinstance(t, T.FillTask)], program.__name__
        temps = reduction_temps(launch_plans)
        found = {"root" if t.chunk.label.endswith(" root") else t.chunk.label.split()[0]
                 for t in temps}
        assert found == kinds, (program.__name__, found)
        for task in temps:
            assert task.value.dtype == np.float32 and np.isneginf(task.value), task.label


def test_functional_kmeans2_fills_only_when_it_creates_arrays():
    """In a functional kmeans2 run every fill task belongs to an array
    creation plan, one per created chunk."""
    ctx = make_ctx(gpus=4, mode="functional", record_plans=True)
    workload = create_workload("kmeans2", ctx, 40_960)
    workload.run()
    assert workload.verify()
    plans = ctx.recorded_plans
    fills = [(plan, t) for plan in plans for t in plan.all_tasks() if t.kind == "fill"]
    creations = [plan for plan in plans if plan.description.startswith("create ")]
    assert fills and creations
    assert all(plan in creations for plan, _ in fills)
    assert len(fills) == sum(
        1 for plan in creations for t in plan.all_tasks() if t.kind == "createchunk"
    )
    temps = reduction_temps(plans)
    assert temps and all(t.value == 0 for t in temps)


def test_a_lost_max_accumulator_replays_from_its_create(monkeypatch):
    """A device fails during a ``reduce(max)`` run.  Recovery waits for the
    run to drain, and the destination's only chunk, on the failed GPU, is
    lost: lineage replay rebuilds the accumulators it was reduced through
    from their creates, holding -inf, and the gathered result is
    bit-identical to the fault-free run's (every value is negative, so an
    accumulator replayed as zeros would show)."""
    values = -np.linspace(1.0, 2.0, N, dtype=np.float32)

    def run(fail):
        ctx = make_ctx(mode="functional", faults="")
        x = ctx.from_numpy(values, BlockDist(N // 8), name="x")
        best = ctx.zeros(1, BlockDist(1), dtype="float32", name="best")
        assert [chunk.home for chunk in best.chunks] == [ctx.devices()[0]]
        kernel = reduce_kernel(ctx, "max", "float32")
        for _ in range(3):
            kernel.launch(N, 64, BlockWorkDist(N // 8), (N, x, best))
        if fail:
            ctx.flush_launches()
            ctx.runtime.engine.run(max_events=50)
            ctx.fail_device(ctx.devices()[0])
        ctx.synchronize()
        return ctx.gather(best), ctx

    expected, _ = run(fail=False)
    assert expected[0] == values.max()

    created = []
    apply = T.CreateChunkTask.apply

    def recorded(task, storage, kernels):
        created.append((task, storage))
        apply(task, storage, kernels)

    monkeypatch.setattr(T.CreateChunkTask, "apply", recorded)
    got, ctx = run(fail=True)
    assert ctx.stats().chunks_lost > 0
    assert got.tobytes() == expected.tobytes()
    workers = [worker.storage for worker in ctx.runtime.workers]
    replayed = [task for task, storage in created
                if not any(storage is own for own in workers)
                and task.chunk.label.startswith("acc ")]
    assert replayed
    for task in replayed:
        assert task.value.dtype == np.float32 and np.isneginf(task.value), task.label
