"""Tests for the pass-based planning pipeline: plan-structure properties,
the plan-template cache, topology-aware source selection and the
redundant-transfer elimination pass."""

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
from repro.core.distributions import ChunkPlacement, CustomDist
from repro.core.geometry import Region
from repro.core.planning import PlanTemplateCache
from repro.hardware.topology import DeviceId
from repro.kernels import create_workload


def make_ctx(nodes=1, gpus=2, **kw):
    return Context(azure_nc24rsv2(nodes=nodes, gpus_per_node=gpus), **kw)


def scale_kernel(ctx, name="scale2"):
    def body(lc, n, out, inp):
        i = lc.global_indices(0)
        i = i[i < n]
        out.scatter(i, inp.gather(i) * 2.0)

    return (
        KernelDef(name, func=body)
        .param_value("n", "int64")
        .param_array("out", "float32")
        .param_array("inp", "float32")
        .annotate("global i => read inp[i], write out[i]")
        .with_cost(KernelCost(1, 8))
        .compile(ctx)
    )


def read_all_kernel(ctx, name="readall"):
    def body(lc, n, out, inp):
        i = lc.global_indices(0)
        i = i[i < n]
        out.scatter(i, inp.gather(i) + 1.0)

    return (
        KernelDef(name, func=body)
        .param_value("n", "int64")
        .param_array("out", "float32")
        .param_array("inp", "float32")
        .annotate("global i => read inp[:], write out[i]")
        .with_cost(KernelCost(1, 8))
        .compile(ctx)
    )


# --------------------------------------------------------------------------- #
# property: every planned DAG is well-formed
# --------------------------------------------------------------------------- #
def _stencil_scenario():
    ctx = make_ctx(nodes=2, gpus=2, record_plans=True)
    n, chunk = 256, 32
    dist = StencilDist(chunk, halo=1)
    a = ctx.ones(n, dist, name="a")
    b = ctx.zeros(n, dist, name="b")
    kernel = scale_kernel(ctx)
    src, dst = a, b
    for _ in range(6):
        kernel.launch(n, 8, BlockWorkDist(chunk), (n, dst, src))
        src, dst = dst, src
    ctx.gather(src)
    return ctx


def _misaligned_scenario():
    ctx = make_ctx(nodes=1, gpus=2, record_plans=True)
    n = 600
    a = ctx.ones(n, BlockDist(300), name="a")
    b = ctx.zeros(n, BlockDist(300), name="b")
    kernel = scale_kernel(ctx)
    for _ in range(4):
        kernel.launch(n, 10, BlockWorkDist(200), (n, b, a))
    ctx.gather(b)
    return ctx


def _reduction_scenario():
    ctx = make_ctx(nodes=2, gpus=2, record_plans=True)
    workload = create_workload("kmeans", ctx, n=2048, iterations=3, chunk_elems=512)
    workload.run()
    return ctx


@pytest.mark.parametrize(
    "scenario", [_stencil_scenario, _misaligned_scenario, _reduction_scenario]
)
def test_planned_dags_are_acyclic_with_backward_dependencies(scenario):
    """Every dependency points at an already-emitted task (same plan or an
    earlier one), so the merged DAG is acyclic by construction."""
    ctx = scenario()
    emitted = set()
    assert ctx.recorded_plans, "scenario must record plans"
    for plan in ctx.recorded_plans:
        # task ids are allocated in emission order, so sorting by id recovers
        # the order in which the planner emitted the tasks
        for task in sorted(plan.all_tasks(), key=lambda t: t.task_id):
            for dep in task.deps:
                assert dep < task.task_id, (
                    f"{task} depends on {dep}, which is not an earlier task"
                )
                assert dep in emitted, f"{task} depends on never-emitted task {dep}"
            emitted.add(task.task_id)

    from repro.analysis import PlanGraph

    assert PlanGraph.from_context(ctx).is_acyclic()


# --------------------------------------------------------------------------- #
# plan-template cache
# --------------------------------------------------------------------------- #
def _run_iterative(plan_cache, launches=5):
    ctx = make_ctx(nodes=2, gpus=2, record_plans=True, plan_cache=plan_cache)
    n, chunk = 256, 32
    dist = StencilDist(chunk, halo=1)
    a = ctx.ones(n, dist, name="a")
    b = ctx.zeros(n, dist, name="b")
    kernel = scale_kernel(ctx)
    for _ in range(launches):
        kernel.launch(n, 8, BlockWorkDist(chunk), (n, b, a))
    result = ctx.gather(b)
    return ctx, result


def test_cached_relaunch_is_structurally_identical_to_cold_planning():
    """Re-stamping a cached template must reproduce exactly the plan that
    cold planning would have produced (ids included, since allocation is
    deterministic)."""
    ctx_cached, result_cached = _run_iterative(plan_cache=True)
    ctx_cold, result_cold = _run_iterative(plan_cache=False)

    assert ctx_cached.stats().plan_cache_hits == 4
    assert ctx_cold.stats().plan_cache_hits == 0
    assert np.array_equal(result_cached, result_cold)

    cached_plans = [p for p in ctx_cached.recorded_plans if p.launch_id is not None]
    cold_plans = [p for p in ctx_cold.recorded_plans if p.launch_id is not None]
    assert len(cached_plans) == len(cold_plans) == 5
    for cached, cold in zip(cached_plans, cold_plans):
        assert cached.workers() == cold.workers()
        for worker in cached.workers():
            assert cached.tasks_by_worker[worker] == cold.tasks_by_worker[worker]


def test_cache_counters_and_flag_plumbing():
    ctx, _ = _run_iterative(plan_cache=True)
    stats = ctx.stats()
    assert stats.plan_cache_misses == 1
    assert stats.plan_cache_hits == 4
    assert ctx.planner.cache.hit_rate == pytest.approx(0.8)

    ctx_off, _ = _run_iterative(plan_cache=False)
    stats_off = ctx_off.stats()
    assert stats_off.plan_cache_hits == 0 and stats_off.plan_cache_misses == 0
    assert len(ctx_off.planner.cache) == 0


def test_cached_plans_charge_less_driver_planning_time():
    ctx_on, _ = _run_iterative(plan_cache=True, launches=10)
    ctx_off, _ = _run_iterative(plan_cache=False, launches=10)
    busy_on = ctx_on.stats().resource_busy.get("driver.plan", 0.0)
    busy_off = ctx_off.stats().resource_busy.get("driver.plan", 0.0)
    assert 0.0 < busy_on < busy_off


def test_plan_keys_follow_the_chunk_layout_not_the_epoch():
    """A key names each array's chunk layout, memoised per layout epoch: an
    epoch bump with the same chunks still hits, a new layout misses."""
    ctx = make_ctx(nodes=1, gpus=2)
    n = 256
    a = ctx.ones(n, BlockDist(64), name="a")
    b = ctx.zeros(n, BlockDist(64), name="b")
    kernel = scale_kernel(ctx)
    kernel.launch(n, 8, BlockWorkDist(64), (n, b, a))
    kernel.launch(n, 8, BlockWorkDist(64), (n, b, a))
    assert ctx.planner.cache.hits == 1
    a.layout_epoch += 1  # the signature is recomputed: the same layout
    kernel.launch(n, 8, BlockWorkDist(64), (n, b, a))
    assert ctx.planner.cache.hits == 2
    a.redistribute(BlockDist(32))
    kernel.launch(n, 8, BlockWorkDist(64), (n, b, a))
    assert ctx.planner.cache.hits == 2
    assert ctx.planner.cache.misses == 2
    assert np.allclose(ctx.gather(b), 2.0)


def test_cached_reduction_relaunch_keeps_overwrite_semantics():
    ctx = make_ctx(nodes=2, gpus=2)

    def accumulate(lc, n, values, total):
        i = lc.global_indices(0)
        i = i[i < n]
        total[0] = total[0] + float(values.gather(i).sum())

    kernel = (
        KernelDef("sum_all_cached", func=accumulate)
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
    for _ in range(3):
        kernel.launch(n, 100, BlockWorkDist(500), (n, values, total))
        assert ctx.gather(total)[0] == pytest.approx(data.sum(), rel=1e-6)
    assert ctx.stats().plan_cache_hits == 2


def test_unhashable_work_distribution_falls_back_to_cold_planning():
    """User work distributions need not be hashable; the cache must step
    aside instead of raising TypeError inside kernel.launch."""
    from repro.core.distributions import WorkDistribution, BlockWorkDist as _Block

    class ListCarryingWorkDist(WorkDistribution):
        def __init__(self):
            self.extra = []  # makes instances compare unhashable via key parts

        def __eq__(self, other):
            return isinstance(other, ListCarryingWorkDist)

        __hash__ = None  # type: ignore[assignment]

        def superblocks(self, grid, block, devices):
            return _Block(64).superblocks(grid, block, devices)

    ctx = make_ctx(nodes=1, gpus=2)
    n = 256
    a = ctx.ones(n, BlockDist(64), name="a")
    b = ctx.zeros(n, BlockDist(64), name="b")
    kernel = scale_kernel(ctx)
    work = ListCarryingWorkDist()
    for _ in range(3):
        kernel.launch(n, 8, work, (n, b, a))
    ctx.synchronize()
    stats = ctx.stats()
    assert stats.plan_cache_hits == 0 and stats.plan_cache_misses == 0
    assert np.allclose(ctx.gather(b), 2.0)


def test_cache_eviction_is_bounded():
    cache = PlanTemplateCache(maxsize=2)
    for key in ("a", "b", "c"):
        assert cache.lookup(key) is None
        cache.store(key, object())
    assert len(cache) == 2
    assert cache.lookup("a") is None  # evicted (LRU)
    assert cache.lookup("c") is not None
    assert "entries" in cache.describe()


# --------------------------------------------------------------------------- #
# topology-aware source selection + redundant-transfer elimination
# --------------------------------------------------------------------------- #
def test_local_replicas_beat_remote_enclosing_chunk():
    """Two local chunks jointly covering the region must win over a remote
    replica that covers it alone: no network traffic may be generated."""
    ctx = make_ctx(nodes=2, gpus=2)
    n = 100
    gpu00, gpu01 = DeviceId(0, 0), DeviceId(0, 1)
    gpu10 = DeviceId(1, 0)
    dist = CustomDist(placements=(
        ChunkPlacement(Region((0,), (50,)), gpu00),
        ChunkPlacement(Region((50,), (100,)), gpu01),
        ChunkPlacement(Region((0,), (100,)), gpu10),  # remote full replica
    ))
    inp = ctx.ones(n, dist, name="inp")
    out = ctx.zeros(n, BlockDist(n), name="out")  # single chunk on gpu(0,0)
    kernel = read_all_kernel(ctx)
    kernel.launch(n, 10, BlockWorkDist(n), (n, out, inp))
    ctx.synchronize()
    stats = ctx.stats()
    assert stats.network_messages == 0, "planner picked a remote source unnecessarily"
    assert np.allclose(ctx.gather(out), 2.0)


def test_remote_source_is_used_when_nothing_local_covers():
    ctx = make_ctx(nodes=2, gpus=2)
    n = 100
    dist = CustomDist(placements=(
        ChunkPlacement(Region((0,), (100,)), DeviceId(1, 0)),
    ))
    inp = ctx.ones(n, dist, name="inp")
    out = ctx.zeros(n, BlockDist(n), name="out")
    kernel = read_all_kernel(ctx, name="readall_remote")
    kernel.launch(n, 10, BlockWorkDist(n), (n, out, inp))
    ctx.synchronize()
    assert ctx.stats().network_messages > 0
    assert np.allclose(ctx.gather(out), 2.0)


def test_overlapping_sources_are_trimmed_to_disjoint_pieces():
    """Assembling a temp from overlapping chunks must not transfer the
    overlap twice: total gathered bytes equal the region size exactly."""
    ctx = make_ctx(nodes=1, gpus=2, record_plans=True)
    n = 100
    gpu00, gpu01 = DeviceId(0, 0), DeviceId(0, 1)
    dist = CustomDist(placements=(
        ChunkPlacement(Region((0,), (60,)), gpu00),
        ChunkPlacement(Region((40,), (100,)), gpu00),  # overlaps [40, 60)
    ))
    inp = ctx.ones(n, dist, name="inp")
    # the consuming superblock runs on gpu(0,1), so a temp is assembled there
    out = ctx.zeros(n, CustomDist(placements=(
        ChunkPlacement(Region((0,), (100,)), gpu01),
    )), name="out")
    kernel = read_all_kernel(ctx, name="readall_trim")
    kernel.launch(n, 10, BlockWorkDist(n, axis=0), (n, out, inp))
    ctx.synchronize()
    gather_bytes = sum(
        task.nbytes
        for plan in ctx.recorded_plans
        for task in plan.all_tasks()
        if task.kind == "copy" and task.label.startswith("gather inp")
    )
    assert gather_bytes == n * 4  # float32, no redundant overlap re-transfer
    assert ctx.planner.pass_stats.get("eliminated_bytes", 0) > 0
    assert np.allclose(ctx.gather(out), 2.0)


# --------------------------------------------------------------------------- #
# satellite: public MemoryManager.home_of accessor
# --------------------------------------------------------------------------- #
def test_memory_manager_home_of_accessor():
    ctx = make_ctx(nodes=1, gpus=2)
    x = ctx.ones(256, BlockDist(128), name="x")
    ctx.synchronize()
    memory = ctx.runtime.workers[0].memory
    for chunk in x.chunks:
        assert memory.home_of(chunk.chunk_id) == chunk.home
    assert memory.home_of(10_000_000) is None


# --------------------------------------------------------------------------- #
# CLI flag
# --------------------------------------------------------------------------- #
def test_cli_plan_cache_flag(capsys):
    from repro.cli import main

    assert main(["run", "kmeans", "--n", "1e6", "--no-plan-cache"]) == 0
    assert main(["run", "kmeans", "--n", "1e6", "--plan-cache"]) == 0
    assert "kmeans" in capsys.readouterr().out
