"""Tests for window-aware memory planning: the reserve/release/promotion
machinery (``MemoryManager.reserve``, the drain pass in
``repro.core.planning.memplan``) and the spill/prefetch interplay.

The end-to-end tests run the same spill-stress configurations the perf
harness sweeps: a GPU pool capped well below the working set, once in the
*streaming* regime (each launch group's working set fits the space — the
promotion sweet spot) and once in the *thrash* regime (every launch touches
everything — only planned pre-eviction engages).  Functional results must be
bit-identical with the pass on or off; the pass must measurably reduce
staging-time evictions.
"""

import numpy as np

from repro import (
    BlockDist,
    BlockWorkDist,
    Context,
    KernelCost,
    KernelDef,
    azure_nc24rsv2,
)
from repro.core import tasks as T
from repro.core.chunk import ChunkMeta
from repro.core.geometry import Region
from repro.hardware import Cluster, DeviceId, MemoryKind, MemorySpace
from repro.kernels import create_workload
from repro.perfmodel import DEFAULT_OVERHEADS
from repro.runtime.memory import MemoryManager
from repro.runtime.resources import WorkerResources
from repro.simulator import Engine, Trace

MB = 1024 ** 2
GPU0 = DeviceId(0, 0)


# --------------------------------------------------------------------------- #
# MemoryManager.reserve / release unit tests
# --------------------------------------------------------------------------- #
def make_manager(gpu_capacity=4 * MB):
    cluster = Cluster(azure_nc24rsv2(nodes=1, gpus_per_node=1))
    node = cluster.node(0)
    engine = Engine()
    resources = WorkerResources(engine, node, DEFAULT_OVERHEADS, Trace())
    capacities = {
        GPU0.memory_space: gpu_capacity,
        MemorySpace(0, MemoryKind.HOST): 16 * MB,
        MemorySpace(0, MemoryKind.DISK): 64 * MB,
    }
    return MemoryManager(node, resources, capacities=capacities), engine


def chunk(chunk_id, mb, device=GPU0):
    elems = mb * MB // 4
    return ChunkMeta(chunk_id=chunk_id, region=Region((0,), (elems,)),
                     dtype=np.float32, home=device, array_id=1)


def stage(manager, engine, task_id, requirements):
    done = []
    manager.stage(task_id, requirements, lambda: done.append(task_id))
    engine.run()
    return bool(done)


def test_reserve_preevicts_lru_victims_outside_the_working_set():
    manager, engine = make_manager(gpu_capacity=4 * MB)
    for cid in (1, 2, 3, 4):
        manager.register(chunk(cid, 1))
        assert stage(manager, engine, 100 + cid, [(cid, "gpu")])
        manager.unstage(100 + cid)
    gpu = GPU0.memory_space
    assert manager.used_bytes(gpu) == 4 * MB  # full: 1..4 resident, unpinned

    # Reserve for a "next group" that needs chunks 5 and 6: victims must be
    # the LRU chunks 1 and 2, not the reserved set.
    manager.register(chunk(5, 1))
    manager.register(chunk(6, 1))
    evicted = manager.reserve(gpu, [5, 6], 2 * MB)
    assert evicted == 2
    assert manager.stats.chunks_preevicted == 2
    assert manager.residency(1).kind is MemoryKind.HOST
    assert manager.residency(2).kind is MemoryKind.HOST
    assert manager.residency(3) == gpu and manager.residency(4) == gpu
    assert manager.free_bytes(gpu) == 2 * MB


def test_reserve_caps_at_what_is_achievable():
    manager, engine = make_manager(gpu_capacity=4 * MB)
    manager.register(chunk(1, 2))
    assert stage(manager, engine, 101, [(1, "gpu")])  # still pinned
    manager.register(chunk(2, 2))
    gpu = GPU0.memory_space
    # Asking for more than evictable bytes must not raise: the pinned chunk
    # stays, the reservation frees what it can.
    evicted = manager.reserve(gpu, [2], 4 * MB)
    assert evicted == 0
    assert manager.residency(1) == gpu


# --------------------------------------------------------------------------- #
# end-to-end: the streaming spill-stress regime (fit: promotion engages)
# --------------------------------------------------------------------------- #
def streaming_context(window_memory, gpus=2, cap_mb=48):
    caps = {DeviceId(0, i).memory_space: cap_mb * MB for i in range(gpus)}
    return Context(azure_nc24rsv2(nodes=1, gpus_per_node=gpus), mode="functional",
                   memory_capacities=caps, window_memory=window_memory)


def run_streaming(window_memory, arrays=6, rounds=4, gpus=2, cap_mb=48):
    """Round-robin passes over ``arrays`` disjoint batches, each ~10 MB per
    GPU, with the pool capped so the six-batch dataset spills while each
    drained group's four-batch working set still fits the space."""
    ctx = streaming_context(window_memory, gpus=gpus, cap_mb=cap_mb)

    def body(lc, n, data):
        i = lc.global_indices(0)
        i = i[i < n]
        data.scatter(i, (data.gather(i) * 1.5 + 1.0).astype(np.float32))

    kernel = (
        KernelDef("stream_update", func=body)
        .param_value("n", "int64")
        .param_array("data", "float32")
        .annotate("global i => readwrite data[i]")
        .with_cost(KernelCost(80.0, 8.0))
        .compile(ctx)
    )
    elems = 256 * 10_240 * gpus  # 256-aligned chunks, ~10 MB per GPU
    chunk_elems = elems // gpus
    rng = np.random.RandomState(0)
    data0 = [rng.rand(elems).astype(np.float32) for _ in range(arrays)]
    batches = [ctx.from_numpy(data0[j], BlockDist(chunk_elems), name=f"batch{j}")
               for j in range(arrays)]
    ctx.synchronize()
    for _ in range(rounds):
        for j in range(arrays):
            kernel.launch(elems, 256, BlockWorkDist(chunk_elems), (elems, batches[j]))
    ctx.synchronize()
    results = [ctx.gather(b) for b in batches]
    return ctx, results


def test_streaming_spill_window_memory_is_bit_identical_and_reduces_evictions():
    ctx_on, results_on = run_streaming(window_memory=True)
    ctx_off, results_off = run_streaming(window_memory=False)

    for a, b in zip(results_on, results_off):
        assert np.array_equal(a, b)  # functional bit-identity

    stats_on, stats_off = ctx_on.stats(), ctx_off.stats()
    ev_on = sum(m.staging_evictions for m in stats_on.memory.values())
    ev_off = sum(m.staging_evictions for m in stats_off.memory.values())
    assert stats_off.chunks_preevicted == 0 and stats_off.prefetch_promotions == 0
    assert ev_on < ev_off, "staging-time evictions must drop"
    assert stats_on.staging_stalls < stats_off.staging_stalls
    assert stats_on.prefetch_promotions > 0
    assert stats_on.staging_stalls_avoided > 0
    assert ctx_on.stats().window_memory_plans > 0
    assert ctx_off.stats().window_memory_plans == 0


def test_streaming_results_match_reference():
    _, results = run_streaming(window_memory=True, rounds=2)
    rng = np.random.RandomState(0)
    gpus, arrays = 2, 6
    elems = 256 * 10_240 * gpus
    for j in range(arrays):
        ref = rng.rand(elems).astype(np.float32)
        for _ in range(2):
            ref = (ref * np.float32(1.5) + np.float32(1.0)).astype(np.float32)
        assert np.array_equal(results[j], ref)


def test_promotions_are_stamped_and_recorded():
    caps = {DeviceId(0, i).memory_space: 48 * MB for i in range(2)}
    ctx = Context(azure_nc24rsv2(nodes=1, gpus_per_node=2), mode="functional",
                  memory_capacities=caps, record_plans=True, window_memory=True)

    def body(lc, n, data):
        pass

    kernel = (
        KernelDef("touch", func=body)
        .param_value("n", "int64")
        .param_array("data", "float32")
        .annotate("global i => readwrite data[i]")
        .with_cost(KernelCost(10.0, 8.0))
        .compile(ctx)
    )
    elems = 256 * 10_240 * 2
    batches = [ctx.zeros(elems, BlockDist(elems // 2), name=f"b{j}") for j in range(6)]
    ctx.synchronize()
    for _ in range(3):
        for j in range(6):
            kernel.launch(elems, 256, BlockWorkDist(elems // 2), (elems, batches[j]))
        # Synchronise per round so drain-time residency reflects execution
        # (the planner sees which batches are spilled and which are up).
        ctx.synchronize()
    promotes = [t for p in ctx.recorded_plans for t in p.all_tasks()
                if isinstance(t, T.PromoteChunkTask)]
    assert promotes, "the spilled streaming run must schedule promotions"
    reserves = [t for p in ctx.recorded_plans for t in p.all_tasks()
                if isinstance(t, T.MemoryReserveTask)]
    assert reserves, "pressured spaces must get reserve tasks"
    assert ctx.stats().prefetch_promotions == len(promotes)


# --------------------------------------------------------------------------- #
# end-to-end: the thrash regime (working set overflows: pre-eviction only)
# --------------------------------------------------------------------------- #
def run_kmeans_spill(window_memory):
    # 512K points x 4 features over 2 GPUs is ~4 MB of points per GPU; a
    # 2 MB pool forces the assign launches to cycle chunks through host memory.
    caps = {DeviceId(0, i).memory_space: 2 * MB for i in range(2)}
    ctx = Context(azure_nc24rsv2(nodes=1, gpus_per_node=2), mode="functional",
                  memory_capacities=caps, window_memory=window_memory)
    workload = create_workload("kmeans", ctx, 512_000, iterations=4, seed=0,
                               chunk_elems=64_000)
    workload.run()
    return ctx, ctx.gather(workload.centroids)


def test_kmeans_spill_window_memory_is_bit_identical_with_fewer_staging_evictions():
    ctx_on, result_on = run_kmeans_spill(True)
    ctx_off, result_off = run_kmeans_spill(False)
    assert np.array_equal(result_on, result_off)
    stats_on, stats_off = ctx_on.stats(), ctx_off.stats()
    ev_on = sum(m.staging_evictions for m in stats_on.memory.values())
    ev_off = sum(m.staging_evictions for m in stats_off.memory.values())
    assert stats_on.chunks_preevicted > 0
    assert ev_on < ev_off
    # In the thrash regime promotion stands down: it would only displace
    # sooner-used chunks.
    assert stats_on.prefetch_promotions == 0


# --------------------------------------------------------------------------- #
# safety properties
# --------------------------------------------------------------------------- #
def test_no_memory_plans_without_pressure():
    """With uncapped pools the drain pass must emit nothing (zero overhead)."""
    ctx = Context(azure_nc24rsv2(nodes=1, gpus_per_node=2), mode="functional",
                  window_memory=True)
    base = ctx.runtime.plans_submitted

    def body(lc, n, data):
        pass

    kernel = (
        KernelDef("noop", func=body)
        .param_value("n", "int64")
        .param_array("data", "float32")
        .annotate("global i => readwrite data[i]")
        .with_cost(KernelCost(1.0, 4.0))
        .compile(ctx)
    )
    data = ctx.zeros(4096, BlockDist(2048), name="d")
    for _ in range(8):
        kernel.launch(4096, 256, BlockWorkDist(2048), (4096, data))
    ctx.synchronize()
    assert ctx.stats().window_memory_plans == 0
    # one create plan + one plan per launch, and nothing else (no reserve,
    # promote or release plans)
    assert ctx.runtime.plans_submitted == base + 9


def run_hotspot3(window_memory, gpu_capacity=None):
    """Functional hotspot3 (fused chains) on 2 x 2 GPUs, every GPU pool
    capped at ``gpu_capacity`` bytes when given."""
    caps = None
    if gpu_capacity is not None:
        caps = {DeviceId(node, gpu).memory_space: gpu_capacity
                for node in range(2) for gpu in range(2)}
    ctx = Context(azure_nc24rsv2(nodes=2, gpus_per_node=2), mode="functional",
                  memory_capacities=caps, window_memory=window_memory)
    workload = create_workload("hotspot3", ctx, 128 * 128, chunk_elems=128 * 32,
                               iterations=6, seed=0)
    workload.run()
    return ctx, workload


def test_fused_chains_at_their_real_peak_plan_no_memory():
    """A fused chain reads its producers' outputs in place, so the consumers'
    input temporaries are never created; the planner must not count them.
    Capped at the uncapped run's real GPU peak (83,968 B per GPU), the run
    fits, so the pass must emit nothing and the run must equal the unplanned
    one event for event."""
    uncapped, _ = run_hotspot3(True)
    peak = max(peak for memory in uncapped.stats().memory.values()
               for peak in memory.peak_gpu_bytes.values())
    ctx_on, workload = run_hotspot3(True, peak)
    ctx_off, _ = run_hotspot3(False, peak)
    on, off = ctx_on.stats(), ctx_off.stats()
    assert on.window_memory_plans == 0
    assert on.chunks_preevicted == 0
    assert sum(m.evictions_to_host + m.evictions_to_disk for m in on.memory.values()) == 0
    assert on.virtual_time.hex() == off.virtual_time.hex()
    assert on.events_processed == off.events_processed
    assert workload.verify()


def test_delete_after_pinned_drain_waits_for_release():
    """Deleting arrays right after a drain that reserved room for their
    chunks must not trip the 'cannot delete pinned chunk' guard: each delete
    waits for the group's tasks, whose stagings are the only pins."""
    ctx, _ = None, None
    caps = {DeviceId(0, i).memory_space: 48 * MB for i in range(2)}
    ctx = Context(azure_nc24rsv2(nodes=1, gpus_per_node=2), mode="functional",
                  memory_capacities=caps, window_memory=True)

    def body(lc, n, data):
        pass

    kernel = (
        KernelDef("touch2", func=body)
        .param_value("n", "int64")
        .param_array("data", "float32")
        .annotate("global i => readwrite data[i]")
        .with_cost(KernelCost(10.0, 8.0))
        .compile(ctx)
    )
    elems = 256 * 10_240 * 2
    batches = [ctx.zeros(elems, BlockDist(elems // 2), name=f"b{j}") for j in range(6)]
    ctx.synchronize()
    for j in range(6):
        kernel.launch(elems, 256, BlockWorkDist(elems // 2), (elems, batches[j]))
    ctx.synchronize()  # fills the capped pools: the next drain is pressured
    for j in range(6):
        kernel.launch(elems, 256, BlockWorkDist(elems // 2), (elems, batches[j]))
    for b in batches:
        ctx.delete_array(b)  # drains (referenced) and deletes before the group runs
    ctx.synchronize()
    assert ctx.stats().window_memory_plans > 0


def test_eager_window_still_plans_memory():
    """A depth-1 (eager) window runs the memory pass per launch."""
    ctx_on, results_on = None, None
    caps = {DeviceId(0, i).memory_space: 48 * MB for i in range(2)}
    ctx = Context(azure_nc24rsv2(nodes=1, gpus_per_node=2), mode="functional",
                  memory_capacities=caps, lookahead=1, window_memory=True)

    def body(lc, n, data):
        pass

    kernel = (
        KernelDef("touch3", func=body)
        .param_value("n", "int64")
        .param_array("data", "float32")
        .annotate("global i => readwrite data[i]")
        .with_cost(KernelCost(10.0, 8.0))
        .compile(ctx)
    )
    elems = 256 * 10_240 * 2
    batches = [ctx.zeros(elems, BlockDist(elems // 2), name=f"b{j}") for j in range(6)]
    ctx.synchronize()
    for _ in range(2):
        for j in range(6):
            kernel.launch(elems, 256, BlockWorkDist(elems // 2), (elems, batches[j]))
        ctx.synchronize()
    # No prefetch lookahead at depth 1, but pre-eviction still engages.
    assert ctx.stats().window_memory_plans > 0
    assert ctx.stats().prefetch_promotions == 0
