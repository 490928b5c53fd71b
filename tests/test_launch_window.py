"""Tests for the launch window: deferred submission, barrier-driven drains,
the cross-launch kernel-fusion pass, the context-manager protocol and
idempotent kernel compilation."""

import numpy as np
import pytest

from repro import (
    BlockDist,
    BlockWorkDist,
    Context,
    KernelCost,
    KernelDef,
    StencilDist,
    azure_nc24rsv2,
)
from repro.core import tasks as T
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


def stencil_kernel(ctx, name="stencil3"):
    def body(lc, n, out, inp):
        i = lc.global_indices(0)
        i = i[i < n]
        left = inp.gather(np.maximum(i - 1, 0))
        mid = inp.gather(i)
        right = inp.gather(np.minimum(i + 1, n - 1))
        out.scatter(i, ((left + mid + right) / 3.0).astype(np.float32))

    return (
        KernelDef(name, func=body)
        .param_value("n", "int64")
        .param_array("out", "float32")
        .param_array("inp", "float32")
        .annotate("global i => read inp[i-1:i+1], write out[i]")
        .with_cost(KernelCost(1, 12))
        .compile(ctx)
    )


# --------------------------------------------------------------------------- #
# deferred submission and barriers
# --------------------------------------------------------------------------- #
def test_launch_is_deferred_until_a_barrier():
    ctx = make_ctx()
    kernel = scale_kernel(ctx)
    n = 256
    a = ctx.ones(n, BlockDist(64), name="a")
    b = ctx.zeros(n, BlockDist(64), name="b")
    submitted_before = ctx.runtime.plans_submitted  # the two create plans
    kernel.launch(n, 8, BlockWorkDist(64), (n, b, a))
    assert len(ctx.window) == 1
    assert ctx.runtime.plans_submitted == submitted_before
    ctx.synchronize()
    assert len(ctx.window) == 0
    assert ctx.runtime.plans_submitted == submitted_before + 1
    assert ctx.stats().window_flushes == 1


def test_window_full_drains_at_depth():
    ctx = make_ctx(lookahead=3, fusion=False)
    kernel = scale_kernel(ctx)
    n = 256
    a = ctx.ones(n, BlockDist(64), name="a")
    b = ctx.zeros(n, BlockDist(64), name="b")
    base = ctx.runtime.plans_submitted
    for _ in range(3):
        kernel.launch(n, 8, BlockWorkDist(64), (n, b, a))
    assert ctx.runtime.plans_submitted == base  # still buffered
    kernel.launch(n, 8, BlockWorkDist(64), (n, b, a))  # forces a drain first
    assert ctx.runtime.plans_submitted == base + 3
    assert len(ctx.window) == 1
    ctx.synchronize()
    assert ctx.window.flush_reasons == {"window-full": 1, "synchronize": 1}


def test_gather_drains_pending_writes():
    ctx = make_ctx()
    kernel = scale_kernel(ctx)
    n = 256
    a = ctx.ones(n, BlockDist(64), name="a")
    b = ctx.zeros(n, BlockDist(64), name="b")
    kernel.launch(n, 8, BlockWorkDist(64), (n, b, a))
    # the gather must observe the pending launch (program order)
    assert np.allclose(ctx.gather(b), 2.0)


def test_delete_of_referenced_array_drains_first():
    ctx = make_ctx()
    kernel = scale_kernel(ctx)
    n = 256
    a = ctx.ones(n, BlockDist(64), name="a")
    b = ctx.zeros(n, BlockDist(64), name="b")
    unrelated = ctx.ones(n, BlockDist(64), name="unrelated")
    kernel.launch(n, 8, BlockWorkDist(64), (n, b, a))
    unrelated.delete()  # does not reference the window: no drain
    assert len(ctx.window) == 1
    a.delete()  # referenced: drains, then deletes after the launch's reads
    assert len(ctx.window) == 0
    assert np.allclose(ctx.gather(b), 2.0)


def test_explicit_flush_submits_without_running():
    ctx = make_ctx()
    kernel = scale_kernel(ctx)
    n = 256
    a = ctx.ones(n, BlockDist(64), name="a")
    b = ctx.zeros(n, BlockDist(64), name="b")
    kernel.launch(n, 8, BlockWorkDist(64), (n, b, a))
    base = ctx.runtime.plans_submitted
    ctx.flush_launches()
    assert len(ctx.window) == 0
    assert ctx.runtime.plans_submitted == base + 1


def test_context_manager_synchronizes_on_exit():
    with make_ctx() as ctx:
        kernel = scale_kernel(ctx)
        n = 256
        a = ctx.ones(n, BlockDist(64), name="a")
        b = ctx.zeros(n, BlockDist(64), name="b")
        kernel.launch(n, 8, BlockWorkDist(64), (n, b, a))
    assert len(ctx.window) == 0
    assert ctx.runtime.outstanding_tasks == 0
    assert ctx.stats().tasks_completed > 0


def test_context_manager_propagates_exceptions():
    with pytest.raises(RuntimeError, match="boom"):
        with make_ctx() as ctx:
            ctx.ones(64, BlockDist(32))
            raise RuntimeError("boom")


# --------------------------------------------------------------------------- #
# kernel fusion
# --------------------------------------------------------------------------- #
def _run_chain(fusion, gpus=2, launches=("ab", "bc")):
    """b = 2a then c = 2b: a classic producer/consumer pair."""
    ctx = make_ctx(gpus=gpus, fusion=fusion, record_plans=True)
    kernel = scale_kernel(ctx)
    n = 512
    arrays = {
        "a": ctx.ones(n, BlockDist(128), name="a"),
        "b": ctx.zeros(n, BlockDist(128), name="b"),
        "c": ctx.zeros(n, BlockDist(128), name="c"),
    }
    for src, dst in launches:
        kernel.launch(n, 32, BlockWorkDist(128), (n, arrays[dst], arrays[src]))
    ctx.synchronize()
    return ctx, arrays


def test_fusion_merges_producer_consumer_pair():
    ctx, arrays = _run_chain(fusion=True)
    stats = ctx.stats()
    assert stats.launches_fused == 1
    fused = [
        t for p in ctx.recorded_plans for t in p.all_tasks()
        if isinstance(t, T.LaunchTask) and t.segment_count > 1
    ]
    assert len(fused) == 4  # one per superblock, instead of 8 launch tasks
    assert all(t.segment_count == 2 for t in fused)
    assert np.allclose(ctx.gather(arrays["b"]), 2.0)
    assert np.allclose(ctx.gather(arrays["c"]), 4.0)


def test_fusion_results_match_unfused_bit_for_bit():
    ctx_on, arrays_on = _run_chain(fusion=True)
    ctx_off, arrays_off = _run_chain(fusion=False)
    assert ctx_on.stats().launches_fused == 1
    assert ctx_off.stats().launches_fused == 0
    for name in ("b", "c"):
        assert np.array_equal(
            ctx_on.gather(arrays_on[name]), ctx_off.gather(arrays_off[name])
        )
    # fewer tasks overall: the two launch tasks per superblock became one
    assert ctx_on.stats().tasks_completed < ctx_off.stats().tasks_completed


def test_fusion_decisions_are_cached_across_iterations():
    ctx = make_ctx(fusion=True)
    kernel = scale_kernel(ctx)
    n = 512
    a = ctx.ones(n, BlockDist(128), name="a")
    b = ctx.zeros(n, BlockDist(128), name="b")
    c = ctx.zeros(n, BlockDist(128), name="c")
    for _ in range(6):
        kernel.launch(n, 32, BlockWorkDist(128), (n, b, a))
        kernel.launch(n, 32, BlockWorkDist(128), (n, c, b))
    ctx.synchronize()
    stats = ctx.stats()
    assert stats.launches_fused == 6
    # one positive entry serves every later pair; the greedy chain builder's
    # failed extension probe (pair + the next launch, a WAW on `b`) is
    # memoised as exactly one negative entry
    from repro.core.planning.planner import _NO_FUSION

    entries = list(ctx.planner._fusion_cache.values())
    assert len(entries) == 2
    assert sum(1 for e in entries if e is not _NO_FUSION) == 1
    assert sum(1 for e in entries if e is _NO_FUSION) == 1
    assert np.allclose(ctx.gather(c), 4.0)


def test_fusion_rejects_stencil_halo_consumer():
    """A consumer whose read crosses the superblock boundary (halo) cannot be
    fused: it must see the producer's writeback from *other* superblocks."""
    ctx = make_ctx(fusion=True)
    stencil = stencil_kernel(ctx)
    n = 64
    dist = StencilDist(16, halo=1)
    x = ctx.from_numpy(np.arange(n, dtype=np.float32), dist, name="x")
    y = ctx.zeros(n, dist, name="y")
    z = ctx.zeros(n, dist, name="z")
    stencil.launch(n, 8, BlockWorkDist(16), (n, y, x))
    stencil.launch(n, 8, BlockWorkDist(16), (n, z, y))  # halo-reads y
    ctx.synchronize()
    assert ctx.stats().launches_fused == 0
    ref = np.arange(n, dtype=np.float32)
    for _ in range(2):
        padded = np.concatenate(([ref[0]], ref, [ref[-1]]))
        ref = ((padded[:-2] + padded[1:-1] + padded[2:]) / 3.0).astype(np.float32)
    assert np.allclose(ctx.gather(z), ref)


def test_fusion_rejects_write_write_and_reduce_pairs():
    ctx = make_ctx(fusion=True)
    kernel = scale_kernel(ctx)
    n = 512
    a = ctx.ones(n, BlockDist(128), name="a")
    b = ctx.zeros(n, BlockDist(128), name="b")
    # both launches write b: WAW needs cross-plan ordering, no fusion
    kernel.launch(n, 32, BlockWorkDist(128), (n, b, a))
    kernel.launch(n, 32, BlockWorkDist(128), (n, b, a))
    ctx.synchronize()
    assert ctx.stats().launches_fused == 0
    assert np.allclose(ctx.gather(b), 2.0)


def test_fused_plans_identical_with_and_without_template_cache():
    """Fusion must be deterministic: the same program yields the same plans
    whether recipes come from the cache or are rebuilt per drain."""
    plans = {}
    for cache in (True, False):
        ctx = make_ctx(fusion=True, plan_cache=cache, record_plans=True)
        kernel = scale_kernel(ctx)
        n = 512
        a = ctx.ones(n, BlockDist(128), name="a")
        b = ctx.zeros(n, BlockDist(128), name="b")
        c = ctx.zeros(n, BlockDist(128), name="c")
        for _ in range(4):
            kernel.launch(n, 32, BlockWorkDist(128), (n, b, a))
            kernel.launch(n, 32, BlockWorkDist(128), (n, c, b))
        ctx.synchronize()
        plans[cache] = [p for p in ctx.recorded_plans if p.launch_id is not None]
    assert len(plans[True]) == len(plans[False]) == 4
    for cached, cold in zip(plans[True], plans[False]):
        assert cached.workers() == cold.workers()
        for worker in cached.workers():
            assert cached.tasks_by_worker[worker] == cold.tasks_by_worker[worker]


def test_hotspot2_fusion_elides_intermediate_transfers():
    """The double-stencil workload: fusion drops tasks and engine events
    while functional results stay bit-identical.  The first stencil launch
    re-chunks ``mid`` to its superblocks, so neither arm moves ``mid`` bytes:
    each superblock writes and reads its own chunk in place."""
    results = {}
    for fusion in (True, False):
        ctx = make_ctx(gpus=2, fusion=fusion, record_plans=True)
        workload = create_workload(
            "hotspot2", ctx, 64 * 64, chunk_elems=64 * 32, iterations=4, seed=3
        )
        workload.run()
        stats = ctx.stats()
        mid_bytes = sum(
            t.nbytes
            for p in ctx.recorded_plans
            for t in p.all_tasks()
            if t.kind in ("copy", "send") and t.label.split()[-1] == "mid"
        )
        results[fusion] = (
            ctx.gather(workload._final), stats, mid_bytes, workload.verify(),
        )
    final_on, stats_on, mid_on, ok_on = results[True]
    final_off, stats_off, mid_off, ok_off = results[False]
    assert ok_on and ok_off
    assert np.array_equal(final_on, final_off)
    assert stats_on.launches_fused == 4
    assert stats_on.arrays_rechunked == stats_off.arrays_rechunked == 1
    assert stats_on.events_processed < stats_off.events_processed
    assert mid_on == mid_off == 0
    assert stats_on.tasks_completed < stats_off.tasks_completed


def test_plan_cache_hit_rate_stays_high_with_window():
    """Iterative launches must keep hitting the template cache with the
    window enabled (fused pairs are memoised by their member keys)."""
    for name, n, params in (
        ("kmeans", 40_960, dict(iterations=25, seed=0, chunk_elems=10_240)),
        ("hotspot", 64 * 64, dict(chunk_elems=64 * 16, iterations=50)),
        ("hotspot2", 64 * 64, dict(chunk_elems=64 * 32, iterations=50)),
    ):
        ctx = make_ctx(gpus=2)
        create_workload(name, ctx, n, **params).run()
        cache = ctx.planner.cache
        assert cache.hit_rate > 0.9, f"{name}: hit rate {cache.hit_rate:.1%}"


# --------------------------------------------------------------------------- #
# misaligned launches
# --------------------------------------------------------------------------- #
def _misaligned_launches(ctx, kernel, n=600, launches=3):
    a = ctx.ones(n, BlockDist(300), name="a")
    b = ctx.zeros(n, BlockDist(300), name="b")
    for _ in range(launches):
        kernel.launch(n, 10, BlockWorkDist(200), (n, b, a))
    return a, b


def test_windowed_misaligned_launches_match_eager():
    """Launches whose superblocks straddle chunk boundaries gather their
    inputs across GPUs; drained from a window they must give the eager
    (``lookahead=1``) result."""
    gathered = {}
    for lookahead in (4, 1):
        ctx = make_ctx(lookahead=lookahead, fusion=False)
        kernel = scale_kernel(ctx)
        _, b = _misaligned_launches(ctx, kernel, launches=4)
        gathered[lookahead] = ctx.gather(b)
    assert np.allclose(gathered[4], 2.0)
    assert np.array_equal(gathered[4], gathered[1])


# --------------------------------------------------------------------------- #
# idempotent compilation
# --------------------------------------------------------------------------- #
def test_compile_is_idempotent_for_identical_definition():
    ctx = make_ctx()
    kernel = scale_kernel(ctx)
    again = ctx.compile(kernel.definition)
    assert again is kernel


def test_compile_rejects_different_definition_reusing_a_name():
    ctx = make_ctx()
    scale_kernel(ctx)

    def other(lc, n, out, inp):
        return None

    different = (
        KernelDef("scale2", func=other)
        .param_value("n", "int64")
        .param_array("out", "float32")
        .param_array("inp", "float32")
        .annotate("global i => read inp[i], write out[i]")
    )
    with pytest.raises(ValueError, match="different definition"):
        ctx.compile(different)


# --------------------------------------------------------------------------- #
# CLI flags
# --------------------------------------------------------------------------- #
def test_cli_window_flags(capsys):
    from repro.cli import main

    assert main(["run", "kmeans", "--n", "1e6", "--no-fusion"]) == 0
    assert main(["run", "kmeans", "--n", "1e6", "--lookahead", "8"]) == 0
    assert main(["run", "kmeans", "--n", "1e6", "--lookahead", "1"]) == 0
    assert "kmeans" in capsys.readouterr().out
