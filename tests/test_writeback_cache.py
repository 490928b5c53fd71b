"""Tests for whole chains at depth drains and the launch window's write-back
cache: temp write-backs held by depth drains, dropped when a later launch
overwrites their region first, and submitted before anything else reads
their target."""

import hashlib

import numpy as np
import pytest

from repro import (
    BlockDist,
    BlockWorkDist,
    Context,
    KernelCost,
    KernelDef,
    RowDist,
    azure_nc24rsv2,
)
from repro.core import tasks as T
from repro.kernels import create_workload

#: (workload, n, params): small functional sizes whose intermediates are
#: chunked finer than the superblocks, so every chain writes back temps
WORKLOADS = {
    "hotspot3": (64 * 64, dict(chunk_elems=64 * 32, iterations=4, seed=3)),
    "hotspot2": (64 * 64, dict(chunk_elems=64 * 32, iterations=4, seed=3)),
    "kmeans2": (8192, dict(iterations=4, seed=0, chunk_elems=2048)),
}
LOOKAHEADS = (1, 2, 4, 6)
FUSIONS = (True, "pairwise", False)


def make_ctx(lookahead=4, fusion=True, **kw):
    return Context(
        azure_nc24rsv2(nodes=2, gpus_per_node=2), mode="functional",
        lookahead=lookahead, fusion=fusion, record_plans=True, **kw,
    )


def submitted(name, lookahead=4, fusion=True, **kw):
    """A context with the workload's launches submitted but not synchronised."""
    n, params = WORKLOADS[name]
    ctx = make_ctx(lookahead, fusion, **kw)
    workload = create_workload(name, ctx, n, **params)
    workload.prepare()
    workload.submit()
    return ctx, workload


def result_of(ctx, workload):
    target = workload.centroids if workload.name == "kmeans2" else workload._final
    return ctx.gather(target)


def sha(array):
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def temporaries_alive(ctx):
    return [
        cid for worker in ctx.runtime.workers
        for cid, state in worker.memory._chunks.items() if state.meta.temporary
    ]


@pytest.fixture(scope="module")
def reference():
    """Gathered result of every workload at lookahead 1 (eager submission)."""
    out = {}
    for name in WORKLOADS:
        ctx, workload = submitted(name, lookahead=1)
        out[name] = sha(result_of(ctx, workload))
    return out


# --------------------------------------------------------------------------- #
# functional differential: every lookahead × fusion arm matches eager
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_arm_matches_eager_submission(name, reference):
    for lookahead in LOOKAHEADS:
        for fusion in FUSIONS:
            ctx, workload = submitted(name, lookahead, fusion)
            assert sha(result_of(ctx, workload)) == reference[name], (lookahead, fusion)
            assert workload.verify(), (lookahead, fusion)
            assert not ctx.window._held
            assert not temporaries_alive(ctx)


# --------------------------------------------------------------------------- #
# barriers while write-backs are held
# --------------------------------------------------------------------------- #
def test_gathers_of_the_intermediates_see_the_held_writebacks():
    eager, eager_w = submitted("hotspot3", lookahead=1)
    ctx, workload = submitted("hotspot3")
    assert ctx.window._held
    for array in ("mid1", "mid2"):
        expected = eager.gather(getattr(eager_w, array))
        assert np.array_equal(ctx.gather(getattr(workload, array)), expected)


def test_redistribute_releases_held_writebacks_first():
    eager, eager_w = submitted("hotspot3", lookahead=1)
    ctx, workload = submitted("hotspot3")
    assert ctx.window._held
    eager.redistribute(eager_w.mid2, RowDist(8))
    ctx.redistribute(workload.mid2, RowDist(8))
    assert np.array_equal(ctx.gather(workload.mid2), eager.gather(eager_w.mid2))


def test_delete_releases_held_writebacks_first():
    eager, eager_w = submitted("hotspot3", lookahead=1)
    ctx, workload = submitted("hotspot3")
    assert ctx.window._held
    for context, w in ((eager, eager_w), (ctx, workload)):
        context.delete_array(w.mid1)
        context.synchronize()
    assert np.array_equal(result_of(ctx, workload), result_of(eager, eager_w))


@pytest.mark.parametrize("before_sync", [True, False])
def test_device_failure_with_held_writebacks(before_sync):
    results = []
    for lookahead in (1, 4):
        ctx, workload = submitted("hotspot3", lookahead=lookahead, faults="")
        if lookahead > 1:
            assert ctx.window._held
        if not before_sync:
            ctx.synchronize()
        ctx.fail_device((1, 0))
        ctx.synchronize()
        assert ctx.stats().devices_failed == 1
        results.append((result_of(ctx, workload), ctx.gather(workload.mid1)))
    for eager, windowed in zip(*results):
        assert np.array_equal(eager, windowed)


# --------------------------------------------------------------------------- #
# state after synchronize, whole chains, lookahead 1
# --------------------------------------------------------------------------- #
def test_synchronize_leaves_no_piece_and_no_temporary():
    ctx, workload = submitted("hotspot3")
    ctx.synchronize()
    assert not ctx.window._held
    assert not temporaries_alive(ctx)
    stats = ctx.stats()
    assert stats.writebacks_dropped > 0
    assert stats.writeback_bytes_dropped > 0
    assert stats.writebacks_deferred >= stats.writebacks_dropped
    # every dependency names a task submitted no later than its dependent:
    # the scheduler would treat an unknown id as already finished
    seen = set()
    for plan in ctx.recorded_plans:
        seen.update(t.task_id for t in plan.all_tasks())
        assert all(dep in seen for t in plan.all_tasks() for dep in t.deps)


def test_depth_drains_keep_fused_chains_whole():
    lookahead = 4
    n, params = WORKLOADS["hotspot3"]
    ctx = make_ctx(lookahead)
    workload = create_workload("hotspot3", ctx, n, **params)
    workload.prepare()
    sizes = []
    submit = ctx.window.submit

    def submit_and_measure(pending):
        submit(pending)
        sizes.append(len(ctx.window))

    ctx.window.submit = submit_and_measure
    workload.submit()
    assert len(sizes) == 3 * workload.iterations
    assert max(sizes) <= lookahead
    ctx.synchronize()
    stats = ctx.stats()
    assert stats.launches_fused == 2 * workload.iterations
    assert stats.units_carried > 0
    fused = [
        t for plan in ctx.recorded_plans for t in plan.all_tasks()
        if isinstance(t, T.LaunchTask) and t.segment_count > 1
    ]
    assert fused and all(t.segment_count == 3 for t in fused)


def test_pieces_released_in_their_own_drain_keep_stamp_order():
    # Without fusion each ``best`` label write-back is read by the very next
    # launch of the same drain, so every held piece rejoins its producer's
    # plan, which must then be exactly the plan an eager stamp builds.
    ctx, workload = submitted("kmeans2", lookahead=6, fusion=False)
    ctx.synchronize()
    stats = ctx.stats()
    assert stats.writebacks_deferred > 0
    assert stats.writebacks_dropped == 0
    launch_plans = [plan for plan in ctx.recorded_plans if plan.launch_id is not None]
    assert launch_plans
    for plan in launch_plans:
        assert plan.description != "held write-backs"
        for tasks in plan.tasks_by_worker.values():
            ids = [t.task_id for t in tasks]
            assert ids == sorted(ids), plan.description


def test_lookahead_one_holds_and_carries_nothing():
    ctx, workload = submitted("hotspot3", lookahead=1)
    assert not ctx.window._held
    ctx.synchronize()
    stats = ctx.stats()
    assert stats.writebacks_deferred == stats.writebacks_dropped == 0
    assert stats.units_carried == 0
    # eager plans keep every write-back and temp delete in the launch plan
    for plan in ctx.recorded_plans:
        assert plan.description != "held write-backs"


# --------------------------------------------------------------------------- #
# partial overwrites must not drop a held piece
# --------------------------------------------------------------------------- #
def fill_kernel(ctx):
    def body(lc, n, out, value):
        i = lc.global_indices(0)
        i = i[i < n]
        out.scatter(i, np.full(i.shape, value, dtype=np.float32))

    return (
        KernelDef("fill_value", func=body)
        .param_value("n", "int64")
        .param_array("out", "float32")
        .param_value("value", "float32")
        .annotate("global i => write out[i]")
        .with_cost(KernelCost(1, 4))
        .compile(ctx)
    )


def test_partial_overwrite_releases_instead_of_dropping():
    # 8-element chunks dealt round-robin over 4 GPUs, 16-element superblocks:
    # every superblock writes a temp back into two chunks.  The second fill
    # stops at 60, so it overwrites the last chunk only in part.
    n = 64
    ctx = make_ctx(lookahead=2, fusion=False)
    fill = fill_kernel(ctx)
    out = ctx.zeros(n, BlockDist(8), name="out")
    fill.launch(n, 4, BlockWorkDist(16), (n, out, 1.0))
    fill.launch(60, 4, BlockWorkDist(16), (60, out, 2.0))
    fill.launch(16, 4, BlockWorkDist(16), (16, out, 3.0))
    stats = ctx.stats()
    assert stats.writebacks_dropped > 0
    expected = np.full(n, 2.0, dtype=np.float32)
    expected[:16] = 3.0
    expected[60:] = 1.0
    assert np.array_equal(ctx.gather(out), expected)


def test_delete_and_redistribute_release_writebacks_no_launch_names():
    # The depth drain of the first two fills holds write-backs into both
    # arrays; the pending third fill names only ``other``.
    n = 64
    ctx = make_ctx(lookahead=2, fusion=False)
    fill = fill_kernel(ctx)
    out = ctx.zeros(n, BlockDist(8), name="out")
    other = ctx.zeros(n, BlockDist(8), name="other")
    doomed = ctx.zeros(n, BlockDist(8), name="doomed")
    fill.launch(n, 4, BlockWorkDist(16), (n, out, 1.0))
    fill.launch(n, 4, BlockWorkDist(16), (n, doomed, 2.0))
    fill.launch(n, 4, BlockWorkDist(16), (n, other, 3.0))
    assert ctx.window._held
    ctx.redistribute(out, BlockDist(16))
    assert not ctx.window._held
    fill.launch(n, 4, BlockWorkDist(16), (n, doomed, 4.0))
    fill.launch(n, 4, BlockWorkDist(16), (n, other, 5.0))
    fill.launch(n, 4, BlockWorkDist(16), (n, other, 6.0))
    assert ctx.window._held
    ctx.delete_array(doomed)
    assert not ctx.window._held
    assert np.array_equal(ctx.gather(out), np.full(n, 1.0, dtype=np.float32))
    assert np.array_equal(ctx.gather(other), np.full(n, 6.0, dtype=np.float32))
