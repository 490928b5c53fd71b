"""Tests for whole chains at depth drains and for the chain intermediates
that re-chunking aligns with their superblocks.

hotspot2's ``mid``, hotspot3's ``mid1``/``mid2`` and kmeans2's ``best`` are
declared at half the superblock granularity, so a superblock's write region
spans two chunks, mostly homed on other GPUs.  The first launch that only
writes each of them re-chunks it to its superblock write regions; from then
on every chain writes the intermediates in place, with no temporary and no
write-back.  Barriers (gathers, redistribute, delete, device failure) must
see exactly what eager submission computes."""

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
#: declared finer than the superblocks that write them
WORKLOADS = {
    "hotspot3": (64 * 64, dict(chunk_elems=64 * 32, iterations=4, seed=3)),
    "hotspot2": (64 * 64, dict(chunk_elems=64 * 32, iterations=4, seed=3)),
    "kmeans2": (8192, dict(iterations=4, seed=0, chunk_elems=2048)),
}
#: the intermediates each workload's first writers re-chunk
INTERMEDIATES = {"hotspot3": 2, "hotspot2": 1, "kmeans2": 1}
LOOKAHEADS = (1, 2, 4, 6)
FUSIONS = (True, False)


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


def aligned(array, workload):
    """True when every chunk of ``array`` is one superblock's rows (it was
    declared with chunks of ``mid_rows``, half a superblock)."""
    return array.rechunked and all(
        chunk.region.shape[0] == workload.rows_per_chunk for chunk in array.chunks
    )


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
            assert ctx.stats().arrays_rechunked == INTERMEDIATES[name], (lookahead, fusion)
            assert not temporaries_alive(ctx)


# --------------------------------------------------------------------------- #
# barriers on re-chunked intermediates
# --------------------------------------------------------------------------- #
def test_gathers_of_the_intermediates_see_the_held_writebacks():
    eager, eager_w = submitted("hotspot3", lookahead=1)
    ctx, workload = submitted("hotspot3")
    assert len(ctx.window) > 0
    for array in ("mid1", "mid2"):
        assert aligned(getattr(workload, array), workload)
        expected = eager.gather(getattr(eager_w, array))
        assert np.array_equal(ctx.gather(getattr(workload, array)), expected)


def test_redistribute_releases_held_writebacks_first():
    eager, eager_w = submitted("hotspot3", lookahead=1)
    ctx, workload = submitted("hotspot3")
    assert ctx.window.references(workload.mid2.array_id)
    eager.redistribute(eager_w.mid2, RowDist(8))
    ctx.redistribute(workload.mid2, RowDist(8))
    assert np.array_equal(ctx.gather(workload.mid2), eager.gather(eager_w.mid2))
    assert workload.mid2.distribution == RowDist(8)


def test_delete_releases_held_writebacks_first():
    eager, eager_w = submitted("hotspot3", lookahead=1)
    ctx, workload = submitted("hotspot3")
    assert workload.mid1.rechunked
    for context, w in ((eager, eager_w), (ctx, workload)):
        context.delete_array(w.mid1)
        context.synchronize()
    assert np.array_equal(result_of(ctx, workload), result_of(eager, eager_w))
    assert not temporaries_alive(ctx)


@pytest.mark.parametrize("before_sync", [True, False])
def test_device_failure_with_held_writebacks(before_sync):
    """``fail_device((1, 0))`` on a context whose intermediates are
    re-chunked recovers bit-identical to the fault-free run, whether the
    failure comes before or after ``synchronize()``."""
    clean, clean_w = submitted("hotspot3")
    expected = (result_of(clean, clean_w), clean.gather(clean_w.mid1),
                clean.gather(clean_w.mid2))
    ctx, workload = submitted("hotspot3", faults="")
    assert ctx.stats().arrays_rechunked == 2
    if not before_sync:
        ctx.synchronize()
    ctx.fail_device((1, 0))
    ctx.synchronize()
    assert ctx.stats().devices_failed == 1
    # recovery re-evaluates the declared distribution on the survivors
    assert workload.mid1.distribution == RowDist(workload.mid_rows)
    got = (result_of(ctx, workload), ctx.gather(workload.mid1), ctx.gather(workload.mid2))
    for clean_array, recovered in zip(expected, got):
        assert np.array_equal(clean_array, recovered)


# --------------------------------------------------------------------------- #
# state after synchronize, whole chains, lookahead 1
# --------------------------------------------------------------------------- #
def test_synchronize_leaves_no_piece_and_no_temporary():
    ctx, workload = submitted("hotspot3")
    ctx.synchronize()
    assert not temporaries_alive(ctx)
    assert ctx.stats().arrays_rechunked == 2
    assert aligned(workload.mid1, workload) and aligned(workload.mid2, workload)
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


def test_lookahead_one_holds_and_carries_nothing():
    ctx, workload = submitted("hotspot3", lookahead=1)
    assert len(ctx.window) == 0
    ctx.synchronize()
    stats = ctx.stats()
    assert stats.units_carried == 0
    # re-chunking happens at launch time, whatever the window depth
    assert stats.arrays_rechunked == 2
    assert not temporaries_alive(ctx)


# --------------------------------------------------------------------------- #
# redistribute and delete of re-chunked arrays no pending launch names
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


def test_delete_and_redistribute_release_writebacks_no_launch_names():
    # 8-element chunks dealt round-robin over 4 GPUs, 16-element superblocks:
    # each array's first fill re-chunks it to the superblocks.  The pending
    # fills name only ``other`` when ``out`` is redistributed and ``doomed``
    # deleted.
    n = 64
    ctx = make_ctx(lookahead=2, fusion=False)
    fill = fill_kernel(ctx)
    out = ctx.zeros(n, BlockDist(8), name="out")
    other = ctx.zeros(n, BlockDist(8), name="other")
    doomed = ctx.zeros(n, BlockDist(8), name="doomed")
    fill.launch(n, 4, BlockWorkDist(16), (n, out, 1.0))
    fill.launch(n, 4, BlockWorkDist(16), (n, doomed, 2.0))
    fill.launch(n, 4, BlockWorkDist(16), (n, other, 3.0))
    assert ctx.stats().arrays_rechunked == 3
    assert not ctx.window.references(out.array_id)
    ctx.redistribute(out, BlockDist(16))
    fill.launch(n, 4, BlockWorkDist(16), (n, doomed, 4.0))
    fill.launch(n, 4, BlockWorkDist(16), (n, other, 5.0))
    fill.launch(n, 4, BlockWorkDist(16), (n, other, 6.0))
    assert not ctx.window.references(doomed.array_id)
    ctx.delete_array(doomed)
    assert np.array_equal(ctx.gather(out), np.full(n, 1.0, dtype=np.float32))
    assert np.array_equal(ctx.gather(other), np.full(n, 6.0, dtype=np.float32))
    assert ctx.stats().arrays_rechunked == 3
    assert not temporaries_alive(ctx)
