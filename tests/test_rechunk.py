"""Tests for re-chunking write-only arrays (``Context.launch``).

A launch re-chunks an array it binds to one plain ``write``
parameter to its superblock write regions, each on its superblock's GPU,
when some superblock would otherwise write it through a temporary and the
regions are disjoint and cover the whole array.  The new chunks start
empty, the old ones are deleted unread, and an array is re-chunked at most
once."""

import numpy as np
import pytest

import repro.apps  # noqa: F401  (registers the cgc workload)
from repro import (
    BlockDist,
    BlockWorkDist,
    Context,
    KernelCost,
    KernelDef,
    RowDist,
    azure_nc24rsv2,
)
from repro.kernels import create_workload

#: workload -> (n, params, names of the arrays its launches re-chunk)
WORKLOADS = {
    "hotspot2": (64 * 64, dict(chunk_elems=64 * 32, iterations=3, seed=3),
                 {"hotspot2_mid"}),
    "hotspot3": (64 * 64, dict(chunk_elems=64 * 32, iterations=3, seed=3),
                 {"hotspot3_mid1", "hotspot3_mid2"}),
    "kmeans2": (8192, dict(iterations=3, seed=0, chunk_elems=2048), {"kmeans2_best"}),
    "hotspot": (64 * 64, dict(iterations=3), set()),
    "kmeans": (8192, dict(iterations=3, seed=0), set()),
    "cgc": (32 * 32, dict(iterations=2), set()),
}


def make_ctx(**kw):
    return Context(azure_nc24rsv2(nodes=2, gpus_per_node=2), mode="functional", **kw)


def layout(array):
    return [(chunk.chunk_id, chunk.region, chunk.home) for chunk in array.chunks]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_only_misaligned_intermediates_are_rechunked(name):
    n, params, expected = WORKLOADS[name]
    ctx = make_ctx()
    workload = create_workload(name, ctx, n, **params)
    workload.run()
    assert workload.verify()
    assert ctx.stats().arrays_rechunked == len(expected)
    assert {a.name for a in ctx.arrays.values() if a.rechunked} == expected


def kernels(ctx):
    def fill(lc, n, out, value):
        i = lc.global_indices(0)
        i = i[i < n]
        out.scatter(i, np.full(i.shape, value, dtype=np.float32))

    def double(lc, n, out, src):
        i = lc.global_indices(0)
        i = i[i < n]
        out.scatter(i, (src.gather(i) * 2.0).astype(np.float32))

    def bump(lc, n, data):
        i = lc.global_indices(0)
        i = i[i < n]
        data.scatter(i, (data.gather(i) + 1.0).astype(np.float32))

    return (
        KernelDef("fill", func=fill).param_value("n", "int64")
        .param_array("out", "float32").param_value("value", "float32")
        .annotate("global i => write out[i]").with_cost(KernelCost(1, 4)).compile(ctx),
        KernelDef("double", func=double).param_value("n", "int64")
        .param_array("out", "float32").param_array("src", "float32")
        .annotate("global i => write out[i], read src[i]")
        .with_cost(KernelCost(1, 8)).compile(ctx),
        KernelDef("bump", func=bump).param_value("n", "int64")
        .param_array("data", "float32")
        .annotate("global i => readwrite data[i]").with_cost(KernelCost(1, 8)).compile(ctx),
    )


def test_launches_that_cannot_overwrite_every_element_leave_the_layout_alone():
    # 8-element chunks dealt round-robin over 4 GPUs, 16-element superblocks:
    # every superblock writes through a temporary, yet none of these launches
    # may re-chunk, because none of them overwrites the whole array through
    # one plain write parameter.
    n = 64
    ctx = make_ctx()
    fill, double, bump = kernels(ctx)
    partial = ctx.ones(n, BlockDist(8), name="partial")
    aliased = ctx.ones(n, BlockDist(8), name="aliased")
    updated = ctx.ones(n, BlockDist(8), name="updated")
    before = {a.name: layout(a) for a in (partial, aliased, updated)}
    fill.launch(60, 4, BlockWorkDist(16), (60, partial, 2.0))  # stops short of 64
    double.launch(n, 4, BlockWorkDist(16), (n, aliased, aliased))  # bound twice
    bump.launch(n, 4, BlockWorkDist(16), (n, updated))  # readwrite
    expected_partial = np.full(n, 2.0, dtype=np.float32)
    expected_partial[60:] = 1.0
    assert np.array_equal(ctx.gather(partial), expected_partial)
    assert np.array_equal(ctx.gather(aliased), np.full(n, 2.0, dtype=np.float32))
    assert np.array_equal(ctx.gather(updated), np.full(n, 2.0, dtype=np.float32))
    assert ctx.stats().arrays_rechunked == 0
    for array in (partial, aliased, updated):
        assert layout(array) == before[array.name]
        assert not array.rechunked


def test_writers_with_different_work_distributions_rechunk_once():
    n = 64
    ctx = make_ctx()
    fill, _, _ = kernels(ctx)
    out = ctx.zeros(n, BlockDist(8), name="out")
    fill.launch(n, 4, BlockWorkDist(16), (n, out, 1.0))
    first = layout(out)
    assert [chunk.region.size for chunk in out.chunks] == [16] * 4
    for round_ in range(3):
        fill.launch(n, 4, BlockWorkDist(32), (n, out, 2.0 + round_))
        fill.launch(n, 4, BlockWorkDist(16), (n, out, 5.0 + round_))
    fill.launch(n, 4, BlockWorkDist(32), (n, out, 9.0))
    assert np.array_equal(ctx.gather(out), np.full(n, 9.0, dtype=np.float32))
    assert ctx.stats().arrays_rechunked == 1
    assert layout(out) == first
    assert out.distribution == BlockDist(8)


def test_checkpoint_restore_of_rechunked_intermediates(tmp_path):
    ctx = make_ctx()
    workload = create_workload("hotspot3", ctx, 64 * 64, chunk_elems=64 * 32,
                               iterations=3, seed=3)
    workload.run()
    assert workload.mid1.rechunked and workload.mid2.rechunked
    path = str(tmp_path / "rechunked.ckpt")
    manifest = ctx.checkpoint(path)
    encoded = {entry["name"]: entry["distribution"] for entry in manifest["arrays"]}
    assert encoded["hotspot3_mid1"]["type"] == "RowDist"
    restore_ctx = make_ctx()
    restored = restore_ctx.restore(path)
    for array in ctx.arrays.values():
        assert np.array_equal(restore_ctx.gather(restored[array.name]), ctx.gather(array))
    assert restored["hotspot3_mid1"].distribution == RowDist(workload.mid_rows)


def test_a_rechunking_launch_is_planned_and_counted_once():
    # hotspot3's five distinct launches, two of which re-chunk: each is
    # planned under the declared layout, then under the new one, and counts
    # one miss; nothing is invalidated.
    def run(plan_cache):
        ctx = Context(azure_nc24rsv2(nodes=1, gpus_per_node=2), mode="simulate",
                      plan_cache=plan_cache, record_plans=True)
        workload = create_workload("hotspot3", ctx, 1024 * 1024, iterations=4)
        workload.prepare()
        workload.submit()
        ctx.synchronize()
        assert ctx.stats().arrays_rechunked == 2
        return ctx, [[(str(task), task.deps) for task in plan.all_tasks()]
                     for plan in ctx.runtime.recorded_plans]

    ctx, plans = run(plan_cache=True)
    assert ctx.planner.cache.misses == 5
    assert ctx.planner.cache.invalidations == 0
    assert ctx.stats().plan_cache_invalidations == 0
    # the same plans as planning every launch cold
    assert plans == run(plan_cache=False)[1]


def test_recovery_lets_the_next_cold_launch_rechunk_again():
    # Recovery redistributes mid1/mid2 back to their declared row
    # distribution on the survivors; the next launches must re-chunk them
    # again instead of writing them through cross-node temporaries.
    ctx = Context(azure_nc24rsv2(nodes=2, gpus_per_node=2), mode="simulate", faults="")
    workload = create_workload("hotspot3", ctx, 2048 * 2048, chunk_elems=2048 * 512,
                               iterations=5)
    workload.prepare()
    workload.submit()
    ctx.synchronize()
    ctx.fail_device((1, 0))
    ctx.synchronize()
    assert ctx.stats().redistributes_forced > 0
    before = ctx.stats().network_bytes
    workload.submit()
    ctx.synchronize()
    stats = ctx.stats()
    assert stats.arrays_rechunked == 4
    assert workload.mid1.rechunked and workload.mid2.rechunked
    # only the halo rows cross the network (42 MB through temporaries)
    assert stats.network_bytes - before == 163_840
