"""Tests for in-place redistribution (`DistributedArray.redistribute`) and
the plan-template cache across it: keys name chunk layouts, so a
redistribute evicts nothing."""

import numpy as np
import pytest

from repro import (
    BlockDist,
    BlockWorkDist,
    Context,
    KernelCost,
    KernelDef,
    ReplicatedDist,
    RowDist,
    StencilDist,
    azure_nc24rsv2,
)
from repro.core.planning import PlanTemplateCache
from repro.core.planning.ir import array_slots


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


# --------------------------------------------------------------------------- #
# round-trip correctness
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "nodes,gpus,new_dist",
    [
        (1, 2, BlockDist(37)),          # different chunk size, same kind
        (1, 2, StencilDist(60, halo=2)),  # overlapping halos
        (2, 2, BlockDist(25)),          # cross-node all-to-all
        (1, 2, ReplicatedDist()),       # full replication
    ],
)
def test_redistribute_round_trips(nodes, gpus, new_dist):
    ctx = make_ctx(nodes=nodes, gpus=gpus)
    data = np.arange(200, dtype=np.float32)
    x = ctx.from_numpy(data, BlockDist(50), name="x")
    before = ctx.gather(x)
    x.redistribute(new_dist)
    after = ctx.gather(x)
    assert np.array_equal(before, after)
    assert x.layout_epoch == 1
    assert x.distribution == new_dist


def test_redistribute_round_trips_2d():
    ctx = make_ctx(nodes=2, gpus=2)
    data = np.arange(40 * 12, dtype=np.float32).reshape(40, 12)
    x = ctx.from_numpy(data, RowDist(7), name="grid")
    x.redistribute(RowDist(16))
    assert np.array_equal(ctx.gather(x), data)


def test_redistribute_uses_network_across_nodes():
    ctx = make_ctx(nodes=2, gpus=1)
    data = np.arange(100, dtype=np.float32)
    x = ctx.from_numpy(data, BlockDist(50), name="x")
    ctx.synchronize()
    # invert the placement: every element changes node
    x.redistribute(BlockDist(25))
    ctx.synchronize()
    assert ctx.stats().network_messages > 0
    assert np.array_equal(ctx.gather(x), data)


def test_redistribute_frees_old_chunks():
    ctx = make_ctx()
    x = ctx.ones(200, BlockDist(50), name="x")
    ctx.synchronize()
    assert sum(w.storage.chunk_count for w in ctx.runtime.workers) == 4
    x.redistribute(BlockDist(100))
    ctx.synchronize()
    assert sum(w.storage.chunk_count for w in ctx.runtime.workers) == 2


def test_redistribute_of_deleted_array_raises():
    ctx = make_ctx()
    x = ctx.ones(100, BlockDist(50), name="x")
    x.delete()
    with pytest.raises(RuntimeError, match="deleted"):
        x.redistribute(BlockDist(25))


def test_redistribute_rejects_non_covering_distribution():
    ctx = make_ctx()
    x = ctx.ones((20, 6), RowDist(5), name="x")
    with pytest.raises(ValueError):
        x.redistribute(BlockDist(5))  # 1-d distribution on a 2-d array


# --------------------------------------------------------------------------- #
# interaction with pending launches (the window)
# --------------------------------------------------------------------------- #
def test_redistribute_drains_pending_launches_on_the_array():
    ctx = make_ctx()
    kernel = scale_kernel(ctx)
    n = 256
    a = ctx.ones(n, BlockDist(64), name="a")
    b = ctx.zeros(n, BlockDist(64), name="b")
    kernel.launch(n, 8, BlockWorkDist(64), (n, b, a))  # pending: writes b
    b.redistribute(BlockDist(32))  # must observe the pending write
    assert len(ctx.window) == 0
    assert np.allclose(ctx.gather(b), 2.0)
    # and launching again on the re-chunked array still works
    kernel.launch(n, 8, BlockWorkDist(64), (n, b, a))
    assert np.allclose(ctx.gather(b), 2.0)


# --------------------------------------------------------------------------- #
# the plan-template cache across a redistribute: keys name layouts, so
# nothing is evicted and the old layout's entries stay valid
# --------------------------------------------------------------------------- #
def test_redistribute_invalidates_cached_templates():
    """A redistribute moves the array's launches to the new layout's key:
    the next launch misses, and the old layout's entry stays cached."""
    ctx = make_ctx()
    kernel = scale_kernel(ctx)
    n = 256
    a = ctx.ones(n, BlockDist(64), name="a")
    b = ctx.zeros(n, BlockDist(64), name="b")
    kernel.launch(n, 8, BlockWorkDist(64), (n, b, a))
    kernel.launch(n, 8, BlockWorkDist(64), (n, b, a))
    ctx.synchronize()
    cache = ctx.planner.cache
    assert cache.hits == 1 and cache.misses == 1
    assert len(cache) == 1

    a.redistribute(BlockDist(32))
    assert len(cache) == 1  # nothing is evicted
    assert cache.invalidations == 0
    assert ctx.stats().plan_cache_invalidations == 0

    # the next launch on the array is a cache miss (a new layout in the key)
    kernel.launch(n, 8, BlockWorkDist(64), (n, b, a))
    ctx.synchronize()
    assert cache.misses == 2 and cache.hits == 1
    assert len(cache) == 2
    assert np.allclose(ctx.gather(b), 2.0)


def test_invalidation_spares_unrelated_entries():
    ctx = make_ctx()
    kernel = scale_kernel(ctx)
    other_kernel = scale_kernel(ctx, name="scale_other")
    n = 256
    a = ctx.ones(n, BlockDist(64), name="a")
    b = ctx.zeros(n, BlockDist(64), name="b")
    c = ctx.ones(n, BlockDist(64), name="c")
    d = ctx.zeros(n, BlockDist(64), name="d")
    kernel.launch(n, 8, BlockWorkDist(64), (n, b, a))
    other_kernel.launch(n, 8, BlockWorkDist(64), (n, d, c))
    ctx.synchronize()
    cache = ctx.planner.cache
    assert len(cache) == 2
    a.redistribute(BlockDist(32))
    assert len(cache) == 2  # a redistribute evicts nothing
    other_kernel.launch(n, 8, BlockWorkDist(64), (n, d, c))
    ctx.synchronize()
    assert cache.hits == 1  # the unrelated entry still hits
    assert np.allclose(ctx.gather(d), 2.0)


def test_a_new_layout_misses_and_keeps_the_old_entry_until_invalidate_all():
    """The unit-level contract: a key names the chunk layout, so a new layout
    misses while the old layout's entry stays resident; only a device
    failure's ``invalidate_all`` (or the LRU bound) removes it."""
    ctx = make_ctx()
    kernel = scale_kernel(ctx)
    n = 256
    a = ctx.ones(n, BlockDist(64), name="a")
    b = ctx.zeros(n, BlockDist(64), name="b")

    def key():
        slots, pattern = array_slots([{"out": b, "inp": a}])
        return PlanTemplateCache.key_for(
            kernel, (n,), (8,), BlockWorkDist(64), 0, slots, pattern
        )

    old = key()
    cache = PlanTemplateCache()
    cache.store(old, "recipe of the old layout")
    a.redistribute(BlockDist(32))
    new = key()
    assert new != old
    assert cache.lookup(new) is None
    assert cache.lookup(old) == "recipe of the old layout"
    assert len(cache) == 1

    kernel.launch(n, 8, BlockWorkDist(64), (n, b, a))
    a.redistribute(BlockDist(64))
    kernel.launch(n, 8, BlockWorkDist(64), (n, b, a))
    ctx.synchronize()
    assert len(ctx.planner.cache) == 2
    assert ctx.planner.invalidate_all() == 2
    assert len(ctx.planner.cache) == 0
    assert ctx.stats().plan_cache_invalidations == 2


def test_redistribute_replans_expression_recipes_and_keeps_old_entries():
    """Lowered expression launches go through the same template cache as
    hand-written kernels; redistributing an input evicts nothing, and the
    re-chunked re-evaluation plans against the new layout correctly."""
    ctx = make_ctx()
    n = 256
    a = ctx.ones(n, BlockDist(64), name="a")
    b = ctx.full(n, 3.0, BlockDist(64), name="b")
    first = ctx.gather(a + b * 2.0)
    cache = ctx.planner.cache
    entries = len(cache)
    assert entries >= 1 and cache.misses >= 1

    a.redistribute(BlockDist(32))
    assert len(cache) == entries
    assert ctx.stats().plan_cache_invalidations == 0

    # the recipe re-plans against the new chunking and stays correct
    second = ctx.gather(a + b * 2.0)
    assert np.array_equal(first, second)
    assert len(cache) > entries


def test_redistribute_forces_pending_expressions_first():
    """A pending DAG reading the array must be lowered against the *old*
    layout before redistribution re-chunks it."""
    ctx = make_ctx()
    a = ctx.ones(256, BlockDist(64), name="a")
    b = ctx.full(256, 2.0, BlockDist(64), name="b")
    e = a + b
    assert ctx.expr.pending_count == 1
    a.redistribute(BlockDist(32))
    assert ctx.expr.pending_count == 0
    assert e._result is not None
    assert np.allclose(ctx.gather(e), 3.0)


def test_redistribute_invalidates_fusion_cache_entries():
    """Fused chains are keyed on every member's layout: redistributing the
    intermediate evicts nothing, and the re-chunk that its next writer makes
    (back to the superblock regions, the layout it started in) lets the
    chain hit its old entry, bound to the new chunks."""
    ctx = make_ctx(fusion=True)
    kernel = scale_kernel(ctx)
    n = 512
    a = ctx.ones(n, BlockDist(128), name="a")
    b = ctx.zeros(n, BlockDist(128), name="b")
    c = ctx.zeros(n, BlockDist(128), name="c")
    for _ in range(2):
        kernel.launch(n, 32, BlockWorkDist(128), (n, b, a))
        kernel.launch(n, 32, BlockWorkDist(128), (n, c, b))
    ctx.synchronize()
    # one positive pair entry plus the chain builder's negative extension probe
    assert len(ctx.planner._fusion_cache) == 2
    misses = ctx.stats().plan_cache_misses
    b.redistribute(BlockDist(64))
    assert len(ctx.planner._fusion_cache) == 2
    kernel.launch(n, 32, BlockWorkDist(128), (n, b, a))
    kernel.launch(n, 32, BlockWorkDist(128), (n, c, b))
    assert np.allclose(ctx.gather(c), 4.0)
    assert b.rechunked
    assert ctx.stats().plan_cache_misses == misses
    assert len(ctx.planner._fusion_cache) == 2


def test_redistribute_invalidates_three_launch_chain_entries():
    """Chain entries are keyed on *every* member: redistributing any array a
    chain member binds — here the middle link, to halo chunks its writer
    writes in place — sends the chain to a new entry, and the old ones
    stay."""
    ctx = make_ctx(fusion=True)
    kernel = scale_kernel(ctx)
    n = 512
    a = ctx.ones(n, BlockDist(128), name="a")
    b = ctx.zeros(n, BlockDist(128), name="b")
    c = ctx.zeros(n, BlockDist(128), name="c")
    d = ctx.zeros(n, BlockDist(128), name="d")
    for _ in range(2):
        kernel.launch(n, 32, BlockWorkDist(128), (n, b, a))
        kernel.launch(n, 32, BlockWorkDist(128), (n, c, b))
        kernel.launch(n, 32, BlockWorkDist(128), (n, d, c))
    ctx.synchronize()
    stats = ctx.stats()
    assert stats.fused_chain_max_len == 3 and stats.launches_fused_chain > 0
    entries = len(ctx.planner._fusion_cache)

    c.redistribute(StencilDist(128, halo=1))
    assert len(ctx.planner._fusion_cache) == entries
    # re-chunked middle link: the chain re-fuses against the new layout and
    # results stay right
    kernel.launch(n, 32, BlockWorkDist(128), (n, b, a))
    kernel.launch(n, 32, BlockWorkDist(128), (n, c, b))
    kernel.launch(n, 32, BlockWorkDist(128), (n, d, c))
    ctx.synchronize()
    assert ctx.stats().launches_fused_chain == stats.launches_fused_chain + 3
    assert not c.rechunked
    assert len(ctx.planner._fusion_cache) > entries
    assert np.allclose(ctx.gather(d), 8.0)
