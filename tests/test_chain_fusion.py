"""Tests for the chain-fusion pass: >2-launch chains, compatible-but-different
work distributions, reduction tails, and — property-tested with hypothesis —
the core legality contract: any chain the builder accepts produces results
bit-identical to the unfused plan."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
from repro.core.distributions import match_superblocks
from repro.core.planning.ir import (
    ArgBindingProto,
    PlanRecipe,
    ReduceEpilogueProto,
    TempMetaRef,
    TempRef,
)
from repro.kernels import create_workload

N = 256
TOTAL_SHAPE = 4


def make_ctx(gpus=2, **kw):
    return Context(azure_nc24rsv2(nodes=1, gpus_per_node=gpus), **kw)


def _reversed_block_factory(step):
    """A CustomWorkDist factory with the same geometry as BlockWorkDist(step)
    but enumerating the superblocks in reverse order (compatible split)."""

    def factory(grid, block, devices):
        return list(reversed(BlockWorkDist(step).superblocks(grid, block, devices)))

    return factory


def build_kernels(ctx):
    """The kernel zoo used by the chain programs (one compile per context)."""

    def point_body(lc, n, out, inp):
        i = lc.global_indices(0)
        i = i[i < n]
        out.scatter(i, (inp.gather(i) * 2.0 + 1.0).astype(np.float32))

    point = (
        KernelDef("chain_point", func=point_body)
        .param_value("n", "int64")
        .param_array("out", "float32")
        .param_array("inp", "float32")
        .annotate("global i => read inp[i], write out[i]")
        .with_cost(KernelCost(1, 8))
        .compile(ctx)
    )

    def stencil_body(lc, n, out, inp):
        i = lc.global_indices(0)
        i = i[i < n]
        left = inp.gather(np.maximum(i - 1, 0))
        mid = inp.gather(i)
        right = inp.gather(np.minimum(i + 1, n - 1))
        out.scatter(i, ((left + mid + right) / 3.0).astype(np.float32))

    stencil = (
        KernelDef("chain_stencil", func=stencil_body)
        .param_value("n", "int64")
        .param_array("out", "float32")
        .param_array("inp", "float32")
        .annotate("global i => read inp[i-1:i+1], write out[i]")
        .with_cost(KernelCost(1, 12))
        .compile(ctx)
    )

    def reduce_body(lc, n, inp, total):
        i = lc.global_indices(0)
        i = i[i < n]
        if i.size == 0:
            return
        total[0:1] = total[0:1] + np.sum(inp.gather(i)).astype(np.float32)

    reduce_sum = (
        KernelDef("chain_reduce", func=reduce_body)
        .param_value("n", "int64")
        .param_array("inp", "float32")
        .param_array("total", "float32")
        .annotate("global i => read inp[i], reduce(+) total[:]")
        .with_cost(KernelCost(1, 8))
        .compile(ctx)
    )
    return {"point": point, "stencil": stencil, "reduce": reduce_sum}


#: work distributions the chain programs draw from: the first two share the
#: same superblock geometry (fusable across each other), the third splits the
#: grid differently (incompatible: chains must break there)
WORK_DISTS = {
    "block64": lambda: BlockWorkDist(64),
    "custom64": lambda: CustomWorkDist(_reversed_block_factory(64)),
    "block128": lambda: BlockWorkDist(128),
}


def _temp_slots(value, out):
    """Add every temp slot ``value`` (a proto field) refers to to ``out``."""
    if isinstance(value, (TempRef, TempMetaRef)):
        out.add(value.slot)
    elif isinstance(value, ArgBindingProto):
        _temp_slots(value.chunk_ref, out)
    elif isinstance(value, ReduceEpilogueProto):
        _temp_slots(value.src_ref, out)
        _temp_slots(value.dst_ref, out)
    elif isinstance(value, tuple):
        for item in value:
            _temp_slots(item, out)


def assert_cached_temps_are_created(ctx):
    """Every live temp slot of every recipe in the planner's plan-template and
    fusion caches is referenced by a proto of that recipe (a slot fusion
    elided must be released, or the memory planner counts phantom bytes)."""
    planner = ctx.planner
    recipes = list(planner.cache._entries.values()) + [
        recipe for recipe in planner._fusion_cache.values() if isinstance(recipe, PlanRecipe)
    ]
    for recipe in recipes:
        live = {slot for slot, spec in enumerate(recipe.temps) if spec is not None}
        referenced = set()
        for proto in recipe.protos:
            for value in proto.fields.values():
                _temp_slots(value, referenced)
        assert live == referenced, (
            f"{recipe.description}: live temp slots {sorted(live - referenced)} "
            f"unreferenced, released slots {sorted(referenced - live)} referenced"
        )


def run_chain_program(ops, fusion):
    """Run one generated chain program; returns (gathers, stats, ctx).

    ``ops`` is a list of ``(kind, src_choice, dist_name)``: each step applies
    ``kind`` to an input picked among the arrays created so far (chains form
    whenever ``src_choice`` lands on the previous step's output) and writes a
    fresh output array.
    """
    ctx = make_ctx(fusion=fusion)
    kernels = build_kernels(ctx)
    pool = [ctx.from_numpy(np.arange(N, dtype=np.float32), BlockDist(64), name="a0")]
    total = ctx.zeros(TOTAL_SHAPE, ReplicatedDist(), name="total")
    for kind, src_choice, dist_name in ops:
        src = pool[src_choice % len(pool)]
        work = WORK_DISTS[dist_name]()
        if kind == "reduce":
            kernels["reduce"].launch(N, 32, work, (N, src, total))
        else:
            dst = ctx.zeros(N, BlockDist(64), name=f"a{len(pool)}")
            kernels[kind].launch(N, 32, work, (N, dst, src))
            pool.append(dst)
    ctx.synchronize()
    gathers = [ctx.gather(arr) for arr in pool] + [ctx.gather(total)]
    return gathers, ctx.stats(), ctx


@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["point", "stencil", "reduce"]),
            st.integers(min_value=0, max_value=7),
            st.sampled_from(sorted(WORK_DISTS)),
        ),
        min_size=2,
        max_size=8,
    )
)
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_accepted_chains_are_bit_identical_to_unfused(ops):
    """THE chain-fusion contract: whatever the greedy builder decides to fuse
    (chains of any length, compatible distributions, reduction tails) — and
    whatever it rejects (incompatible splits, halo consumers, mid-chain
    reductions) — the results are bit-identical to the unfused plans."""
    fused_gathers, fused_stats, fused_ctx = run_chain_program(ops, fusion=True)
    plain_gathers, plain_stats, _ = run_chain_program(ops, fusion=False)
    assert plain_stats.launches_fused == 0
    for fused, plain in zip(fused_gathers, plain_gathers):
        assert np.array_equal(fused, plain)
    assert_cached_temps_are_created(fused_ctx)


# --------------------------------------------------------------------------- #
# chains longer than a pair
# --------------------------------------------------------------------------- #
def test_three_launch_chain_fuses_into_single_tasks():
    ops = [("point", 0, "block64"), ("point", 1, "block64"), ("point", 2, "block64")]
    gathers, stats, ctx = run_chain_program(ops, fusion=True)
    assert stats.launches_fused == 2
    assert stats.launches_fused_chain == 3
    assert stats.fused_chain_max_len == 3
    assert np.array_equal(gathers[3], ((np.arange(N) * 2 + 1) * 2 + 1) * 2 + 1)


def test_chain_fuses_into_one_task_per_superblock():
    ctx = make_ctx(fusion=True, record_plans=True)
    kernels = build_kernels(ctx)
    a = ctx.from_numpy(np.arange(N, dtype=np.float32), BlockDist(64), name="a")
    b = ctx.zeros(N, BlockDist(64), name="b")
    c = ctx.zeros(N, BlockDist(64), name="c")
    d = ctx.zeros(N, BlockDist(64), name="d")
    for src, dst in ((a, b), (b, c), (c, d)):
        kernels["point"].launch(N, 32, BlockWorkDist(64), (N, dst, src))
    ctx.synchronize()
    fused = [
        t for p in ctx.recorded_plans for t in p.all_tasks()
        if isinstance(t, T.LaunchTask) and t.segment_count > 1
    ]
    assert fused and all(t.segment_count == 3 for t in fused)
    assert len(fused) == 4  # one per superblock, instead of 12 launch tasks


def test_every_launch_task_has_one_entry_per_segment():
    """Plain launches, fused chains and reduction tails are all emitted by one
    emitter: every per-segment field of every launch task has one entry per
    segment, and the reduce epilogues are either absent or per segment (on
    four GPUs each GPU runs one superblock, so the tail keeps epilogues)."""
    ctx = make_ctx(gpus=4, fusion=True, record_plans=True)
    kernels = build_kernels(ctx)
    a = ctx.from_numpy(np.arange(N, dtype=np.float32), BlockDist(64), name="a")
    b, c, d, e = (ctx.zeros(N, BlockDist(64), name=name) for name in "bcde")
    total = ctx.zeros(TOTAL_SHAPE, ReplicatedDist(), name="total")
    work = BlockWorkDist(64)
    kernels["point"].launch(N, 32, work, (N, b, a))  # chain: point, point
    kernels["point"].launch(N, 32, work, (N, c, b))
    kernels["stencil"].launch(N, 32, work, (N, d, c))  # plain: halo consumer
    kernels["reduce"].launch(N, 32, work, (N, a, total))  # plain reduction
    kernels["point"].launch(N, 32, work, (N, e, d))  # reduction tail
    kernels["reduce"].launch(N, 32, work, (N, e, total))
    ctx.synchronize()
    tasks = [t for p in ctx.recorded_plans for t in p.all_tasks()]
    launches = [t for t in tasks if isinstance(t, T.LaunchTask)]
    assert {(t.segment_count, bool(t.reduce_epilogues)) for t in launches} == {
        (1, False), (2, False), (2, True)
    }
    assert any(isinstance(t, T.ReduceTask) and t.label == "reduce total" for t in tasks)
    for t in launches:
        lengths = {
            len(t.kernel_names), len(t.superblocks_list), len(t.grid_dims_list),
            len(t.block_dims_list), len(t.scalar_args_list), len(t.array_args_list),
            len(t.array_shapes_list),
        }
        assert lengths == {t.segment_count}, t.label
        assert len(t.reduce_epilogues) in (0, t.segment_count), t.label


def test_chain_breaks_at_halo_consumer():
    """A halo consumer inside a longer run: the chain absorbs the pointwise
    prefix and stops exactly at the stencil."""
    ops = [
        ("point", 0, "block64"),
        ("point", 1, "block64"),
        ("stencil", 2, "block64"),
    ]
    gathers, stats, _ = run_chain_program(ops, fusion=True)
    assert stats.launches_fused == 1  # only the two pointwise launches merged
    assert stats.fused_chain_max_len == 2


# --------------------------------------------------------------------------- #
# compatible-but-different work distributions
# --------------------------------------------------------------------------- #
def test_match_superblocks_permutation_and_offset():
    devices = azure_nc24rsv2(nodes=1, gpus_per_node=2)
    cluster_devices = Context(devices).devices()
    base = BlockWorkDist(64).superblocks((256,), (32,), cluster_devices)
    other = list(reversed(base))
    matched = match_superblocks(base, other)
    assert matched is not None
    permutation, offset = matched
    assert offset == (0,)
    assert [other[p].index for p in permutation] == [sb.index for sb in base]
    # translated copy: same permutation, non-zero offset
    shifted = [
        type(sb)(
            index=sb.index,
            device=sb.device,
            thread_region=sb.thread_region.translate((64,)),
            block_offset=sb.block_offset,
        )
        for sb in base
    ]
    matched = match_superblocks(base, shifted)
    assert matched is not None and matched[1] == (64,)
    # different split: no match
    other_split = BlockWorkDist(128).superblocks((256,), (32,), cluster_devices)
    assert match_superblocks(base, other_split) is None


def test_compatible_custom_distribution_fuses():
    ops = [("point", 0, "block64"), ("point", 1, "custom64")]
    gathers, stats, _ = run_chain_program(ops, fusion=True)
    assert stats.launches_fused == 1
    assert np.array_equal(gathers[2], (np.arange(N) * 2 + 1) * 2 + 1)


def test_incompatible_distribution_rejected():
    ops = [("point", 0, "block64"), ("point", 1, "block128")]
    gathers, stats, _ = run_chain_program(ops, fusion=True)
    assert stats.launches_fused == 0
    assert np.array_equal(gathers[2], (np.arange(N) * 2 + 1) * 2 + 1)


# --------------------------------------------------------------------------- #
# reduction tails
# --------------------------------------------------------------------------- #
def test_reduction_tail_fuses_and_matches_unfused_bit_for_bit():
    ops = [("point", 0, "block64"), ("reduce", 1, "block64")]
    fused_gathers, fused_stats, fused_ctx = run_chain_program(ops, fusion=True)
    plain_gathers, plain_stats, _ = run_chain_program(ops, fusion=False)
    assert fused_stats.launches_fused == 1
    assert fused_stats.reductions_fused == 1
    assert plain_stats.reductions_fused == 0
    for fused, plain in zip(fused_gathers, plain_gathers):
        assert np.array_equal(fused, plain)


def test_reduction_tail_epilogues_replace_per_superblock_reduces():
    """Where each GPU runs one superblock of a reduction tail, the
    per-superblock combine runs inside the fused launch task; only the
    cross-superblock merge remains as separate ReduceTasks."""
    counts = {}
    for fusion in (True, False):
        ctx = make_ctx(gpus=4, fusion=fusion, record_plans=True)
        kernels = build_kernels(ctx)
        a = ctx.from_numpy(np.arange(N, dtype=np.float32), BlockDist(64), name="a")
        b = ctx.zeros(N, BlockDist(64), name="b")
        total = ctx.zeros(TOTAL_SHAPE, ReplicatedDist(), name="total")
        kernels["point"].launch(N, 32, BlockWorkDist(64), (N, b, a))
        kernels["reduce"].launch(N, 32, BlockWorkDist(64), (N, b, total))
        ctx.synchronize()
        tasks = [t for p in ctx.recorded_plans for t in p.all_tasks()]
        counts[fusion] = {
            "reduce": sum(1 for t in tasks if isinstance(t, T.ReduceTask)),
            "fused": [t for t in tasks
                      if isinstance(t, T.LaunchTask) and t.segment_count > 1],
        }
    assert counts[True]["reduce"] < counts[False]["reduce"]
    fused_tasks = counts[True]["fused"]
    assert fused_tasks
    epilogues = [e for t in fused_tasks for seg in t.reduce_epilogues for e in seg]
    assert len(epilogues) == len(fused_tasks)  # one combine per superblock


def test_reduction_tail_on_gpus_running_several_superblocks_keeps_reduce_tasks():
    """Where a GPU runs more than one superblock of a reduction tail, in-task
    epilogues would chain its fused launch tasks through its accumulator:
    the tail combines its partials with ReduceTasks instead, as an unfused
    reduction does, so its launch tasks wait for none of each other, and
    the result is bit-identical to the unfused run's."""
    results, tasks = {}, {}
    for fusion in (True, False):
        ctx = make_ctx(gpus=2, fusion=fusion, record_plans=True)
        kernels = build_kernels(ctx)
        a = ctx.from_numpy(np.arange(N, dtype=np.float32), BlockDist(64), name="a")
        b = ctx.zeros(N, BlockDist(64), name="b")
        total = ctx.zeros(TOTAL_SHAPE, ReplicatedDist(), name="total")
        kernels["point"].launch(N, 32, BlockWorkDist(64), (N, b, a))
        kernels["reduce"].launch(N, 32, BlockWorkDist(64), (N, b, total))
        ctx.synchronize()
        assert ctx.stats().reductions_fused == int(fusion)
        results[fusion] = ctx.gather(total)
        tasks[fusion] = [t for p in ctx.recorded_plans for t in p.all_tasks()]
    fused = [t for t in tasks[True] if isinstance(t, T.LaunchTask) and t.segment_count > 1]
    assert len(fused) == 4 and len({t.device for t in fused}) == 2
    assert not any(t.reduce_epilogues for t in fused)
    fused_ids = {t.task_id for t in fused}
    assert not any(fused_ids & set(t.deps) for t in fused)
    reduces = {
        fusion: sum(1 for t in tasks[fusion] if isinstance(t, T.ReduceTask))
        for fusion in (True, False)
    }
    assert reduces[True] == reduces[False] > len(fused)
    np.testing.assert_array_equal(results[True], results[False])


def test_mid_chain_reduction_rejected():
    """A reduction launch can only ever be the chain's tail: a consumer after
    it never extends the chain."""
    ctx = make_ctx(fusion=True)
    kernels = build_kernels(ctx)
    a = ctx.from_numpy(np.arange(N, dtype=np.float32), BlockDist(64), name="a")
    b = ctx.zeros(N, BlockDist(64), name="b")
    c = ctx.zeros(N, BlockDist(64), name="c")
    total = ctx.zeros(TOTAL_SHAPE, ReplicatedDist(), name="total")
    kernels["point"].launch(N, 32, BlockWorkDist(64), (N, b, a))
    kernels["reduce"].launch(N, 32, BlockWorkDist(64), (N, b, total))
    kernels["point"].launch(N, 32, BlockWorkDist(64), (N, c, b))
    ctx.synchronize()
    stats = ctx.stats()
    assert stats.fused_chain_max_len == 2  # [point, reduce] only
    assert stats.launches_fused == 1
    expected_b = np.arange(N) * 2 + 1
    assert np.array_equal(ctx.gather(c), expected_b * 2 + 1)
    assert np.allclose(ctx.gather(total)[0], expected_b.sum())


def test_reduction_tail_rejected_under_permuted_distribution():
    """Reordering the tail's superblocks would reorder the floating-point
    partial combines; the builder must refuse rather than drift."""
    ops = [("point", 0, "block64"), ("reduce", 1, "custom64")]
    fused_gathers, stats, _ = run_chain_program(ops, fusion=True)
    plain_gathers, _, _ = run_chain_program(ops, fusion=False)
    assert stats.reductions_fused == 0
    for fused, plain in zip(fused_gathers, plain_gathers):
        assert np.array_equal(fused, plain)


# --------------------------------------------------------------------------- #
# end-to-end: the chain workloads
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "name,n,params",
    [
        ("hotspot3", 64 * 64, dict(chunk_elems=64 * 32, iterations=4, seed=3)),
        ("kmeans2", 40_960, dict(iterations=6, seed=0, chunk_elems=10_240)),
    ],
)
def test_chain_workloads_fuse_and_stay_bit_identical(name, n, params):
    results = {}
    for fusion in (True, False):
        ctx = make_ctx(fusion=fusion, lookahead=6)
        workload = create_workload(name, ctx, n, **params)
        workload.run()
        assert_cached_temps_are_created(ctx)
        results[fusion] = (ctx.stats(), ctx.gather(workload.centroids)
                           if name == "kmeans2" else ctx.gather(workload._final),
                           workload.verify())
    stats_chain, final_chain, ok_chain = results[True]
    stats_unfused, final_unfused, ok_unfused = results[False]
    assert ok_chain and ok_unfused
    assert np.array_equal(final_chain, final_unfused)
    assert stats_chain.launches_fused > stats_unfused.launches_fused
    assert stats_chain.events_processed < stats_unfused.events_processed
    if name == "hotspot3":
        assert stats_chain.fused_chain_max_len == 3
    else:
        assert stats_chain.reductions_fused > 0
