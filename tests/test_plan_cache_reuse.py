"""The plan-template cache keyed by chunk layout, not array identity.

A key names the kernel, its dimensions, the work distribution, the
planner's rotation, which parameters share one array, and each array's
name, dtype, shape and chunk layout; a cached recipe names chunks by
(array slot, chunk index) and is bound to the chunk ids of whichever
arrays a launch passes.  So a served tenant's next job restamps the plans
its earlier job built, and an array redistributed away and back hits the
entries of its old layout."""

import numpy as np
import pytest

import repro.apps  # noqa: F401  (registers the cgc workload)
from repro import BlockDist, BlockWorkDist, Context, KernelCost, KernelDef, azure_nc24rsv2
from repro.core.planning import PlanTemplateCache
from repro.core.planning.ir import array_slots
from repro.runtime.serving import JobSpec, ServingSystem


def make_ctx(**kw):
    return Context(azure_nc24rsv2(nodes=1, gpus_per_node=2), record_plans=True, **kw)


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


def key(kernel, n, out, inp):
    slots, pattern = array_slots([{"out": out, "inp": inp}])
    return PlanTemplateCache.key_for(kernel, (n,), (8,), BlockWorkDist(64), 0, slots, pattern)


def test_keys_separate_shared_arrays_and_names():
    ctx = make_ctx()
    kernel = scale_kernel(ctx)
    n = 256
    a = ctx.ones(n, BlockDist(64), name="a")
    b = ctx.zeros(n, BlockDist(64), name="b")
    renamed = ctx.zeros(n, BlockDist(64), name="c")
    twin = ctx.zeros(n, BlockDist(64), name="b")
    # (b, a) binds two arrays, (a, a) one array to both parameters
    assert key(kernel, n, b, a) != key(kernel, n, a, a)
    # same layout, different name: task and temp labels differ
    assert key(kernel, n, b, a) != key(kernel, n, renamed, a)
    # same name and layout: one entry serves both
    assert key(kernel, n, b, a) == key(kernel, n, twin, a)

    kernel.launch(n, 8, BlockWorkDist(64), (n, b, a))
    kernel.launch(n, 8, BlockWorkDist(64), (n, a, a))  # in place: a = 2a
    kernel.launch(n, 8, BlockWorkDist(64), (n, twin, a))
    ctx.synchronize()
    cache = ctx.planner.cache
    assert (cache.misses, cache.hits) == (2, 1)
    assert np.allclose(ctx.gather(b), 2.0)
    assert np.allclose(ctx.gather(a), 2.0)
    assert np.allclose(ctx.gather(twin), 4.0)


def _bound_chunks(plan):
    return {binding.chunk_id
            for task in plan.all_tasks() if task.kind == "launch"
            for bindings in task.array_args_list for binding in bindings}


def test_redistributing_away_and_back_hits_the_old_layout_entry():
    ctx = make_ctx()
    kernel = scale_kernel(ctx)
    n = 256
    data = np.arange(n, dtype=np.float32)
    a = ctx.from_numpy(data, BlockDist(64), name="a")
    b = ctx.zeros(n, BlockDist(64), name="b")
    kernel.launch(n, 8, BlockWorkDist(64), (n, b, a))
    a.redistribute(BlockDist(32))
    kernel.launch(n, 8, BlockWorkDist(64), (n, b, a))
    old_chunks = {chunk.chunk_id for chunk in a.chunks}
    a.redistribute(BlockDist(64))
    a.redistribute(BlockDist(64))  # twice: new chunk ids, the same layout
    kernel.launch(n, 8, BlockWorkDist(64), (n, b, a))
    ctx.synchronize()
    cache = ctx.planner.cache
    assert (cache.misses, cache.hits) == (2, 1)
    last = [plan for plan in ctx.recorded_plans if plan.cache_status][-1]
    assert last.cache_status == "hit"
    new_chunks = {chunk.chunk_id for chunk in a.chunks}
    assert new_chunks <= _bound_chunks(last) and not old_chunks & _bound_chunks(last)
    assert np.array_equal(ctx.gather(b), 2 * data)


#: small jobs of the three served workloads (each re-chunks a write-only
#: array but cgc)
JOBS = {
    "hotspot3": (64 * 64, {"iterations": 2, "seed": 3, "chunk_elems": 64 * 32}),
    "kmeans2": (4096, {"iterations": 2, "seed": 0, "chunk_elems": 1024}),
    "cgc": (32 * 32, {"iterations": 1}),
}


def serve(jobs, **tenant_kwargs):
    """Serve ``jobs`` (workload names) one after another on one tenant."""
    serving = ServingSystem(cluster=azure_nc24rsv2(nodes=1, gpus_per_node=2))
    ctx = serving.add_tenant("t0", **tenant_kwargs)
    for index, workload in enumerate(jobs):
        n, params = JOBS[workload]
        serving.submit(JobSpec(arrival=float(index), tenant=0, workload=workload,
                               n=n, params=dict(params)))
    report = serving.run()
    assert all(job.workload.verify() for job in report.jobs)
    return ctx


@pytest.mark.parametrize("workload", sorted(JOBS))
def test_a_served_second_job_plans_nothing_cold(workload):
    one = serve([workload])
    two = serve([workload, workload])
    first = one.stats()
    both = two.stats()
    # every launch and fused chain of the second job restamps a cached plan
    assert both.plan_cache_misses == first.plan_cache_misses
    assert two.planner.cache.misses == one.planner.cache.misses
    assert both.plan_cache_hits > first.plan_cache_hits
    assert both.arrays_rechunked == 2 * first.arrays_rechunked
    # and the results are bit for bit those of planning every launch cold
    cold = serve([workload, workload], plan_cache=False)
    assert cold.stats().plan_cache_hits == cold.stats().plan_cache_misses == 0
    assert sorted(two.arrays) == sorted(cold.arrays)
    for array_id, array in two.arrays.items():
        assert np.array_equal(two.gather(array), cold.gather(cold.arrays[array_id]))


def test_each_job_rechunks_its_write_only_arrays_on_a_cached_recipe():
    ctx = serve(["hotspot3", "kmeans2", "hotspot3", "kmeans2"])
    rechunked = sorted(array.name for array in ctx.arrays.values() if array.rechunked)
    assert rechunked == sorted(["hotspot3_mid1", "hotspot3_mid2", "kmeans2_best"] * 2)
    assert ctx.stats().arrays_rechunked == 6
    # the second job of each workload hit the recipes that named the writes
    # misaligned under the declared layout, re-chunked, and hit again
    one = serve(["hotspot3", "kmeans2"])
    assert ctx.planner.cache.misses == one.planner.cache.misses
