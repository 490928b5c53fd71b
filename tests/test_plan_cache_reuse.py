"""The plan-template cache keyed by chunk layout, not array identity.

A key names the kernel, its dimensions, the work distribution, the
planner's rotation, which parameters share one array, and each array's
name, dtype, shape and chunk layout; a cached recipe names chunks by
(array slot, chunk index), and stamping resolves them to the chunk ids of
whichever arrays a launch passes.  So a served tenant's next job restamps
the plans its earlier job built, and an array redistributed away and back
hits the entries of its old layout."""

import numpy as np
import pytest

import repro.apps  # noqa: F401  (registers the cgc workload)
from repro import BlockDist, BlockWorkDist, Context, KernelCost, KernelDef, azure_nc24rsv2
from repro.core import tasks as T
from repro.core.array import DistributedArray
from repro.core.planning import PlanTemplateCache, ir
from repro.core.planning.ir import array_slots
from repro.hardware import DeviceId
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


# --------------------------------------------------------------------------- #
# stamp-time resolution: one recipe, the chunks of each launch's own arrays
# --------------------------------------------------------------------------- #
def smooth_kernel(ctx):
    def body(lc, n, out, inp):
        i = lc.global_indices(0)
        i = i[i < n]
        left = inp.gather(np.maximum(i - 1, 0))
        right = inp.gather(np.minimum(i + 1, n - 1))
        out.scatter(i, ((left + inp.gather(i) + right) / 3.0).astype(np.float32))

    return (
        KernelDef("smooth", func=body)
        .param_value("n", "int64")
        .param_array("out", "float32")
        .param_array("inp", "float32")
        .annotate("global i => read inp[i-1:i+1], write out[i]")
        .with_cost(KernelCost(1, 12))
        .compile(ctx)
    )


def task_chunks(task):
    """The chunk ids a task names."""
    named = {getattr(task, name) for name in ("chunk_id", "src_chunk", "dst_chunk")
             if hasattr(task, name)}
    if isinstance(task, T.CreateChunkTask):
        named.add(task.chunk.chunk_id)
    if isinstance(task, T.MemoryReserveTask):
        named.update(task.chunk_ids)
    for bindings in getattr(task, "array_args_list", ()):
        named.update(binding.chunk_id for binding in bindings)
    return named


def launch_on_two_sets(plan_cache, monkeypatch=None):
    """The smoothing launch on set A, on set B (arrays of the same names and
    layouts), on A again, all in one drain, and then once more on A alone.

    Returns the context, the sets, which set each launch bound, and how many
    stamp splits the last launch compiled."""
    n = 256
    ctx = Context(azure_nc24rsv2(nodes=2, gpus_per_node=2), record_plans=True,
                  plan_cache=plan_cache)
    kernel = smooth_kernel(ctx)
    sets = [
        (ctx.zeros(n, BlockDist(64), name="out"),
         ctx.from_numpy(np.arange(n, dtype=np.float32) * scale, BlockDist(64), name="inp"))
        for scale in (1, 3)
    ]
    order = (0, 1, 0)
    for which in order:
        kernel.launch(n, 8, BlockWorkDist(64), (n, *sets[which]))
    ctx.flush_launches()
    compiles = []
    if monkeypatch is not None:
        compile_split = ir._compile_split
        monkeypatch.setattr(ir, "_compile_split",
                            lambda *args: compiles.append(args) or compile_split(*args))
    kernel.launch(n, 8, BlockWorkDist(64), (n, *sets[0]))
    ctx.synchronize()
    return ctx, sets, order + (0,), len(compiles)


def test_one_recipe_stamps_each_launch_for_its_own_arrays(monkeypatch):
    ctx, sets, order, compiles = launch_on_two_sets(True, monkeypatch)
    cache = ctx.planner.cache
    assert (len(cache), cache.misses, cache.hits) == (1, 1, 3)
    # the fourth launch restamped the arrays the third one did: no split
    # was compiled again
    assert compiles == 0

    plans = ctx.recorded_plans
    launches = [plan for plan in plans if plan.launch_id is not None]
    assert [plan.launch_id for plan in launches] == [1, 2, 3, 4]
    owner = {task.task_id: task for plan in plans for task in plan.all_tasks()}
    kinds = set()
    for plan, which in zip(launches, order):
        own = {chunk.chunk_id for array in sets[which] for chunk in array.chunks}
        tasks = plan.all_tasks()
        created = {task.chunk.chunk_id for task in tasks if isinstance(task, T.CreateChunkTask)}
        named = set()
        for task in tasks:
            kinds.add(task.kind)
            named |= task_chunks(task)
            # a conflict edge leads only to earlier work on this launch's arrays
            for dep in task.deps:
                if dep not in {t.task_id for t in tasks}:
                    assert task_chunks(owner[dep]) & own, (plan.launch_id, task, owner[dep])
        # every binding and copy/send/recv endpoint is a temporary of the
        # plan or a chunk of the launch's own arrays, and each array appears
        assert named - created <= own
        for array in sets[which]:
            assert named & {chunk.chunk_id for chunk in array.chunks}
    assert {"launch", "copy", "send", "recv"} <= kinds
    # the repeat on A waited for the earlier launches on A only
    third, fourth = launches[2], launches[3]
    deps = {dep for task in fourth.all_tasks() for dep in task.deps}
    assert deps & {task.task_id for task in third.all_tasks()}
    assert not deps & {task.task_id for task in launches[1].all_tasks()}

    cold, cold_sets, _, _ = launch_on_two_sets(False)
    for ours, theirs in zip(sets, cold_sets):
        for array, twin in zip(ours, theirs):
            assert ctx.gather(array).tobytes() == cold.gather(twin).tobytes()


def test_a_served_second_jobs_memory_plans_name_its_own_chunks():
    """Window memory planning maps each drain unit's summary through that
    unit's own chunks, though the second job restamps the first's recipes."""
    capacities = {DeviceId(0, local).memory_space: 48 * 1024 for local in range(2)}
    serving = ServingSystem(cluster=azure_nc24rsv2(nodes=1, gpus_per_node=2),
                            memory_capacities=capacities, record_plans=True)
    serving.add_tenant("t0")
    for index in range(2):
        serving.submit(JobSpec(arrival=float(index), tenant=0, workload="hotspot3", n=64 * 64,
                               params={"iterations": 3, "seed": 3, "chunk_elems": 1024}))
    report = serving.run()
    assert all(job.workload.verify() for job in report.jobs)
    owner = {}
    for index, job in enumerate(report.jobs):
        for array in vars(job.workload).values():
            if isinstance(array, DistributedArray):
                owner.update((chunk.chunk_id, index) for chunk in array.chunks)
    plans = serving.runtime.recorded_plans
    planned = {0: 0, 1: 0}
    for position, plan in enumerate(plans):
        memory_tasks = [task for task in plan.all_tasks()
                        if isinstance(task, (T.MemoryReserveTask, T.PromoteChunkTask))]
        if not memory_tasks:
            continue
        # the job whose launch the memory plan precedes
        launch = next(later for later in plans[position:] if later.launch_id is not None)
        job = {owner[chunk] for task in launch.all_tasks() for chunk in task_chunks(task)
               if chunk in owner}
        assert len(job) == 1
        for task in memory_tasks:
            assert {owner.get(chunk) for chunk in task_chunks(task)} == job, task
        planned[job.pop()] += len(memory_tasks)
    # the second job restamped the first one's plans, and was memory-planned
    assert serving.contexts[0].stats().plan_cache_hits > 0
    assert planned[1] > 0


def test_promotions_name_the_chunks_of_the_launch_they_serve():
    """Batches j and j + 3 share a name and a layout, so one recipe serves
    both; each promotion names a chunk of the batch its unit launches on."""
    mb = 1024 ** 2
    capacities = {DeviceId(0, local).memory_space: 48 * mb for local in range(2)}
    ctx = Context(azure_nc24rsv2(nodes=1, gpus_per_node=2), mode="functional",
                  memory_capacities=capacities, record_plans=True)

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
    batches = [ctx.zeros(elems, BlockDist(elems // 2), name=f"b{j % 3}") for j in range(6)]
    ctx.synchronize()
    for _ in range(3):
        for batch in batches:
            kernel.launch(elems, 256, BlockWorkDist(elems // 2), (elems, batch))
        ctx.synchronize()
    assert len(ctx.planner.cache) == 3
    owner = {chunk.chunk_id: j for j, batch in enumerate(batches) for chunk in batch.chunks}
    plans = ctx.recorded_plans
    promoted = 0
    for position, plan in enumerate(plans):
        promotes = [task for task in plan.all_tasks() if isinstance(task, T.PromoteChunkTask)]
        if promotes:
            launch = next(later for later in plans[position:] if later.launch_id is not None)
            served = {owner[chunk] for task in launch.all_tasks()
                      for chunk in task_chunks(task) if chunk in owner}
            assert {owner[task.chunk_id] for task in promotes} <= served
            promoted += len(promotes)
    assert promoted > 0
