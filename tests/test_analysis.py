"""Tests for plan-DAG reconstruction and trace export (repro.analysis)."""

import json

import numpy as np
import pytest

from repro import (
    BlockDist,
    BlockWorkDist,
    Context,
    ExecutionMode,
    KernelDef,
    StencilDist,
    azure_nc24rsv2,
)
from repro.analysis import (
    OverlapReport,
    PlanGraph,
    overlap_report,
    plan_to_dot,
    trace_to_chrome_events,
    trace_to_chrome_json,
    utilisation_report,
)
from repro.kernels import create_workload
from repro.simulator.trace import Trace


# --------------------------------------------------------------------------- #
# helpers
# --------------------------------------------------------------------------- #
def _stencil_kernel(lc, n, output, inputv):
    i = lc.global_indices(0)
    i = i[i < n]
    if i.size == 0:
        return
    vals = np.zeros(i.shape, dtype=np.float32)
    left = inputv.gather(np.maximum(i - 1, 0))
    mid = inputv.gather(i)
    right = inputv.gather(np.minimum(i + 1, n - 1))
    left = np.where(i - 1 >= 0, left, 0.0)
    right = np.where(i + 1 < n, right, 0.0)
    vals = (left + mid + right) / 3.0
    output.scatter(i, vals.astype(np.float32))


def _run_stencil(nodes=1, gpus=2, n=4_096, iterations=3, record_plans=True):
    ctx = Context(
        azure_nc24rsv2(nodes=nodes, gpus_per_node=gpus), record_plans=record_plans
    )
    dist = StencilDist(1_024, halo=1)
    inputv = ctx.ones(n, dist, dtype="float32", name="in")
    output = ctx.zeros(n, dist, dtype="float32", name="out")
    kernel = (
        KernelDef("stencil_analysis", func=_stencil_kernel)
        .param_value("n", "int64")
        .param_array("output", "float32")
        .param_array("input", "float32")
        .annotate("global i => read input[i-1:i+1], write output[i]")
        .compile(ctx)
    )
    work = BlockWorkDist(1_024)
    for _ in range(iterations):
        kernel.launch(n, 256, work, (n, output, inputv))
        inputv, output = output, inputv
    ctx.synchronize()
    return ctx


# --------------------------------------------------------------------------- #
# PlanGraph construction
# --------------------------------------------------------------------------- #
def test_plan_recording_is_off_by_default():
    ctx = Context(azure_nc24rsv2(1, 1))
    ctx.ones(128, BlockDist(64))
    ctx.synchronize()
    assert ctx.recorded_plans == []
    with pytest.raises(ValueError, match="record_plans=True"):
        PlanGraph.from_context(ctx)


def test_plan_graph_from_context_collects_all_tasks():
    ctx = _run_stencil()
    graph = PlanGraph.from_context(ctx)
    stats = ctx.stats()
    # every completed task was part of a recorded plan
    assert len(graph) == stats.tasks_completed
    assert graph.is_acyclic()
    # no dependency may point at a task that was never recorded
    assert graph.dangling_deps == []


def test_plan_graph_task_counts_match_structure():
    ctx = _run_stencil(iterations=4)
    graph = PlanGraph.from_context(ctx)
    counts = graph.task_counts()
    # 4 stencil launches on 2 GPUs with 4 superblocks -> 16 launch tasks,
    # plus array-creation fills and halo-update copies.
    assert counts["launch"] == 16
    assert counts.get("fill", 0) > 0
    assert sum(counts.values()) == len(graph)
    per_worker = graph.tasks_per_worker()
    assert set(per_worker) == {0}
    assert sum(per_worker.values()) == len(graph)


def test_plan_graph_communication_volume_counts_halo_traffic():
    ctx = _run_stencil(iterations=3)
    graph = PlanGraph.from_context(ctx)
    comm = graph.communication_bytes()
    # halo replication between stencil chunks on the same node -> copy bytes
    assert comm.get("copy", 0) > 0
    # single node: no sends or recvs
    assert comm.get("send", 0) == 0


def test_plan_graph_multinode_has_send_recv_tasks():
    ctx = _run_stencil(nodes=2, gpus=1, iterations=2)
    graph = PlanGraph.from_context(ctx)
    counts = graph.task_counts()
    assert counts.get("send", 0) > 0
    assert counts.get("send", 0) == counts.get("recv", 0)
    comm = graph.communication_bytes()
    assert comm.get("send", 0) > 0
    assert set(graph.tasks_per_worker()) == {0, 1}


def test_plan_graph_critical_path_and_profile():
    ctx = _run_stencil(iterations=3)
    graph = PlanGraph.from_context(ctx)
    path, depth = graph.critical_path()
    assert len(path) == int(depth)
    assert 1 <= len(path) <= len(graph)
    # consecutive launches on the same data depend on each other, so the
    # critical path must span more than one launch generation
    assert depth >= 3
    # path edges must be real dependencies
    tasks = graph.tasks
    for pred, succ in zip(path, path[1:]):
        assert pred in tasks[succ].deps
    profile = graph.parallelism_profile()
    assert sum(profile.values()) == len(graph)
    assert max(profile.values()) >= 2  # some tasks run in parallel


def test_plan_graph_critical_path_with_durations():
    ctx = _run_stencil(iterations=2)
    graph = PlanGraph.from_context(ctx)
    durations = {tid: 2.0 for tid in graph.tasks}
    path, weight = graph.critical_path(durations)
    assert weight == pytest.approx(2.0 * len(path))


def test_plan_graph_roots_and_leaves():
    ctx = _run_stencil(iterations=2)
    graph = PlanGraph.from_context(ctx)
    roots, leaves = graph.roots(), graph.leaves()
    assert roots and leaves
    assert all(not graph.tasks[r].deps or
               all(d not in graph.tasks for d in graph.tasks[r].deps) for r in roots)
    succ_sources = {src for src, _ in graph.edges}
    assert all(l not in succ_sources for l in leaves)


def test_plan_graph_rejects_duplicate_tasks():
    ctx = _run_stencil(iterations=1)
    graph = PlanGraph.from_context(ctx)
    task = next(iter(graph.tasks.values()))
    with pytest.raises(ValueError, match="added twice"):
        graph.add_task(task)


def test_sequential_consistency_dependencies_between_launches():
    """Launch k+1 reads what launch k wrote: the planner must chain them."""
    ctx = _run_stencil(iterations=3)
    graph = PlanGraph.from_context(ctx)
    nxg = graph.to_networkx()
    by_launch = {
        plan.launch_id: [task.task_id for tasks in plan.tasks_by_worker.values()
                         for task in tasks if task.kind == "launch"]
        for plan in ctx.recorded_plans if plan.launch_id is not None
    }
    launch_ids = sorted(by_launch)
    # Every launch generation is reachable from the previous one.
    import networkx as nx

    for earlier, later in zip(launch_ids, launch_ids[1:]):
        reachable = False
        for src in by_launch[earlier]:
            for dst in by_launch[later]:
                if nx.has_path(nxg, src, dst):
                    reachable = True
                    break
            if reachable:
                break
        assert reachable, f"launch {later} does not depend on launch {earlier}"


# --------------------------------------------------------------------------- #
# DOT rendering
# --------------------------------------------------------------------------- #
def test_plan_graph_dot_output_contains_all_tasks_and_edges():
    ctx = _run_stencil(iterations=1)
    graph = PlanGraph.from_context(ctx)
    dot = graph.to_dot()
    assert dot.startswith("digraph")
    assert dot.rstrip().endswith("}")
    for tid in graph.tasks:
        assert f"t{tid} [" in dot
    assert dot.count("->") == len(graph.edges)


def test_plan_to_dot_single_plan():
    ctx = _run_stencil(iterations=1)
    plan = ctx.recorded_plans[-1]
    dot = plan_to_dot(plan)
    assert dot.count("[label=") == plan.task_count


def test_plan_graph_summary_mentions_counts():
    ctx = _run_stencil(iterations=2)
    graph = PlanGraph.from_context(ctx)
    text = graph.summary()
    assert "tasks:" in text and "critical path" in text


# --------------------------------------------------------------------------- #
# Chrome trace export and overlap reports
# --------------------------------------------------------------------------- #
def test_chrome_trace_events_roundtrip(tmp_path):
    ctx = Context(azure_nc24rsv2(1, 2), mode=ExecutionMode.SIMULATE)
    workload = create_workload("kmeans", ctx, n=50_000_000)
    workload.run()
    trace = ctx.trace()
    events = trace_to_chrome_events(trace)
    complete = [e for e in events if e["ph"] == "X"]
    metadata = [e for e in events if e["ph"] == "M"]
    assert len(complete) == len(trace.intervals)
    assert metadata, "process/thread name metadata expected"
    assert all(e["dur"] >= 0 for e in complete)
    assert all(e["ts"] >= 0 for e in complete)

    path = tmp_path / "trace.json"
    text = trace_to_chrome_json(trace, str(path))
    loaded = json.loads(path.read_text())
    assert loaded == json.loads(text)
    assert "traceEvents" in loaded and len(loaded["traceEvents"]) == len(events)


def test_utilisation_report_bounds():
    ctx = Context(azure_nc24rsv2(1, 1), mode=ExecutionMode.SIMULATE)
    workload = create_workload("black_scholes", ctx, n=200_000_000)
    result = workload.run()
    report = utilisation_report(ctx.trace(), ctx.virtual_time)
    assert report, "expected at least one resource"
    assert all(0.0 <= value <= 1.0 + 1e-9 for value in report.values())
    # The single GPU's compute engine must have done real work.
    gpu_keys = [k for k in report if ".gpu" in k and k.endswith("compute")]
    assert gpu_keys and max(report[k] for k in gpu_keys) > 0.0
    assert result.elapsed > 0


def test_utilisation_report_zero_makespan():
    assert utilisation_report(Trace(), 0.0) == {}


def test_overlap_report_synthetic_intervals():
    trace = Trace()
    trace.record("gpu", "k1", 0.0, 10.0)
    trace.record("pcie", "copy", 5.0, 15.0)
    report = overlap_report(trace, ["gpu"], ["pcie"])
    assert report.busy_a == pytest.approx(10.0)
    assert report.busy_b == pytest.approx(10.0)
    assert report.overlap == pytest.approx(5.0)
    assert report.overlap_fraction == pytest.approx(0.5)


def test_overlap_report_no_activity():
    report = overlap_report(Trace(), ["gpu"], ["pcie"])
    assert report == OverlapReport(0.0, 0.0, 0.0)
    assert report.overlap_fraction == 0.0


@pytest.mark.slow
def test_spilling_overlaps_compute_with_pcie():
    """The paper's central overlap claim, measured from the trace: when a
    compute-intensive benchmark spills past GPU memory, PCIe transfers happen
    while the GPU computes."""
    ctx = Context(azure_nc24rsv2(1, 1), mode=ExecutionMode.SIMULATE)
    workload = create_workload("kmeans", ctx, n=1_200_000_000)  # ~19 GB > 16 GB
    workload.run()
    report = overlap_report(ctx.trace(), ["w0.gpu0.compute"], ["w0.pcie"])
    assert report.busy_a > 0 and report.busy_b > 0
    assert report.overlap_fraction > 0.5
