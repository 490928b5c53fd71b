"""Rounds, passes and the metrics a run reports (see ``run.py``)."""

from __future__ import annotations

import gc
import heapq
import random
import statistics
import sys
import time

from layers import LAYER_ENTRIES, OPS_ENTRIES, OPS_KEY, ROOT, LayerTracer
from workloads import percentile

__all__ = ["measure", "end_to_end", "layer_metrics", "per_layer", "run", "Yardstick"]

#: a traced run pairs an untraced and a traced round per variant, so it
#: measures at most this many variants to stay within its time budget
TRACED_VARIANTS = 4

#: wall seconds one :class:`Yardstick` walk takes on the reference host.
#: Wall-clock end-to-end metrics are in seconds of that host (see README.md).
YARDSTICK_REF_S = 0.25


class _Node:
    __slots__ = ("key", "succ", "hits")

    def __init__(self, key):
        self.key = key
        self.succ = []
        self.hits = 0


class Yardstick:
    """A fixed pure-Python graph walk that runs no program code.

    Its instruction mix is the simulator's own (attribute access on small
    objects, heap pops, dict updates), so its speed follows the host's
    speed for the program while staying unaffected by changes to it.  The
    graph is built once, so later walks do not depend on how much memory
    the program left allocated.
    """

    def __init__(self, nodes: int = 60_000):
        rng = random.Random(1)
        self.graph = [_Node(key) for key in range(nodes)]
        for node in self.graph:
            node.succ.extend(self.graph[rng.randrange(nodes)] for _ in range(3))
        self.keys = [rng.random() for _ in range(nodes)]

    def __call__(self) -> float:
        """Wall seconds of one walk."""
        gc.collect()
        start = time.perf_counter()
        heap = [(key, index) for index, key in enumerate(self.keys)]
        heapq.heapify(heap)
        graph, counts = self.graph, {}
        while heap:
            _, index = heapq.heappop(heap)
            for succ in graph[index].succ:
                succ.hits += 1
                counts[succ.key] = counts.get(succ.key, 0) + 1
        return time.perf_counter() - start


def measure(workload, seed: int, seconds: float, traced: bool):
    """Run rounds until ``seconds`` have passed and every variant ran once.

    Returns ``(setup_samples, passes)``, where ``passes`` is a list of
    ``(variant_index, traced, PassResult)``.  A round's set-up is timed only
    when the round is untraced; set-up samples are in reference seconds
    (scaled by the yardstick run right after the set-up).  Every repeat of
    a variant must reproduce the deterministic results of its first pass
    exactly.
    """
    variants = workload.variants(seed)
    if traced:
        variants = variants[:TRACED_VARIANTS]
    modes = (False, True) if traced else (False,)
    cycle = [(k, mode) for k in range(len(variants)) for mode in modes]
    setups, passes, first = [], [], {}
    yardstick = Yardstick()
    deadline = time.perf_counter() + seconds
    i = 0
    while i < len(cycle) or time.perf_counter() < deadline:
        k, timed = cycle[i % len(cycle)]
        i += 1
        if timed:
            tracer = LayerTracer(LAYER_ENTRIES + OPS_ENTRIES, timed=True)
        else:
            tracer = LayerTracer(OPS_ENTRIES, timed=False)
        raw_setups = []
        with tracer.installed():
            gc.collect()
            for _ in range(workload.setup_repeats):
                start = time.perf_counter()
                state = workload.setup(variants[k])
                raw_setups.append(time.perf_counter() - start)
            before = yardstick()
            result = workload.timed_pass(state, tracer)
            del state
        result.yardstick_s = (before + yardstick()) / 2
        if not timed:
            setups.extend(raw * YARDSTICK_REF_S / before for raw in raw_setups)
        expected = first.setdefault(k, result.signature())
        if result.signature() != expected:
            result.failures.append("results differ from the variant's first pass")
        passes.append((k, timed, result))
        print(
            f"{workload.name} variant {k} {'traced' if timed else 'untraced'}: "
            f"wall {result.wall_s:.3f} s ({_ref_wall(result):.3f} reference s), "
            f"virtual {result.virtual_s:.6f} vs"
            + (f", FAILED: {result.failures}" if result.failures else ""),
            file=sys.stderr,
        )
    return setups, passes


def _ref_wall(result) -> float:
    """The pass's wall time in reference seconds."""
    return result.wall_s * YARDSTICK_REF_S / result.yardstick_s


def first_cycle(passes, traced: bool):
    """The first pass of each variant in the given mode, in variant order."""
    seen = {}
    for k, timed, result in passes:
        if timed == traced:
            seen.setdefault(k, result)
    return [seen[k] for k in sorted(seen)]


def end_to_end(setups, passes) -> dict:
    """The end-to-end metrics of an untraced run."""
    firsts = first_cycle(passes, traced=False)
    latencies = [lat for result in firsts for lat in result.latencies]
    results = [result for _, _, result in passes]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median([_ref_wall(r) for r in results]), "s"),
        "virtual_s": (statistics.median_low([r.virtual_s for r in firsts]), "vs"),
        "job_p50_vs": (percentile(latencies, 50), "vs"),
        "job_p90_vs": (percentile(latencies, 90), "vs"),
        "peak_rss_mb": (statistics.median([r.peak_rss_mb for r in results]), "MiB"),
    }


def _busy(delta, *suffixes) -> float:
    return sum(
        (busy for name, busy in delta["busy"].items()
         if any(name.endswith(suffix) for suffix in suffixes)),
        0.0,
    )


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


#: units of per-layer metrics that do not depend on wall time
DETERMINISTIC_UNITS = {"count", "ratio", "vs", "B"}


def layer_metrics(result) -> dict:
    """Per-layer metrics of one traced pass: ``name -> (value, unit)``."""
    s = lambda key: result.self_s.get(key, 0.0)  # noqa: E731
    c = lambda key: result.calls.get(key, 0)  # noqa: E731
    d = result.delta
    launches = c(OPS_KEY)
    tasks = d["tasks"]
    lookups = d["cache_hits"] + d["cache_misses"]
    # The driver loop: the serving loop when there is one, else the pass's
    # own submit/synchronize code outside every wrapped layer.
    loop_key = "serving.loop" if "serving.loop" in result.self_s else ROOT
    stage_calls = c("memory.stage")
    return {
        "context.launch_self_s": (s(OPS_KEY), "s"),
        "planning.prepare_s": (s("planning.prepare"), "s"),
        "planning.prepare_calls": (c("planning.prepare"), "count"),
        "planning.prepare_us_per_launch": (1e6 * _ratio(s("planning.prepare"), launches), "us"),
        "planning.cache_hit_rate": (_ratio(d["cache_hits"], lookups), "ratio"),
        "window.flush_self_s": (s("window.flush"), "s"),
        "window.flush_calls": (c("window.flush"), "count"),
        "window.flush_us_per_task": (1e6 * _ratio(s("window.flush"), tasks), "us"),
        "window.fused_frac": (_ratio(d["launches_fused"], launches), "ratio"),
        "system.submit_plan_s": (s("system.submit_plan"), "s"),
        "system.notify_s": (s("system.notify"), "s"),
        "system.notify_calls": (c("system.notify"), "count"),
        "system.us_per_task": (
            1e6 * _ratio(s("system.submit_plan") + s("system.notify"), tasks), "us"),
        "scheduler.submit_s": (s("scheduler.submit"), "s"),
        "scheduler.tasks": (tasks, "count"),
        "scheduler.tasks_per_launch": (_ratio(tasks, launches), "ratio"),
        "memory.stage_s": (s("memory.stage"), "s"),
        "memory.stage_calls": (stage_calls, "count"),
        "memory.stage_us_per_call": (1e6 * _ratio(s("memory.stage"), stage_calls), "us"),
        # reserve/release are the window plan's pre-eviction: small next to
        # unstage, and never called on serving_mix, so they share its metric
        "memory.unstage_s": (
            s("memory.unstage") + s("memory.reserve") + s("memory.release"), "s"),
        "memory.staging_stalls": (d["staging_stalls"], "count"),
        "memory.stall_frac": (_ratio(d["staging_stalls"], stage_calls), "ratio"),
        "memory.evictions": (d["evictions"], "count"),
        "memory.disk_stored_bytes": (d["disk_stored_bytes"], "B"),
        "memory.disk_promotions_staged": (d["disk_promotions_staged"], "count"),
        "executors.execute_s": (s("executors.execute"), "s"),
        "executors.kernel_launches": (d["kernel_launches"], "count"),
        "resources.request_s": (s("resources.request"), "s"),
        "resources.requests": (c("resources.request"), "count"),
        "resources.events": (d["resource_events"], "count"),
        "engine.run_self_s": (s("engine.run"), "s"),
        "engine.events": (d["events"], "count"),
        "engine.us_per_event": (1e6 * _ratio(s("engine.run"), d["events"]), "us"),
        "engine.cancelled_frac": (
            _ratio(d["cancelled"], d["events"] + d["cancelled"]), "ratio"),
        "stats.collect_s": (s("stats.collect"), "s"),
        "trace.intervals": (d["intervals"], "count"),
        "serving.loop_self_s": (
            s(loop_key) + s("serving.select") + s("serving.charge"), "s"),
        "serving.quanta": (c("serving.charge"), "count"),
        "serving.queue_delay_p50_vs": (percentile(result.queue_delays, 50), "vs"),
        "serving.queue_delay_p90_vs": (percentile(result.queue_delays, 90), "vs"),
        "serving.exec_p50_vs": (percentile(result.exec_times, 50), "vs"),
        "vt.gpu_util": (
            _ratio(_busy(d, ".compute"), result.gpus * result.virtual_s), "ratio"),
        "vt.pcie_busy_s": (_busy(d, ".pcie"), "vs"),
        "vt.nic_busy_s": (_busy(d, ".nic"), "vs"),
        "vt.disk_busy_s": (_busy(d, ".disk", ".disk_read", ".disk_write"), "vs"),
        "vt.codec_busy_s": (_busy(d, ".compress", ".decompress"), "vs"),
        "vt.sched_busy_s": (_busy(d, ".sched"), "vs"),
        "vt.driver_plan_busy_s": (_busy(d, "driver.plan"), "vs"),
    }


def per_layer(passes) -> dict:
    """Per-layer metrics of a traced run.

    Wall-clock values are medians over every traced pass; deterministic
    values are medians over the first traced pass of each variant, so they
    repeat exactly.  ``trace.overhead_ratio`` is the median traced pass wall
    over the median untraced pass wall, both in reference seconds.
    """
    traced = [layer_metrics(r) for _, timed, r in passes if timed]
    firsts = [layer_metrics(r) for r in first_cycle(passes, traced=True)]
    metrics = {}
    for name, (_, unit) in traced[0].items():
        if unit in DETERMINISTIC_UNITS:
            metrics[name] = (statistics.median_low([m[name][0] for m in firsts]), unit)
        else:
            metrics[name] = (statistics.median([m[name][0] for m in traced]), unit)
    walls = {
        mode: statistics.median([_ref_wall(r) for _, timed, r in passes if timed == mode])
        for mode in (False, True)
    }
    metrics["trace.overhead_ratio"] = (walls[True] / walls[False], "x")
    yardsticks = [r.yardstick_s for _, _, r in passes]
    metrics["host.yardstick_s"] = (statistics.median(yardsticks), "s")
    return metrics


def run(workload, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    check_failures = workload.functional_check(seed)
    for failure in check_failures:
        print(f"{workload.name} functional check FAILED: {failure}", file=sys.stderr)
    setups, passes = measure(workload, seed, seconds, trace)
    results = [result for _, _, result in passes]
    failed = sum(result.ops for result in results if result.failures)
    metrics = per_layer(passes) if trace else end_to_end(setups, passes)
    return {
        "correct": not check_failures and not failed,
        "attempted": sum(result.ops for result in results),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
