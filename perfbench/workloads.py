"""The benchmark's three workloads, their output checks and their passes.

Every workload has the same shape:

* ``variants(seed)`` — the fixed list of seeded inputs one run measures.
  Deterministic metrics are taken over exactly this list, so they never
  depend on how many passes fit into the run's time budget;
* ``functional_check(seed)`` — a small functional-mode run whose results
  are compared with the NumPy reference (``Workload.verify``);
* ``setup(variant)`` — build the context or serving system; this is what
  ``setup_s`` times;
* ``timed_pass(state, tracer)`` — one timed pass, measured and checked.
"""

from __future__ import annotations

import dataclasses
import gc
import random
import resource
import time
from typing import Dict, List, Optional

import repro.apps  # noqa: F401  (registers the cgc workload)
from repro.core.context import Context
from repro.hardware.specs import azure_nc24rsv2
from repro.hardware.topology import DeviceId, MemoryKind, MemorySpace
from repro.kernels import create_workload
from repro.runtime.serving import ServingSystem, poisson_trace

from layers import OPS_KEY, ROOT

__all__ = ["PassResult", "WORKLOADS", "serving_trace", "percentile"]

KiB = 1 << 10
GiB = 1 << 30


@dataclasses.dataclass
class PassResult:
    """What one timed pass measured and whether its checks held."""

    wall_s: float
    peak_rss_mb: float
    virtual_s: float
    #: job latencies in virtual seconds (a batch pass is one job)
    latencies: List[float]
    queue_delays: List[float]
    exec_times: List[float]
    ops: int
    failures: List[str]
    #: traced passes only: stats deltas over the pass, span self times and
    #: call counts, and the GPU count the utilisation is normalised by
    delta: Optional[Dict[str, object]] = None
    self_s: Optional[Dict[str, float]] = None
    calls: Optional[Dict[str, int]] = None
    gpus: int = 0
    #: mean wall seconds of the yardstick runs just before and after the pass
    yardstick_s: float = 0.0

    def signature(self):
        """The deterministic part of the pass, compared across repeats."""
        return (self.virtual_s, tuple(self.latencies), self.ops)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with ``q``% at or below it."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def _reset_peak_rss() -> None:
    """Reset the kernel's RSS high-water mark (VmHWM) to the current RSS."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
    except OSError:
        pass


def _peak_rss_mb() -> float:
    """VmHWM since the last reset, in MiB (lifetime maximum as a fallback)."""
    try:
        with open("/proc/self/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _snapshot(contexts, stats) -> Dict[str, object]:
    """The counters a traced pass reports as deltas."""
    mems = stats.memory.values()
    return {
        "events": stats.events_processed,
        "cancelled": stats.events_cancelled,
        "tasks": stats.tasks_completed,
        "kernel_launches": stats.kernel_launches,
        "cache_hits": stats.plan_cache_hits,
        "cache_misses": stats.plan_cache_misses,
        "staging_stalls": stats.staging_stalls,
        "evictions": sum(m.evictions_to_host + m.evictions_to_disk for m in mems),
        "disk_stored_bytes": stats.disk_stored_bytes_written,
        "resource_events": sum(stats.resource_events.values()),
        "launches_fused": sum(ctx.window.launches_fused for ctx in contexts),
        "disk_promotions_staged": sum(ctx.window.staged_promotions for ctx in contexts),
        "busy": dict(stats.resource_busy),
    }


def _delta(before, after) -> Dict[str, object]:
    delta = {key: after[key] - before[key] for key in after if key != "busy"}
    delta["busy"] = {
        name: busy - before["busy"].get(name, 0.0) for name, busy in after["busy"].items()
    }
    return delta


def _timed(tracer, body):
    """Run ``body`` as one timed pass: collected garbage, reset VmHWM, root span."""
    gc.collect()
    tracer.reset()
    _reset_peak_rss()
    start = time.perf_counter()
    with tracer.span(ROOT):
        outcome = body()
    wall = time.perf_counter() - start
    return outcome, wall, _peak_rss_mb()


# --------------------------------------------------------------------------- #
# batch workloads: one Context, one registered workload
# --------------------------------------------------------------------------- #
class _BatchWorkload:
    """A registered workload run in simulate mode; a pass is one job."""

    name = ""
    workload = ""
    nodes = gpus_per_node = 1
    n = 0
    iterations = 0
    #: elements per chunk; ``None`` keeps the workload's default
    chunk_elems = None
    setup_repeats = 1

    def variants(self, seed: int) -> list:
        return [None]

    def context_kwargs(self, variant) -> dict:
        return {}

    def setup(self, variant):
        """Build, prepare and run the untimed warm-up pass (fills the plan cache)."""
        ctx = Context(
            azure_nc24rsv2(nodes=self.nodes, gpus_per_node=self.gpus_per_node),
            mode="simulate",
            **self.context_kwargs(variant),
        )
        work = create_workload(
            self.workload, ctx, self.n, chunk_elems=self.chunk_elems, iterations=self.iterations
        )
        work.prepare()
        work.submit()
        ctx.synchronize()
        ctx.stats()
        return ctx, work

    def timed_pass(self, state, tracer) -> PassResult:
        """``submit()`` + ``synchronize()`` + ``stats()``, then the checks."""
        ctx, work = state
        before = _snapshot([ctx], ctx.stats()) if tracer.timed else None
        start_vt = ctx.virtual_time

        def body():
            work.submit()
            ctx.synchronize()
            return ctx.stats()

        stats, wall, rss = _timed(tracer, body)
        virtual = ctx.virtual_time - start_vt
        failures = []
        if ctx.runtime.outstanding_tasks:
            failures.append(f"{ctx.runtime.outstanding_tasks} tasks outstanding")
        result = PassResult(
            wall_s=wall, peak_rss_mb=rss, virtual_s=virtual,
            latencies=[virtual], queue_delays=[0.0], exec_times=[virtual],
            ops=tracer.calls.get(OPS_KEY, 0), failures=failures,
        )
        if tracer.timed:
            after = _snapshot([ctx], stats)
            result.delta = _delta(before, after)
            result.delta["intervals"] = len(ctx.trace().intervals)
            result.self_s = dict(tracer.self_s)
            result.calls = dict(tracer.calls)
            result.gpus = ctx.device_count
        return result


class StencilChain(_BatchWorkload):
    """hotspot3 at the Fig. 15 weak-scaling size on 2 nodes x 2 GPUs."""

    name = "stencil_chain"
    workload = "hotspot3"
    nodes, gpus_per_node = 2, 2
    n = 2_160_000_000
    iterations = 20

    def functional_check(self, seed: int) -> List[str]:
        ctx = Context(azure_nc24rsv2(nodes=2, gpus_per_node=2), mode="functional")
        work = create_workload(
            "hotspot3", ctx, 128 * 128, chunk_elems=128 * 32, iterations=3, seed=seed
        )
        work.prepare()
        work.submit()
        ctx.synchronize()
        return [] if work.verify() else ["hotspot3 result differs from the reference"]


class KMeansOutOfCore(_BatchWorkload):
    """kmeans streamed through capped GPU and host pools and the disk tier."""

    name = "kmeans_ooc"
    workload = "kmeans"
    nodes, gpus_per_node = 1, 2
    n = 540_000_000
    iterations = 60
    gpu_cap, host_cap = 1 * GiB, 3 * GiB
    #: disk seeds per run: the compression ratios they draw move virtual
    #: time by up to ~10%, so one run measures several and reports medians
    variant_count = 3

    def variants(self, seed: int) -> list:
        return [seed * self.variant_count + k for k in range(self.variant_count)]

    @staticmethod
    def _caps(gpu: int, host: int, gpus: int) -> dict:
        caps = {DeviceId(0, i).memory_space: gpu for i in range(gpus)}
        caps[MemorySpace(0, MemoryKind.HOST)] = host
        return caps

    def context_kwargs(self, variant) -> dict:
        return dict(
            memory_capacities=self._caps(self.gpu_cap, self.host_cap, self.gpus_per_node),
            disk=True,
            disk_seed=variant,
        )

    def functional_check(self, seed: int) -> List[str]:
        # 128 KiB of points over 2 x 48 KiB GPUs and a 64 KiB host pool:
        # the oldest chunks must take the disk tier, as in the timed passes.
        ctx = Context(
            azure_nc24rsv2(nodes=1, gpus_per_node=2),
            mode="functional",
            memory_capacities=self._caps(48 * KiB, 64 * KiB, 2),
            disk=True,
            disk_seed=seed,
        )
        work = create_workload(
            "kmeans", ctx, 8192, chunk_elems=1024, iterations=3, seed=seed
        )
        work.prepare()
        work.submit()
        ctx.synchronize()
        failures = [] if work.verify() else ["kmeans result differs from the reference"]
        spilled = sum(m.evictions_to_disk for m in ctx.stats().memory.values())
        if not spilled:
            failures.append("kmeans functional check never spilled to disk")
        return failures


# --------------------------------------------------------------------------- #
# serving: a seeded open-loop trace over four tenants
# --------------------------------------------------------------------------- #
#: the job mix of benchmarks/bench_serving.py
SERVING_MIX = [
    ("hotspot3", 1024 * 1024, {"iterations": 8}),
    ("kmeans2", 400_000, {"quantize": True, "iterations": 6}),
    ("cgc", 160 * 160, {"iterations": 2}),
]
#: small jobs for the functional check
FUNCTIONAL_MIX = [
    ("hotspot3", 64 * 64, {"iterations": 2}),
    ("kmeans2", 4096, {"quantize": True, "iterations": 2}),
    ("cgc", 32 * 32, {"iterations": 1}),
]


def serving_trace(seed: int, njobs: int, rate: float, tenants: int, mix) -> list:
    """A seeded Poisson trace with a fixed window and a balanced job mix.

    Arrival times come from :func:`poisson_trace`, rescaled so the last job
    arrives at exactly ``njobs / rate`` — the Poisson process conditioned on
    its count over a fixed window, which removes the run-to-run jitter of
    the trace's length from the makespan.  Workload and tenant are drawn as
    seeded permutations of every (workload, tenant) pair, so each stretch of
    ``len(mix) * tenants`` jobs carries the same mix.
    """
    jobs = poisson_trace(seed, njobs, rate, tenants, mix=mix)
    scale = (njobs / rate) / jobs[-1].arrival
    rng = random.Random(seed + 0x5EED)
    pairs: list = []
    while len(pairs) < njobs:
        block = [(m, t) for m in range(len(mix)) for t in range(tenants)]
        rng.shuffle(block)
        pairs.extend(block)
    trace = []
    for job, (m, tenant) in zip(jobs, pairs):
        workload, n, params = mix[m]
        trace.append(dataclasses.replace(
            job, arrival=job.arrival * scale, tenant=tenant,
            workload=workload, n=n, params=dict(params),
        ))
    return trace


def _build_serving(mode: str, trace, tenants: int) -> ServingSystem:
    serving = ServingSystem(cluster=azure_nc24rsv2(nodes=2, gpus_per_node=2), mode=mode)
    for tenant in range(tenants):
        serving.add_tenant(f"tenant-{tenant}", memory_fraction=0.5)
    serving.submit_trace(trace)
    return serving


def _serving_failures(serving, report) -> List[str]:
    """Every job finished, nothing outstanding, every tenant ledger balanced."""
    failures = []
    unfinished = sum(1 for job in report.jobs if job.finished is None)
    if unfinished:
        failures.append(f"{unfinished} jobs never finished")
    if serving.runtime.outstanding_tasks:
        failures.append(f"{serving.runtime.outstanding_tasks} tasks outstanding")
    for tenant, ledger in report.tenant_counters.items():
        if ledger["tasks_submitted"] != ledger["tasks_completed"] or ledger["outstanding"]:
            failures.append(f"tenant {tenant} ledger unbalanced: {ledger}")
    return failures


class ServingMix:
    """Four tenants sharing 2 x 2 GPUs under a seeded open-loop trace."""

    name = "serving_mix"
    tenants = 4
    jobs = 100
    #: jobs per virtual second: ~56% of the ~107 jobs/vs capacity
    rate = 60.0
    #: traces per run, pooled for the latency percentiles
    variant_count = 12
    #: set-up takes ~1 ms, so each round times it this many times
    setup_repeats = 10

    def variants(self, seed: int) -> list:
        return [seed * self.variant_count + k for k in range(self.variant_count)]

    def setup(self, variant):
        """Build the serving system, its tenants and the submitted trace."""
        trace = serving_trace(variant, self.jobs, self.rate, self.tenants, SERVING_MIX)
        return _build_serving("simulate", trace, self.tenants)

    def functional_check(self, seed: int) -> List[str]:
        trace = serving_trace(seed, 6, 600.0, self.tenants, FUNCTIONAL_MIX)
        serving = _build_serving("functional", trace, self.tenants)
        report = serving.run()
        failures = _serving_failures(serving, report)
        wrong = sum(1 for job in report.jobs if not job.workload.verify())
        if wrong:
            failures.append(f"{wrong} served jobs differ from the reference")
        return failures

    def timed_pass(self, serving, tracer) -> PassResult:
        """``ServingSystem.run()`` + ``stats()``, then the checks."""
        runtime = serving.runtime
        before = _snapshot(serving.contexts, runtime.stats()) if tracer.timed else None

        def body():
            return serving.run(), runtime.stats()

        (report, stats), wall, rss = _timed(tracer, body)
        finished = [job for job in report.jobs if job.finished is not None]
        result = PassResult(
            wall_s=wall, peak_rss_mb=rss, virtual_s=report.makespan,
            latencies=[job.finished - job.spec.arrival for job in finished],
            queue_delays=[job.started - job.spec.arrival for job in finished],
            exec_times=[job.finished - job.started for job in finished],
            ops=len(report.jobs), failures=_serving_failures(serving, report),
        )
        if tracer.timed:
            after = _snapshot(serving.contexts, stats)
            result.delta = _delta(before, after)
            result.delta["intervals"] = len(runtime.trace.intervals)
            result.self_s = dict(tracer.self_s)
            result.calls = dict(tracer.calls)
            result.gpus = runtime.cluster.device_count
        return result


WORKLOADS = {w.name: w for w in (StencilChain(), KMeansOutOfCore(), ServingMix())}
