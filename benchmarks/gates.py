"""One gate harness for every committed performance and correctness gate.

    python benchmarks/gates.py [--suite smoke|full] [--refresh] [GATE ...]

A gate is a plain function ``gate(base) -> (records, failures)``.  It runs
its named arms (``Context`` or ``ServingSystem`` keyword arguments) over its
configurations and returns

* ``records``: ``{arm: {config: {field: value}}}``.  Every field must equal
  its entry in ``benchmarks/BENCH_gates.json`` exactly, floats compared by
  ``float.hex``; only the wall-clock fields in :data:`MEASURED` are skipped,
  because their gate bounds them against ``base`` (its baseline entry);
* ``failures``: the messages of the gate's own ratio, bound and bit-identity
  checks, each naming gate, arm, config and field.

The harness compares every record with the baseline, where a record missing
on either side fails, writes the result JSON (``benchmarks/results/
gates.json``) and one step-summary table (stdout, and ``$GITHUB_STEP_SUMMARY``
when set), and only then exits non-zero.  ``--refresh`` writes the run's
records into the baseline instead of comparing them; the gates' own checks
still run.  ``GATE`` names pick gates; by default ``--suite`` does:
``smoke`` (CI on every change) runs every gate except the ``*_full`` ones
that ``full`` (nightly) adds: the full hot-path sweep and Fig. 15.  The
``paper`` gates' arms are the paper's figures (Figs. 10-16, Sec. 4.3 and
two ablations), recorded in virtual time.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import sys
import tempfile
import time
import traceback

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import numpy as np  # noqa: E402

from repro import BlockDist, BlockWorkDist, Context, KernelCost, KernelDef  # noqa: E402
from repro.apps import CGC_DATASETS, CoClusteringApp  # noqa: E402  (registers cgc)
from repro.baselines import CPUBaseline, SingleGPUBaseline, SingleGpuOutOfMemory  # noqa: E402
from repro.bench import gpu_memory_limit, make_context, write_json  # noqa: E402
from repro.errors import FaultError  # noqa: E402
from repro.hardware import P100, DeviceId, MemoryKind, MemorySpace, azure_nc24rsv2  # noqa: E402
from repro.kernels import create_workload  # noqa: E402
from repro.kernels.black_scholes import BS_COST  # noqa: E402
from repro.kernels.expressions import ExpressionsWorkload  # noqa: E402
from repro.perfmodel import kernel_time  # noqa: E402
from repro.runtime.serving import ServingSystem, poisson_trace  # noqa: E402
from repro.simulator.engine import Engine  # noqa: E402
from repro.simulator.resources import BandwidthResource, ChannelResource  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
BASELINE = os.path.join(HERE, "BENCH_gates.json")
RESULT = os.path.join(HERE, "results", "gates.json")

#: record fields measured in wall-clock time: the exact comparison skips
#: them, and the gate that records one bounds it against the baseline
MEASURED = ("events_per_second", "tasks_per_second")

#: events/s (engine) and tasks/s (expr) must stay above this fraction of the
#: baseline's: generous enough for noisy runners, still catching
#: order-of-magnitude hot-loop regressions
MIN_THROUGHPUT = 0.35

MB, GB = 1 << 20, 1 << 30


def _sha(*arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array))
    return digest.hexdigest()


def _stream(ctx, gpus, elems, arrays, rounds, flops, functional):
    """Round-robin ``stream_update`` passes over ``arrays`` disjoint batches.

    The out-of-core streaming pattern: each launch touches one batch, so a
    window group's working set fits the capped pools while the whole
    dataset does not.  Returns the batches after the final synchronize.
    """
    chunk = elems // gpus
    if functional:
        rng = np.random.RandomState(0)
        batches = [ctx.from_numpy(rng.rand(elems).astype(np.float32), BlockDist(chunk),
                                  name=f"batch{j}") for j in range(arrays)]
    else:
        batches = [ctx.zeros(elems, BlockDist(chunk), name=f"batch{j}") for j in range(arrays)]
    ctx.synchronize()

    def body(lc, n, data):
        i = lc.global_indices(0)
        i = i[i < n]
        data.scatter(i, (data.gather(i) * 1.5 + 1.0).astype(np.float32))

    kernel = (
        KernelDef("stream_update", func=body)
        .param_value("n", "int64")
        .param_array("data", "float32")
        .annotate("global i => readwrite data[i]")
        .with_cost(KernelCost(flops_per_thread=flops, bytes_per_thread=8.0))
        .compile(ctx)
    )
    for _ in range(rounds):
        for batch in batches:
            kernel.launch(elems, 256, BlockWorkDist(chunk), (elems, batch))
    ctx.synchronize()
    return batches


# --------------------------------------------------------------------------- #
# engine: the discrete-event core and its two heaviest resource clients
# --------------------------------------------------------------------------- #
def _dispatch_chain(scale):
    """64 independent self-rescheduling timer chains: raw schedule/run dispatch."""
    engine = Engine()
    remaining = [scale // 64] * 64

    def make_tick(idx, delay):
        def tick():
            remaining[idx] -= 1
            if remaining[idx] > 0:
                engine.schedule(delay, tick)
        return tick

    for idx in range(64):
        # distinct, exactly representable delays so the chains interleave
        engine.schedule(0.0, make_tick(idx, 1.0 + idx * 0.25))
    engine.run()
    return engine, {}


def _same_time_batch(scale):
    """Groups of 32 same-timestamp events: the batched inline dispatch path."""
    engine = Engine()
    groups = [scale // 32]

    def schedule_group():
        groups[0] -= 1
        for i in range(32):
            last = groups[0] > 0 and i == 31
            engine.schedule(1.0, schedule_group if last else _noop)

    schedule_group()
    engine.run()
    return engine, {}


def _cancel_churn(scale):
    """Waves of 256 cancellable wake-ups, 7 of 8 cancelled: pruning and compaction."""
    engine = Engine()
    waves = [scale // 256]

    def run_wave():
        waves[0] -= 1
        handles = [engine.schedule_cancellable(1.0 + i * 0.125, _noop) for i in range(256)]
        for i, handle in enumerate(handles):
            if i % 8 != 0:
                handle.cancel()
        if waves[0] > 0:
            engine.schedule(1.0 + 256 * 0.125, run_wave)

    run_wave()
    engine.run()
    return engine, {}


def _link_churn(scale):
    """16 streams on one shared link, each completion admitting the next transfer."""
    engine = Engine()
    link = BandwidthResource(engine, "bench-link", bandwidth=1e9, latency=1e-6)
    _churn(16, scale, lambda idx: 1e6 * (1.0 + idx * 0.5), link.request)
    engine.run()
    return engine, {"bytes_transferred": link.bytes_transferred,
                    "wakeups_cancelled": link.wakeups_cancelled}


def _channel_fifo(scale):
    """32 producers on a 4-server FIFO channel: the queued-work slab."""
    engine = Engine()
    channel = ChannelResource(engine, "bench-chan", channels=4, per_item_overhead=1e-6)
    _churn(32, scale, lambda idx: 1e-3 * (1.0 + idx * 0.125), channel.request)
    engine.run()
    return engine, {}


def _churn(streams, scale, amount, request):
    """Start ``streams`` request chains of ``scale // streams`` requests each."""
    remaining = [scale // streams] * streams

    def make_next(idx, size):
        def next_request():
            remaining[idx] -= 1
            if remaining[idx] > 0:
                request(size, next_request)
        return next_request

    for idx in range(streams):
        # distinct sizes keep completions staggered, forcing wake-up re-arms
        request(amount(idx), make_next(idx, amount(idx)))


def _noop():
    pass


ENGINE_SCENARIOS = {
    "dispatch_chain": (_dispatch_chain, 400_000),
    "same_time_batch": (_same_time_batch, 400_000),
    "cancel_churn": (_cancel_churn, 400_000),
    "link_churn": (_link_churn, 80_000),
    "channel_fifo": (_channel_fifo, 200_000),
}


def engine(base):
    """Exact dispatch counts and virtual times; events/s above the floor."""
    records, failures = {}, []
    for name, (scenario, scale) in ENGINE_SCENARIOS.items():
        gc.collect()
        start = time.perf_counter()
        eng, extra = scenario(scale)
        rate = eng.events_processed / (time.perf_counter() - start)
        config = f"n{scale}"
        records[name] = {config: {
            "events_processed": eng.events_processed,
            "events_cancelled": eng.events_cancelled,
            "virtual_time": eng.now,
            "events_per_second": rate,
            **extra,
        }}
        ref = base.get(name, {}).get(config, {}).get("events_per_second")
        if ref and rate < MIN_THROUGHPUT * ref:
            failures.append(f"engine/{name}/{config}: events_per_second {rate:,.0f} is below "
                            f"{MIN_THROUGHPUT} of the baseline's {ref:,.0f}")
    return records, failures


# --------------------------------------------------------------------------- #
# expr: lazy DAG lowering against eager per-operator launches
# --------------------------------------------------------------------------- #
EXPR_N, EXPR_CHUNK, EXPR_ROUNDS = 1 << 22, 1 << 20, 4
EXPR_ARMS = {"lazy": {}, "eager": {"lazy": False}}
EXPR_COUNTERS = ("events_processed", "tasks_completed", "exprs_lowered", "expr_nodes_fused",
                 "temporaries_elided", "temporaries_elided_bytes", "expr_bytes_allocated",
                 "buffers_reused_inplace")


def expr(base):
    """Operator-API Black-Scholes on 4 GPUs, lazy and eager, in simulate mode."""
    config = f"n{EXPR_N}/chunk{EXPR_CHUNK}/rounds{EXPR_ROUNDS}"
    records, failures = {}, []
    for arm, kwargs in EXPR_ARMS.items():
        ctx = Context(azure_nc24rsv2(nodes=1, gpus_per_node=4), mode="simulate", **kwargs)
        workload = ExpressionsWorkload(ctx, EXPR_N, chunk_elems=EXPR_CHUNK)
        workload.prepare()
        gc.collect()
        start = time.perf_counter()
        for _ in range(EXPR_ROUNDS):
            workload.submit()
        record = {"virtual_time": ctx.synchronize()}
        wall = time.perf_counter() - start
        stats = ctx.stats()
        record.update((field, getattr(stats, field)) for field in EXPR_COUNTERS)
        if arm == "lazy":
            # Tasks, not events: create, delete and combine tasks complete
            # without an engine event but still cost wall time, so events/s
            # would fall as the runtime does less.
            record["tasks_per_second"] = stats.tasks_completed / wall
        records[arm] = {config: record}
    lazy, eager = records["lazy"][config], records["eager"][config]
    # Lazy lowering must save half the engine events and half the
    # expression-result bytes: temporary elision and batched lowering.
    min_ratio = 2.0
    for field in ("events_processed", "expr_bytes_allocated"):
        ratio = eager[field] / max(1, lazy[field])
        if ratio < min_ratio:
            failures.append(f"expr/lazy/{config}: {field} only {ratio:.2f}x below the eager "
                            f"arm's (needs {min_ratio}x)")
    ref = base.get("lazy", {}).get(config, {}).get("tasks_per_second")
    if ref and lazy["tasks_per_second"] < MIN_THROUGHPUT * ref:
        failures.append(f"expr/lazy/{config}: tasks_per_second "
                        f"{lazy['tasks_per_second']:,.0f} is below {MIN_THROUGHPUT} of the "
                        f"baseline's {ref:,.0f}")
    # Lazy evaluation may reorder planning, never arithmetic.
    outputs = set()
    for kwargs in EXPR_ARMS.values():
        ctx = Context(mode="functional", **kwargs)
        workload = ExpressionsWorkload(ctx, 4096, chunk_elems=1024)
        workload.prepare()
        workload.submit()
        ctx.synchronize()
        outputs.add(_sha(ctx.gather(workload.call), ctx.gather(workload.put)))
    if len(outputs) != 1:
        failures.append("expr/lazy/n4096 functional: call/put results differ from the eager arm's")
    return records, failures


# --------------------------------------------------------------------------- #
# disk: out-of-core streaming through the compressed disk tier, checkpoints
# --------------------------------------------------------------------------- #
#: 10 arrays x 20 MB stream through 2 GPUs capped at 48 MB over an 80 MB
#: host pool: the dataset exceeds host memory, so the oldest batches always
#: sit on the compressed disk tier
DISK_STREAM = dict(gpus=2, elems=256 * 10_240 * 2, arrays=10, rounds=3, flops=20_000.0)
DISK_COUNTERS = ("staging_stalls", "staging_stalls_avoided", "prefetch_promotions",
                 "disk_promotions_staged", "chunks_preevicted", "disk_stored_bytes_written",
                 "disk_stored_bytes_read")
DISK_MEMORY = ("bytes_to_disk", "bytes_from_disk", "evictions_to_disk", "disk_writes_skipped")
DISK_ARMS = {"planned": {}, "reactive": {"window_memory": False}}


def _disk_context(**kwargs):
    caps = {DeviceId(0, i).memory_space: 48 * MB for i in range(2)}
    caps[MemorySpace(0, MemoryKind.HOST)] = 80 * MB
    return Context(azure_nc24rsv2(nodes=1, gpus_per_node=2), mode="functional",
                   memory_capacities=caps, lookahead=4, stage_threshold=24 * MB, disk=True,
                   disk_seed=3, **kwargs)


def disk(base):
    """Planned (window memory plans) against reactive staging; checkpoint round trip.

    Checkpoint stored bytes and virtual times are not recorded: they depend
    on the zlib build, unlike the cost model's compression ratios.
    """
    del base
    records, failures, contexts = {}, [], {}
    for arm, kwargs in DISK_ARMS.items():
        ctx = contexts[arm] = _disk_context(**kwargs)
        batches = _stream(ctx, functional=True, **DISK_STREAM)
        record = {"result_sha256": _sha(*(ctx.gather(batch) for batch in batches)),
                  "virtual_time": ctx.virtual_time}
        stats = ctx.stats()
        record.update((field, int(getattr(stats, field))) for field in DISK_COUNTERS)
        record.update((field, int(sum(getattr(m, field) for m in stats.memory.values())))
                      for field in DISK_MEMORY)
        records[arm] = {"out_of_core": record}
    planned, reactive = records["planned"]["out_of_core"], records["reactive"]["out_of_core"]
    where = "disk/planned/out_of_core"
    if planned["result_sha256"] != reactive["result_sha256"]:
        failures.append(f"{where}: result_sha256 differs from the reactive arm's")
    if not planned["virtual_time"] < reactive["virtual_time"]:
        failures.append(f"{where}: virtual_time {planned['virtual_time']!r} is not below the "
                        f"reactive arm's {reactive['virtual_time']!r}")
    if planned["disk_promotions_staged"] < 1:
        failures.append(f"{where}: disk_promotions_staged is 0")
    if planned["staging_stalls_avoided"] < 1:
        failures.append(f"{where}: staging_stalls_avoided is 0")
    if planned["disk_writes_skipped"] < 1:
        failures.append(f"{where}: disk_writes_skipped is 0 (no clean disk copy was reused)")
    if reactive["disk_promotions_staged"] != 0:
        failures.append("disk/reactive/out_of_core: disk_promotions_staged without a planner")
    for arm, record in (("planned", planned), ("reactive", reactive)):
        if record["evictions_to_disk"] < 1:
            failures.append(f"disk/{arm}/out_of_core: evictions_to_disk is 0")
        if not record["disk_stored_bytes_written"] < record["bytes_to_disk"]:
            failures.append(f"disk/{arm}/out_of_core: disk_stored_bytes_written "
                            f"{record['disk_stored_bytes_written']} is not below the raw "
                            f"{record['bytes_to_disk']} (compression inactive)")

    # Checkpoint the planned arm's streamed dataset, restore it into a fresh
    # context and compare bit for bit (CRC-checked per chunk on the way in).
    ctx = contexts["planned"]
    fd, path = tempfile.mkstemp(suffix=".ckpt")
    os.close(fd)
    try:
        ctx.checkpoint(path)
        restore_ctx = _disk_context()
        restored = restore_ctx.restore(path)
    finally:
        os.unlink(path)
    stats, restore_stats = ctx.stats(), restore_ctx.stats()
    record = {
        "restored_sha256": _sha(*(restore_ctx.gather(restored[f"batch{j}"])
                                  for j in range(DISK_STREAM["arrays"]))),
        "chunks_checkpointed": int(stats.chunks_checkpointed),
        "checkpoint_bytes_raw": int(stats.checkpoint_bytes_raw),
        "chunks_restored": int(restore_stats.chunks_restored),
    }
    records["checkpoint"] = {"roundtrip": record}
    if record["restored_sha256"] != planned["result_sha256"]:
        failures.append("disk/checkpoint/roundtrip: restored_sha256 differs from the original")
    if record["chunks_restored"] != record["chunks_checkpointed"]:
        failures.append(f"disk/checkpoint/roundtrip: chunks_restored {record['chunks_restored']}"
                        f" != chunks_checkpointed {record['chunks_checkpointed']}")
    if not stats.checkpoint_bytes_stored < record["checkpoint_bytes_raw"]:
        failures.append("disk/checkpoint/roundtrip: checkpoint_bytes_stored is not below "
                        "checkpoint_bytes_raw (payloads did not compress)")
    return records, failures


# --------------------------------------------------------------------------- #
# faults: injected faults and device failures must not change results
# --------------------------------------------------------------------------- #
#: (workload, gpus, n, params, result attribute); K-Means uses integer-valued
#: float32 points so partial sums stay exact under any reduction grouping
FAULT_CONFIGS = [
    ("hotspot3", 4, 64 * 64, dict(chunk_elems=64 * 32, iterations=4, seed=3), "_final"),
    ("kmeans2", 4, 40_960, dict(iterations=6, seed=0, chunk_elems=10_240, quantize=True),
     "centroids"),
]
TRANSIENT = "transfer=0.01"
FAULT_COUNTERS = ("transfer_faults_injected", "transfers_retried", "transfers_failed_permanently",
                  "devices_failed", "chunks_lost", "replicas_promoted", "tasks_replayed",
                  "redistributes_forced")


def _fault_arms(total):
    """arm -> Context kwargs, given the fault-free run's virtual time ``total``."""
    chaos = (f"{TRANSIENT},device=0.1@{0.5 * total!r},"
             f"degrade=pcie@{0.25 * total!r}:{0.4 * total!r}x0.25")
    return {"transient": {"faults": TRANSIENT, "fault_seed": 7},
            "chaos": {"faults": chaos, "fault_seed": 7},
            "failover": {"faults": "", "fault_seed": 7}}


def _fault_run(arm, name, gpus, n, params, attr, **kwargs):
    """One functional run under ``kwargs``; returns (record, verified)."""
    ctx = make_context(1, gpus, mode="functional", **kwargs)
    workload = create_workload(name, ctx, n, **params)
    workload.run()
    if arm == "failover":
        ctx.fail_device((0, 1))
    record = {"virtual_time": ctx.synchronize(),
              "result_sha256": _sha(ctx.gather(getattr(workload, attr)))}
    verified = workload.verify()
    stats = ctx.stats()
    record.update((field, int(getattr(stats, field))) for field in FAULT_COUNTERS)
    if arm == "chaos":
        record["spec"] = kwargs["faults"]
    return record, verified


def faults(base):
    """Fault-free, transient, chaos and failover arms of two functional workloads.

    ``chaos`` adds one device failure at half the fault-free virtual time and
    a PCIe degradation window to the transient faults; ``failover`` fails a
    device after the run, when every live chunk is device-resident only, so
    recovery must replay lineage.
    """
    del base
    records, failures = {}, []
    for config_args in FAULT_CONFIGS:
        config = f"{config_args[0]}[1x{config_args[1]}]"
        reference, verified = _fault_run("fault_free", *config_args)
        records.setdefault("fault_free", {})[config] = reference
        if not verified:
            failures.append(f"faults/fault_free/{config}: result_sha256 fails verify()")
        for arm, kwargs in _fault_arms(reference["virtual_time"]).items():
            where = f"faults/{arm}/{config}"
            try:
                record, verified = _fault_run(arm, *config_args, **kwargs)
            except FaultError as exc:
                failures.append(f"{where}: transfers_failed_permanently, {exc}")
                continue
            records.setdefault(arm, {})[config] = record
            if not verified:
                failures.append(f"{where}: result_sha256 fails verify()")
            if record["result_sha256"] != reference["result_sha256"]:
                failures.append(f"{where}: result_sha256 differs from the fault-free run's")
            if record["transfers_failed_permanently"]:
                failures.append(f"{where}: transfers_failed_permanently is "
                                f"{record['transfers_failed_permanently']}")
        chaos = records.get("chaos", {}).get(config)
        if chaos and chaos["devices_failed"] != 1:
            failures.append(f"faults/chaos/{config}: devices_failed is {chaos['devices_failed']}")
        if chaos and chaos["redistributes_forced"] < 1:
            failures.append(f"faults/chaos/{config}: redistributes_forced is 0")
        failover = records.get("failover", {}).get(config)
        if failover and failover["tasks_replayed"] < 1:
            failures.append(f"faults/failover/{config}: tasks_replayed is 0")
    return records, failures


# --------------------------------------------------------------------------- #
# serving: concurrent tenants against the serialized trace
# --------------------------------------------------------------------------- #
#: seed chosen so the 20-job trace spreads load evenly over the four tenants
#: (each tenant serves one job at a time, so its longest chain bounds the
#: concurrent makespan); jobs sized so one cannot saturate the cluster alone,
#: the headroom that serving converts into speedup
SERVING_TRACE = dict(seed=124, njobs=20, rate=600.0, tenants=4, mix=[
    ("hotspot3", 1024 * 1024, {"iterations": 8}),
    ("kmeans2", 400_000, {"quantize": True, "iterations": 6}),
    ("cgc", 160 * 160, {"iterations": 2}),
])
SERVING_ARMS = {"concurrent": {}, "serialized": {"max_active": 1}}
SERVING_FIELDS = ("jobs_completed", "makespan", "virtual_time", "throughput", "latency_p50",
                  "latency_p99", "tenant_counters")
#: runtime-wide plan-cache counters each arm also records: a tenant's later
#: jobs restamp the plans its earlier jobs built, and these pin that reuse
SERVING_CACHE_FIELDS = ("plan_cache_hits", "plan_cache_misses")


def serving(base):
    """A 20-job Poisson trace over 4 tenants on 2x2 GPUs, functional, every job verified.

    ``concurrent`` is the fair-share scheduler; ``serialized`` is the same
    trace with ``max_active=1``, one job at a time on the whole cluster.
    """
    config = "seed{seed}/{njobs}jobs".format(**SERVING_TRACE)
    records, failures = {}, []
    for arm, kwargs in SERVING_ARMS.items():
        system = ServingSystem(cluster=azure_nc24rsv2(nodes=2, gpus_per_node=2), **kwargs)
        for tenant in range(SERVING_TRACE["tenants"]):
            system.add_tenant(f"tenant-{tenant}", memory_fraction=0.5)
        system.submit_trace(poisson_trace(**SERVING_TRACE))
        report = system.run()
        report_dict = report.to_dict()
        record = {field: report_dict[field] for field in SERVING_FIELDS}
        # every job's latency counts, not only the last one's finish
        record["latency_sum"] = math.fsum(report.latencies())
        stats = system.runtime.stats()
        record.update((field, getattr(stats, field)) for field in SERVING_CACHE_FIELDS)
        records[arm] = {config: record}
        where = f"serving/{arm}/{config}"
        if not all(job.workload.verify() for job in report.jobs):
            failures.append(f"{where}: a job fails its workload's verify()")
        if record["jobs_completed"] != SERVING_TRACE["njobs"]:
            failures.append(f"{where}: jobs_completed is {record['jobs_completed']}")
        for tenant, ledger in record["tenant_counters"].items():
            if ledger["outstanding"] or ledger["tasks_submitted"] != ledger["tasks_completed"]:
                failures.append(f"{where}: tenant_counters[{tenant}] do not balance: {ledger}")
        # Throughput floor, and p99 and latency-sum ceilings, against the
        # committed baseline.
        ref = base.get(arm, {}).get(config)
        if ref and record["throughput"] < ref["throughput"] * 0.999:
            failures.append(f"{where}: throughput {record['throughput']:.3f} is below the "
                            f"baseline floor {ref['throughput']:.3f}")
        for field in ("latency_p99", "latency_sum"):
            if ref and field in ref and record[field] > ref[field] * 1.001:
                failures.append(f"{where}: {field} {record[field]:.5f} exceeds the "
                                f"baseline ceiling {ref[field]:.5f}")
    min_speedup = 1.5
    speedup = (records["concurrent"][config]["throughput"]
               / records["serialized"][config]["throughput"])
    if speedup < min_speedup:
        failures.append(f"serving/concurrent/{config}: throughput only {speedup:.2f}x the "
                        f"serialized arm's (needs {min_speedup}x)")
    return records, failures


# --------------------------------------------------------------------------- #
# plan_cache: the driver's plan-template cache on iterative workloads
# --------------------------------------------------------------------------- #
PLAN_CACHE_ARMS = {"cache_on": {}, "cache_off": {"plan_cache": False}}


def plan_cache(base):
    """Cache on against off: hit rate, driver planning time, unchanged results."""
    del base
    records, failures = {arm: {} for arm in PLAN_CACHE_ARMS}, []
    for name, n, iterations, mode, gpus in (("kmeans", 40_960, 50, "functional", 2),
                                            ("hotspot", 64_000_000, 60, "simulate", 4)):
        config = f"{name}/g1x{gpus}/n{n}/iterations={iterations}/{mode}"
        results = {}
        for arm, kwargs in PLAN_CACHE_ARMS.items():
            ctx = make_context(1, gpus, mode=mode, **kwargs)
            params = {"iterations": iterations}
            if name == "kmeans":
                params.update(seed=0, chunk_elems=max(256, n // 4))
            workload = create_workload(name, ctx, n, **params)
            workload.run()
            stats = ctx.stats()
            records[arm][config] = {
                "plan_cache_hits": stats.plan_cache_hits,
                "plan_cache_misses": stats.plan_cache_misses,
                "tasks_completed": stats.tasks_completed,
                "driver_plan_busy": stats.resource_busy.get("driver.plan", 0.0),
                "virtual_time": stats.virtual_time,
            }
            if mode == "functional":
                results[arm] = _sha(ctx.gather(workload.centroids))
        on, off = records["cache_on"][config], records["cache_off"][config]
        min_hit_rate = 0.9
        hit_rate = on["plan_cache_hits"] / max(1, on["plan_cache_hits"] + on["plan_cache_misses"])
        if not hit_rate > min_hit_rate:
            failures.append(f"plan_cache/cache_on/{config}: plan_cache_hits are {hit_rate:.1%} "
                            f"of lookups (needs > {min_hit_rate:.0%})")
        if off["plan_cache_hits"] or off["plan_cache_misses"]:
            failures.append(f"plan_cache/cache_off/{config}: plan_cache_hits/misses are not 0")
        if not on["driver_plan_busy"] < off["driver_plan_busy"]:
            failures.append(f"plan_cache/cache_on/{config}: driver_plan_busy is not below the "
                            "uncached arm's")
        if results and results["cache_on"] != results["cache_off"]:
            failures.append(f"plan_cache/cache_on/{config}: centroids differ from the uncached "
                            "arm's")
        if name == "hotspot" and on["virtual_time"] > off["virtual_time"]:
            failures.append(f"plan_cache/cache_on/{config}: virtual_time is above the uncached "
                            "arm's")
    return records, failures


# --------------------------------------------------------------------------- #
# hotpath: the simulator end to end, and the window's fusion and memory plans
# --------------------------------------------------------------------------- #
#: arm -> Context kwargs.  The chain sweep's arms run at lookahead 6, two
#: full three-launch iterations, so chain fusion and its no-fusion control
#: ``unfused`` see the same drain groups.
HOTPATH_ARMS = {
    "default": {},
    "no_fusion": {"fusion": False},
    "eager": {"lookahead": 1},
    "no_window_memory": {"window_memory": False},
    "chain": {"lookahead": 6},
    "unfused": {"lookahead": 6, "fusion": False},
}
WINDOW_ARMS = ("default", "no_fusion", "eager")
CHAIN_ARMS = ("chain", "unfused")
HOTPATH_COUNTERS = ("events_processed", "events_cancelled", "launches_fused",
                    "launches_fused_chain", "fused_chain_max_len", "reductions_fused",
                    "window_flushes", "network_bytes", "chunks_preevicted",
                    "prefetch_promotions", "staging_stalls", "staging_stalls_avoided")

#: K-Means forced to spill: every GPU pool capped well below its ~4.3 GB
#: working set but above one 400 MB chunk, so the eviction path runs
SPILL_GPU_CAPACITY = 1024 ** 3

#: (workload, total gpus, gpus per node, problem size, params), Fig. 15's
#: per-GPU sizes with iterations raised so cached plans dominate
SMOKE_SWEEP = {
    ("default",): [
        ("hotspot", 4, 4, int(5.4e8 * 4), {"iterations": 10}),
        ("kmeans", 4, 4, int(2.7e8 * 4), {"iterations": 8}),
    ],
    ("default", "no_window_memory"): [
        ("kmeans", 2, 2, int(2.7e8 * 2), {"iterations": 12, "_spill": True}),
    ],
    # the double stencil is the fusion evidence; CGC's reduce-heavy chains
    # cannot fuse, so it shows the window is overhead-neutral on them
    WINDOW_ARMS: [
        ("hotspot2", 4, 2, int(5.4e8 * 4), {"iterations": 20}),
        ("cgc", 4, 2, 12_000 ** 2, {"iterations": 3}),
    ],
    # the triple stencil fuses three launches into one chain; kmeans2 feeds
    # a reduction tail
    CHAIN_ARMS: [
        ("hotspot3", 4, 2, int(5.4e8 * 4), {"iterations": 20}),
        ("kmeans2", 4, 2, int(2.7e8 * 4), {"iterations": 8}),
    ],
}
FULL_SWEEP = {
    ("default",): [
        ("hotspot", 4, 4, int(5.4e8 * 4), {"iterations": 40}),
        ("hotspot", 16, 4, int(5.4e8 * 16), {"iterations": 40}),
        ("kmeans", 4, 4, int(2.7e8 * 4), {"iterations": 25}),
        ("kmeans", 16, 4, int(2.7e8 * 16), {"iterations": 25}),
    ],
    WINDOW_ARMS: [
        ("hotspot2", 4, 2, int(5.4e8 * 4), {"iterations": 40}),
        ("hotspot2", 16, 4, int(5.4e8 * 16), {"iterations": 40}),
        ("cgc", 4, 2, 25_000 ** 2, {"iterations": 5}),
    ],
    CHAIN_ARMS: [
        ("hotspot3", 4, 2, int(5.4e8 * 4), {"iterations": 40}),
        ("hotspot3", 16, 4, int(5.4e8 * 16), {"iterations": 40}),
        ("kmeans2", 4, 2, int(2.7e8 * 4), {"iterations": 25}),
    ],
}
#: (arrays, rounds, total elems, gpus): the 1 GiB GPU cap holds ~5 of the 6
#: per-GPU batches, and a drained group of 4
STREAM = (6, 6, 104_857_600, 2)


def _config_key(workload, gpus, per_node, n, params):
    key = f"{workload}/g{gpus}x{per_node}/n{n}"
    extra = ",".join(f"{k}={v}" for k, v in sorted(params.items()))
    return f"{key}/{extra}" if extra else key


def _hotpath_record(ctx):
    stats = ctx.stats()
    record = {"virtual_time": stats.virtual_time,
              "plan_cache_hit_rate": ctx.planner.cache.hit_rate}
    record.update((field, getattr(stats, field)) for field in HOTPATH_COUNTERS)
    memories = stats.memory.values()
    record["evictions"] = sum(m.evictions_to_host + m.evictions_to_disk for m in memories)
    record["staging_evictions"] = sum(m.staging_evictions for m in memories)
    return record


def _run_one(arm, workload, gpus, per_node, n, params, mode="simulate"):
    """Run one configuration under ``arm``; returns (context, workload)."""
    kwargs = dict(HOTPATH_ARMS[arm])
    if params.get("_spill"):
        kwargs["memory_capacities"] = {
            DeviceId(node, local).memory_space: SPILL_GPU_CAPACITY
            for node in range(gpus // per_node) for local in range(per_node)
        }
    ctx = make_context(gpus // per_node, per_node, mode=mode, **kwargs)
    instance = create_workload(workload, ctx, n,
                               **{k: v for k, v in params.items() if not k.startswith("_")})
    instance.run()
    return ctx, instance


def _stream_run(arm, arrays, rounds, elems, gpus, cap, functional=False):
    capacities = {DeviceId(0, local).memory_space: cap for local in range(gpus)}
    ctx = Context(azure_nc24rsv2(nodes=1, gpus_per_node=gpus),
                  mode="functional" if functional else "simulate",
                  memory_capacities=capacities, **HOTPATH_ARMS[arm])
    batches = _stream(ctx, gpus, elems, arrays, rounds, 80.0, functional)
    return ctx, batches


def _sweep(gate, sweep):
    """Records of every (arms, configs) group, plus the fit, window and chain fusion checks."""
    records, failures = {}, []
    for arms, configs in sweep.items():
        for arm in arms:
            for config in configs:
                ctx, _ = _run_one(arm, *config)
                key, record = _config_key(*config), _hotpath_record(ctx)
                records.setdefault(arm, {})[key] = record
                if not config[4].get("_spill"):
                    failures += _fits(gate, arm, key, record)
    # Fusion must fire on the double stencil and remove events while the
    # plan cache keeps serving the windowed launches.  Its intermediate is
    # re-chunked to the superblocks that write it, so no arm moves its bytes.
    min_hit_rate = 0.9
    for config, off in records["no_fusion"].items():
        if config.startswith("hotspot2/"):
            on = records["default"][config]
            failures += _needs(gate, "default", config, on, off, "no_fusion",
                               ("events_processed",), 1.0, strict=True)
            failures += _same_bytes(gate, WINDOW_ARMS, config, records, "no_fusion")
            failures += _fires(gate, "default", config, on, min_hit_rate)
    # Chain fusion must remove events on every config, and on the triple
    # stencil also virtual time (kmeans2's is recorded only).
    for config, chain in records["chain"].items():
        unfused = records["unfused"][config]
        failures += _needs(gate, "chain", config, chain, unfused, "unfused",
                           ("events_processed",), 1.0, strict=True)
        failures += _same_bytes(gate, CHAIN_ARMS, config, records, "unfused")
        if config.startswith("hotspot3/"):
            failures += _needs(gate, "chain", config, chain, unfused, "unfused",
                               ("virtual_time",), 1.0)
        failures += _fires(gate, "chain", config, chain, min_hit_rate)
    return records, failures


def _same_bytes(gate, arms, config, records, control_arm):
    """Failures unless every arm moves exactly ``control_arm``'s network bytes:
    with intermediates written in place, fusion elides no transfer."""
    expected = records[control_arm][config]["network_bytes"]
    return [f"{gate}/{arm}/{config}: network_bytes {records[arm][config]['network_bytes']!r} "
            f"!= the {control_arm} arm's {expected!r}"
            for arm in arms if records[arm][config]["network_bytes"] != expected]


def _needs(gate, arm, config, ours, control, control_arm, fields, need, strict=False):
    """Failures unless ``control[field] / ours[field]`` reaches ``need`` (exceeds it if
    ``strict``) for every field."""
    failures = []
    for field in fields:
        ratio = control[field] / max(ours[field], 1e-12)
        if not (ratio > need if strict else ratio >= need):
            failures.append(f"{gate}/{arm}/{config}: {field} {ours[field]!r} is {ratio:.3f}x "
                            f"below the {control_arm} arm's {control[field]!r} (needs "
                            f"{'more than ' if strict else ''}{need}x)")
    return failures


def _fires(gate, arm, config, record, min_hit_rate):
    """A failure unless fusion fired and the plan cache kept serving the launches."""
    if record["launches_fused"] > 0 and record["plan_cache_hit_rate"] > min_hit_rate:
        return []
    return [f"{gate}/{arm}/{config}: launches_fused {record['launches_fused']}, "
            f"plan_cache_hit_rate {record['plan_cache_hit_rate']:.3f} (needs > 0 and "
            f"> {min_hit_rate})"]


def _fits(gate, arm, config, record):
    """A failure unless an uncapped config evicted nothing: its working set fits
    the GPUs, so any eviction (planned or at staging) was for bytes no task uses."""
    if record["evictions"] == 0:
        return []
    return [f"{gate}/{arm}/{config}: evictions {record['evictions']} "
            f"(chunks_preevicted {record['chunks_preevicted']}) on uncapped GPU pools "
            "(needs 0)"]


def hotpath(base):
    """The quick sweep, window memory on spill stress, determinism, functional identity."""
    del base
    records, failures = _sweep("hotpath", SMOKE_SWEEP)
    arrays, rounds, elems, gpus = STREAM
    stream_key = _config_key("stream", gpus, gpus, elems, {"arrays": arrays, "rounds": rounds})
    for arm in ("default", "no_window_memory"):
        ctx, _ = _stream_run(arm, arrays, rounds, elems, gpus, SPILL_GPU_CAPACITY)
        records[arm][stream_key] = _hotpath_record(ctx)
    # Window memory plans must cut staging-time evictions and stalls in
    # aggregate over the spill-stress configs.
    for field in ("staging_evictions", "staging_stalls"):
        on = sum(records["default"][key][field] for key in records["no_window_memory"])
        off = sum(record[field] for record in records["no_window_memory"].values())
        if not off / max(on, 1) > 1.0:
            failures.append(f"hotpath/default/spill+stream: {field} total {on} is not below the "
                            f"no_window_memory arm's {off}")
    # Determinism: the same configuration twice, bit-identical virtual time.
    config = ("kmeans", 2, 2, 40_960, {"iterations": 12, "seed": 0})
    first, second = (_hotpath_record(_run_one("default", *config)[0]) for _ in range(2))
    records["default"][_config_key(*config)] = first
    if first["virtual_time"].hex() != second["virtual_time"].hex():
        failures.append(f"hotpath/default/{_config_key(*config)}: virtual_time differs between "
                        "two identical runs")
    # Functional results bit-identical with chain fusion on and off, and with
    # window memory on and off (small problems, the spill path still firing).
    for name, n, params, attr in (
        ("hotspot3", 64 * 64, dict(chunk_elems=64 * 32, iterations=4, seed=3), "_final"),
        ("kmeans2", 40_960, dict(iterations=6, seed=0, chunk_elems=10_240), "centroids"),
    ):
        shas = set()
        for arm in ("chain", "unfused"):
            ctx, workload = _run_one(arm, name, 2, 2, n, params, mode="functional")
            shas.add(_sha(ctx.gather(getattr(workload, attr))))
            if not workload.verify():
                failures.append(f"hotpath/{arm}/{name} functional: result fails verify()")
        if len(shas) != 1:
            failures.append(f"hotpath/chain/{name} functional: result differs from the unfused "
                            "arm's")
    shas = {_sha(*(ctx.gather(b) for b in batches))
            for ctx, batches in (_stream_run(arm, 6, 3, 256 * 4096 * 2, 2, 20 * MB, True)
                                 for arm in ("default", "no_window_memory"))}
    if len(shas) != 1:
        failures.append("hotpath/default/stream functional: result differs from the "
                        "no_window_memory arm's")
    return records, failures


def hotpath_full(base):
    """The full Fig. 15 weak-scaling, launch-window and chain-fusion sweeps."""
    del base
    return _sweep("hotpath_full", FULL_SWEEP)


# --------------------------------------------------------------------------- #
# paper: the shapes of the paper's evaluation (Figs. 10-16, Sec. 4.3), ablations
# --------------------------------------------------------------------------- #
#: Fig. 10: K-Means chunk sizes in 16-byte records (2 MB ... 800 MB), at a tenth
#: of the paper's data and GPU memory (1.6 GB against a 1 GiB pool), which
#: keeps its data-to-memory ratio and so the shape of its curve
FIG10 = dict(n=100_000_000, gpu_memory=GB, iterations=3)
FIG10_CHUNKS = (131_072, 1_310_720, 6_553_600, 32_768_000, 50_000_000)
#: Fig. 11: K-Means from well inside one GPU's memory to past it
FIG11_SIZES = (10_000_000, 40_000_000, 160_000_000, 640_000_000, 1_280_000_000, 2_560_000_000)
#: Fig. 12: per benchmark, sizes in GPU memory, near its limit and past it
FIG12_SIZES = {
    "md5": (1e10, 1e11),
    "nbody": (1e10, 1e11),
    "correlator": (8192, 16384, 32768),
    "kmeans": (250e6, 800e6, 2e9),
    "hotspot": (1e9, 2e9, 4e9),
    "gemm": (1e13, 2e13, 8e13),
    "spmv": (1e12, 4e12, 8e12),
    "black_scholes": (250e6, 700e6, 2e9),
}
#: past GPU memory the compute-heavy kernels keep their throughput (transfers
#: hide behind execution) and the data-intensive ones lose most of it
SPILL_KEEPS, SPILL_HURTS = ("correlator", "kmeans", "gemm"), ("hotspot", "spmv", "black_scholes")
#: Figs. 13 and 14: one size per benchmark (~2x one GPU's memory for the
#: data-heavy kernels, so one GPU spills) on 1, 2 and 4 GPUs
FIG13_SIZES = {"md5": 2e11, "nbody": 2e11, "correlator": 32768, "kmeans": 2e9, "hotspot": 4e9,
               "gemm": 4e13, "spmv": 4e12, "black_scholes": 1.5e9}
GPU_COUNTS = (1, 2, 4)
#: Fig. 13's near-linear scalers
LINEAR = ("md5", "nbody", "correlator")
#: Fig. 14 against Fig. 13: K-Means at 96 GB, past 4 x 16 GB of GPU memory
PCIE_SHARING_N = 6_000_000_000
#: Fig. 16: Lightning's (nodes, GPUs per node) and its timed iterations
FIG16_SHAPES = ((1, 1), (1, 4), (2, 4), (4, 4))
FIG16_ITERATIONS = 2
#: Sec. 4.3: the correlator across GPU memory, and Black-Scholes' ~10 GB
CORRELATOR_FITS, CORRELATOR_SPILLS = 16384, 32768
PCIE_BS_N = 500_000_000
#: ablations: K-Means past one GPU's memory (24 GB) under staging thresholds;
#: HotSpot with and without a barrier after every launch
ABLATION_N = 1_500_000_000
THRESHOLDS = (64 * MB, 512 * MB, 2 * GB, 16 * GB)
BARRIER_N = 1_000_000_000
#: Fig. 15: per-GPU sizes, as printed above each panel, on (GPUs, GPUs per node)
FIG15_SIZES = {"md5": 1.4e11, "nbody": 1.4e11, "correlator": 2.0e3, "kmeans": 2.7e8,
               "hotspot": 5.4e8, "gemm": 1.8e13, "spmv": 5.5e11, "black_scholes": 2.7e8}
FIG15_SHAPES = ((1, 1), (4, 4), (8, 4), (16, 4), (32, 4))
#: communication-light benchmarks that weak-scale nearly perfectly
WEAK_SCALERS = ("md5", "nbody", "correlator", "kmeans", "hotspot")


def _key(workload, n, nodes=1, per_node=1, **options):
    return _config_key(workload, nodes * per_node, per_node, int(n), options)


def _point(runs, workload, n, nodes=1, per_node=1, **options):
    """``(config, record)`` of one timed workload run, run once per config and
    kept in ``runs``.  ``options`` are workload parameters, except the
    ``Context`` keyword ``stage_threshold`` and ``gpu_memory``, a cap on every
    GPU pool."""
    config = _key(workload, n, nodes, per_node, **options)
    if config not in runs:
        kwargs = {}
        if "stage_threshold" in options:
            kwargs["stage_threshold"] = options.pop("stage_threshold")
        if "gpu_memory" in options:
            cap = options.pop("gpu_memory")
            kwargs["memory_capacities"] = {DeviceId(node, local).memory_space: cap
                                           for node in range(nodes) for local in range(per_node)}
        ctx = make_context(nodes, per_node, **kwargs)
        result = create_workload(workload, ctx, int(n), **options).run()
        runs[config] = {"elapsed": result.elapsed, "throughput": result.throughput,
                        "data_bytes": result.data_bytes}
    return config, runs[config]


def _fig16():
    """Fig. 16's bars per CGC dataset in seconds per iteration; ``cuda`` is None
    where one GPU runs out of memory."""
    records = {}
    for label, (side, _) in CGC_DATASETS.items():
        record = {}
        for nodes, gpus in FIG16_SHAPES:
            app = CoClusteringApp(make_context(nodes, gpus), side, side)
            app.prepare()
            app.run(iterations=1)  # warm-up, as in Sec. 4.1
            record[f"lightning_{nodes}x{gpus}"] = app.run(iterations=FIG16_ITERATIONS)
        sequence = app.kernel_cost_sequence()  # the baselines run the same kernels
        record.update(data_bytes=app.data_bytes(), numpy=CPUBaseline().run_time(sequence))
        try:
            record["cuda"] = SingleGPUBaseline().run_time(sequence, app.data_bytes())
        except SingleGpuOutOfMemory:
            record["cuda"] = None
        records[f"cgc/{label}"] = record
    return records


def _barrier_elapsed():
    """HotSpot's virtual time with a barrier after every launch, so no planning
    or communication overlaps execution (the ablation of Sec. 2.4)."""
    ctx = make_context(1, 4)
    wl = create_workload("hotspot", ctx, BARRIER_N)
    wl.prepare()
    start = ctx.synchronize()
    src, dst = wl.temp_a, wl.temp_b
    work = BlockWorkDist(wl.rows_per_chunk, axis=0)
    for _ in range(wl.iterations):
        wl.kernel.launch((wl.side, wl.side), (16, 16), work,
                         (wl.side, wl.side, src, wl.power, dst))
        end = ctx.synchronize()
        src, dst = dst, src
    return end - start


def paper(base):
    """Figs. 10-14 and 16, Sec. 4.3 and two ablations in virtual time, each
    configuration run once (Figs. 12-14 and Sec. 4.3 share their 1-GPU points)."""
    del base
    runs = {}
    pcie = kernel_time(P100, BS_COST, PCIE_BS_N, {})
    data_bytes = 5 * PCIE_BS_N * 4  # five float32 arrays; the paper quotes 10.7 GB
    records = {
        "fig10": dict(_point(runs, "kmeans", chunk_elems=chunk, **FIG10) for chunk in FIG10_CHUNKS),
        "fig11": dict(_point(runs, "kmeans", n, iterations=5) for n in FIG11_SIZES),
        "fig12": dict(_point(runs, name, n) for name, sizes in FIG12_SIZES.items() for n in sizes),
        "fig13": dict(_point(runs, name, n, 1, gpus)
                      for name, n in FIG13_SIZES.items() for gpus in GPU_COUNTS),
        "fig14": dict(_point(runs, name, n, gpus, 1)
                      for name, n in FIG13_SIZES.items() for gpus in GPU_COUNTS),
        "fig16": _fig16(),
        "sec4.3": dict(_point(runs, "correlator", n) for n in (CORRELATOR_FITS, CORRELATOR_SPILLS)),
        "ablations": dict(_point(runs, "kmeans", ABLATION_N, stage_threshold=threshold)
                          for threshold in THRESHOLDS),
    }
    records["fig14"].update(_point(runs, "kmeans", PCIE_SHARING_N, *shape)
                            for shape in ((1, 4), (4, 1)))
    records["sec4.3"][f"black_scholes/n{PCIE_BS_N}/pcie"] = {
        "data_bytes": data_bytes, "kernel_time": pcie, "required_bandwidth": data_bytes / pcie,
        "pcie_bandwidth": azure_nc24rsv2(1, 1).node.pcie_bandwidth}
    records["ablations"].update([_point(runs, "hotspot", BARRIER_N, 1, 4)])
    records["ablations"][_key("hotspot", BARRIER_N, 1, 4, barrier=True)] = {
        "elapsed": _barrier_elapsed()}
    return records, paper_checks(records)


def paper_checks(records):
    """The paper's shapes as bounds over the ``paper`` gate's records, each
    failure naming the gate, figure, config and field."""
    failures = []

    def need(ok, figure, config, text):
        if not ok:
            failures.append(f"paper/{figure}/{config}: {text}")

    # Fig. 10: a U over chunk sizes.  Tiny chunks pay per-task overhead, huge
    # ones cannot overlap transfers with execution, the mid-range is near best.
    configs = [_key("kmeans", chunk_elems=chunk, **FIG10) for chunk in FIG10_CHUNKS]
    times = [records["fig10"][config]["elapsed"] for config in configs]
    best = min(times)
    for i, ok, bound in ((0, times[0] > 1.1 * best, "> 1.1x"),
                         (-1, times[-1] > 1.02 * best, "> 1.02x"),
                         (2, times[2] <= 1.3 * best, "<= 1.3x")):
        need(ok, "fig10", configs[i], f"elapsed is {times[i] / best:.3f}x the best chunk "
                                      f"size's (needs {bound})")

    # Fig. 11: linear in the problem size while the data fits one GPU, and
    # still growing past it.
    fig = records["fig11"]
    series = [(_key("kmeans", n, iterations=5), n) for n in FIG11_SIZES]
    fits = [(config, n) for config, n in series if fig[config]["data_bytes"] <= gpu_memory_limit(1)]
    need(len(fits) >= 3, "fig11", series[0][0], f"data_bytes: {len(fits)} sizes fit one GPU "
                                                 "(needs >= 3)")
    for (small, n_small), (large, n_large) in zip(fits, fits[1:]):
        ratio, growth = fig[large]["elapsed"] / fig[small]["elapsed"], n_large / n_small
        need(0.5 * growth <= ratio <= 1.35 * growth, "fig11", large,
             f"elapsed grew {ratio:.3f}x for {growth:g}x the size (needs {0.5 * growth:g}x to "
             f"{1.35 * growth:g}x)")
    if fits:
        need(fig[series[-1][0]]["elapsed"] > fig[fits[-1][0]]["elapsed"], "fig11", series[-1][0],
             "elapsed is not above the largest in-memory size's")

    # Fig. 12: spilling keeps the compute-heavy kernels' throughput and costs
    # the data-intensive ones most of theirs.
    fig = records["fig12"]
    for name, sizes in FIG12_SIZES.items():
        configs = [_key(name, n) for n in sizes]
        fits = [config for config in configs if fig[config]["data_bytes"] <= gpu_memory_limit(1)]
        spilled = [config for config in configs if config not in fits]
        need(fits, "fig12", configs[0], "data_bytes: no size fits one GPU (needs one)")
        if not (fits and spilled):
            continue  # MD5 and N-Body always fit
        worst = min(spilled, key=lambda config: fig[config]["throughput"])
        kept = fig[worst]["throughput"] / max(fig[config]["throughput"] for config in fits)
        if name in SPILL_KEEPS:
            need(kept > 0.45, "fig12", worst, f"throughput keeps {kept:.3f} of the in-memory "
                                              "best (needs > 0.45)")
        if name in SPILL_HURTS:
            need(kept < 0.5, "fig12", worst, f"throughput keeps {kept:.3f} of the in-memory "
                                             "best (needs < 0.5)")

    # Figs. 13 and 14: every benchmark gains from 4 GPUs, in one node or four;
    # compute-bound ones nearly linearly in one node.
    for name, n in FIG13_SIZES.items():
        fig13_bound = 2.8 if name in LINEAR else 1.5
        for figure, config, bound in (("fig13", _key(name, n, 1, 4), fig13_bound),
                                      ("fig14", _key(name, n, 4, 1), 1.5)):
            fig = records[figure]
            speedup = fig[config]["throughput"] / fig[_key(name, n)]["throughput"]
            need(speedup > bound, figure, config, f"throughput is {speedup:.3f}x the 1-GPU "
                                                  f"point's (needs > {bound}x)")
    # Spill traffic shares one PCIe bus in a node; one GPU per node has its own.
    fig = records["fig14"]
    shared, private = (_key("kmeans", PCIE_SHARING_N, *shape) for shape in ((1, 4), (4, 1)))
    gain = fig[private]["throughput"] / fig[shared]["throughput"]
    need(gain > 1.15, "fig14", private, f"throughput is {gain:.3f}x the 1x4 GPUs' (needs > 1.15x)")

    # Fig. 16: CUDA beats NumPy on 5 GB, Lightning on one GPU is close to CUDA,
    # only Lightning runs 20 and 80 GB, and 16 GPUs are far ahead of the CPU.
    fig = records["fig16"]
    small = fig["cgc/5GB"]
    need(small["cuda"] is not None, "fig16", "cgc/5GB", "cuda ran out of memory (needs a time)")
    if small["cuda"] is not None:
        speedup = small["numpy"] / small["cuda"]
        need(2.0 < speedup < 12.0, "fig16", "cgc/5GB", f"cuda is {speedup:.3f}x faster than "
                                                       "numpy (needs 2x to 12x)")
        overhead = small["lightning_1x1"] / small["cuda"] - 1.0
        need(overhead < 0.25, "fig16", "cgc/5GB", f"lightning_1x1 is {overhead:.1%} slower than "
                                                  "cuda (needs < 25%)")
    for label in ("cgc/20GB", "cgc/80GB"):
        need(fig[label]["cuda"] is None, "fig16", label,
             "cuda ran on one GPU (needs out of memory)")
        for nodes, gpus in FIG16_SHAPES[1:]:
            field = f"lightning_{nodes}x{gpus}"
            need(fig[label][field] > 0, "fig16", label, f"{field} is {fig[label][field]!r}")
    big = fig["cgc/80GB"]
    speedup = big["numpy"] / big["lightning_4x4"]
    need(speedup > 15.0, "fig16", "cgc/80GB", f"lightning_4x4 is {speedup:.2f}x faster than numpy "
                                              "(needs > 15x)")
    need(big["lightning_4x4"] <= 1.05 * big["lightning_1x4"], "fig16", "cgc/80GB",
         f"lightning_4x4 is {big['lightning_4x4'] / big['lightning_1x4']:.3f}x lightning_1x4's "
         "time (needs <= 1.05x)")

    # Sec. 4.3: the correlator loses little past GPU memory; Black-Scholes at
    # kernel speed needs over ten times the PCIe bandwidth there is.
    fig = records["sec4.3"]
    fits, spills = (_key("correlator", n) for n in (CORRELATOR_FITS, CORRELATOR_SPILLS))
    drop = 1.0 - fig[spills]["throughput"] / fig[fits]["throughput"]
    need(drop < 0.30, "sec4.3", spills, f"throughput is {drop:.1%} below the in-memory size's "
                                        "(needs < 30%)")
    bs = fig[f"black_scholes/n{PCIE_BS_N}/pcie"]
    need(bs["required_bandwidth"] > 10 * bs["pcie_bandwidth"], "sec4.3",
         f"black_scholes/n{PCIE_BS_N}/pcie", f"required_bandwidth is "
         f"{bs['required_bandwidth'] / bs['pcie_bandwidth']:.2f}x pcie_bandwidth (needs > 10x)")

    # Ablations: a tiny staging threshold serialises staging and execution; a
    # barrier after every launch removes the overlap.
    fig = records["ablations"]
    tiny, default = (_key("kmeans", ABLATION_N, stage_threshold=t) for t in (64 * MB, 2 * GB))
    need(fig[tiny]["elapsed"] > fig[default]["elapsed"], "ablations", tiny,
         f"elapsed {fig[tiny]['elapsed']!r} is not above the 2 GiB threshold's "
         f"{fig[default]['elapsed']!r}")
    overlapped, barrier = (_key("hotspot", BARRIER_N, 1, 4, **extra)
                           for extra in ({}, {"barrier": True}))
    need(fig[barrier]["elapsed"] >= fig[overlapped]["elapsed"], "ablations", barrier,
         f"elapsed {fig[barrier]['elapsed']!r} is below the asynchronous run's "
         f"{fig[overlapped]['elapsed']!r}")
    return failures


def paper_full(base):
    """Fig. 15: weak scaling to 32 GPUs, the problem growing with the GPU count."""
    del base
    records = {"fig15": dict(_point({}, name, per_gpu * gpus, gpus // per_node, per_node)
                             for name, per_gpu in FIG15_SIZES.items()
                             for gpus, per_node in FIG15_SHAPES)}
    return records, fig15_checks(records)


def fig15_checks(records):
    """Weak-scaling efficiency t(1 GPU) / t(32 GPUs) above 0.7 for the
    communication-light benchmarks, and GEMM's below K-Means'."""
    fig, failures = records["fig15"], []

    def efficiency(name):
        gpus, per_node = FIG15_SHAPES[-1]
        config = _key(name, FIG15_SIZES[name] * gpus, gpus // per_node, per_node)
        return config, fig[_key(name, FIG15_SIZES[name])]["elapsed"] / fig[config]["elapsed"]

    for name in WEAK_SCALERS:
        config, value = efficiency(name)
        if not value > 0.7:
            failures.append(f"paper_full/fig15/{config}: elapsed gives a weak-scaling efficiency "
                            f"of {value:.3f} (needs > 0.7)")
    config, _ = efficiency("black_scholes")
    if not fig[config]["elapsed"] > 0:
        failures.append(f"paper_full/fig15/{config}: elapsed is {fig[config]['elapsed']!r}")
    (config, gemm), (_, kmeans) = efficiency("gemm"), efficiency("kmeans")
    if not gemm < kmeans:
        failures.append(f"paper_full/fig15/{config}: elapsed gives a weak-scaling efficiency of "
                        f"{gemm:.3f}, not below K-Means' {kmeans:.3f}")
    return failures


# --------------------------------------------------------------------------- #
# the harness
# --------------------------------------------------------------------------- #
GATES = {gate.__name__: gate for gate in (hotpath, engine, expr, disk, faults, serving,
                                          plan_cache, paper, hotpath_full, paper_full)}
SUITES = {"smoke": [name for name in GATES if not name.endswith("_full")], "full": list(GATES)}


def _exact(value):
    """``value`` with every float replaced by its hex form."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: _exact(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_exact(item) for item in value]
    return value


def compare(gate, records, base):
    """Every field that differs from the baseline; a missing record differs in all fields."""
    failures = []
    for arm in sorted(set(records) | set(base)):
        ours, theirs = records.get(arm, {}), base.get(arm, {})
        for config in sorted(set(ours) | set(theirs)):
            mine, ref = ours.get(config, {}), theirs.get(config, {})
            for field in sorted((set(mine) | set(ref)) - set(MEASURED)):
                value, expected = mine.get(field, "<missing>"), ref.get(field, "<missing>")
                if _exact(value) != _exact(expected):
                    failures.append(f"{gate}/{arm}/{config}: {field} {value!r} != baseline "
                                    f"{expected!r}")
    return failures


def check(names, baseline, refresh=False):
    """Run the named gates; returns ``({gate: result}, failures)``.

    Unless ``refresh``, each gate's records are also compared with its
    ``baseline`` entry.
    """
    results, failures = {}, []
    for name in names:
        base = baseline.get(name, {})
        start = time.perf_counter()
        try:
            records, found = GATES[name](base)
        except Exception as exc:  # report it with the other gates' results
            traceback.print_exc()
            records, found = {}, [f"{name}: raised {type(exc).__name__}: {exc}"]
        wall = time.perf_counter() - start
        records = json.loads(json.dumps(records))  # the baseline's types: str keys, lists
        if not refresh:
            found += compare(name, records, base)
        results[name] = {"wall_s": round(wall, 1), "records": records, "failures": found}
        failures += found
        print(f"{name}: {len(found)} failures in {wall:.1f} s", file=sys.stderr)
    return results, failures


def summary_table(results):
    """One markdown table: per gate, its wall time, record count and result."""
    lines = ["## Gates (`benchmarks/gates.py`)", "",
             "| gate | wall s | records | result |", "|---|---:|---:|---|"]
    for name, result in results.items():
        count = sum(len(configs) for configs in result["records"].values())
        status = f"❌ {len(result['failures'])} failures" if result["failures"] else "✅ ok"
        lines.append(f"| {name} | {result['wall_s']} | {count} | {status} |")
    lines.append("")
    for result in results.values():
        lines += [f"- {failure}" for failure in result["failures"]]
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--suite", choices=sorted(SUITES), default="smoke",
                        help="the gates to run when none are named (default: smoke)")
    parser.add_argument("--refresh", action="store_true",
                        help="write this run's records into the baseline instead of "
                             "comparing them")
    parser.add_argument("gates", nargs="*", metavar="GATE", help=f"one of {', '.join(GATES)}")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.gates) - set(GATES))
    if unknown:
        parser.error(f"unknown gates {unknown}; known: {', '.join(GATES)}")
    with open(BASELINE, encoding="utf-8") as handle:
        baseline = json.load(handle)
    results, failures = check(args.gates or SUITES[args.suite], baseline, args.refresh)
    write_json(RESULT, {"python": sys.version.split()[0], "gates": results,
                        "failures": failures})
    table = summary_table(results)
    print(table)
    if os.environ.get("GITHUB_STEP_SUMMARY"):
        with open(os.environ["GITHUB_STEP_SUMMARY"], "a", encoding="utf-8") as handle:
            handle.write(table)
    if args.refresh:
        baseline.update((name, result["records"]) for name, result in results.items())
        write_json(BASELINE, baseline)
    for failure in failures:
        print(f"GATE FAILURE: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
