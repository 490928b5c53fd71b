"""Simulator hot-path perf harness: the repo's wall-clock trajectory.

Runs the Fig. 15 weak-scaling sweep (HotSpot and K-Means, simulate mode) plus
a spilling-stress configuration, and records *wall-clock* metrics — the time
the simulator itself needs, not the virtual time it predicts:

* wall seconds, engine events processed/cancelled, events per wall second,
* peak RSS of the process,
* the run's virtual time (so perf work can prove it didn't change results).

Every configuration runs the as-checked-out implementation (the ``current``
arm).  A before/after comparison of a change is perfbench's recipe
(``perfbench/README.md``, "Comparing a parent commit and a change"), not an
arm of this script.

One correctness gate runs alongside the measurements: **determinism** — the
same configuration run twice must produce a bit-identical virtual time (no
hidden state leaks between runs).

A launch-window sweep measures the **launch window**: the HotSpot double-stencil
(fusion evidence) and the CGC application (reduce-heavy chains the fusion
pass must leave alone — an overhead-neutrality control) run under four arms
(window, ``no_fusion``, ``no_prefetch``, ``eager``/lookahead-1), recording
the window counters (``launches_fused``, ``transfers_prefetched``,
``window_flushes``) and the plan-cache hit rate; a gate fails the run when
fusion stops reducing engine events and transferred bytes on the
double-stencil configurations.

A chain-fusion sweep measures the window's **chain fusion** on the HotSpot
triple stencil (three launches per iteration) and the two-phase K-Means
assign+reduce split, under chain / pairwise-only / no-fusion arms; a gate
fails the run when chain fusion stops removing at least
:data:`CHAIN_EVENT_RATIO_GATE` engine events versus pairwise-only fusion,
when it is slower than pairwise-only fusion in virtual time on a HotSpot
triple-stencil config, or when functional results stop being bit-identical
with fusion off.

A window-memory sweep measures **window-aware memory planning** on spill-stress
configurations (capped GPU pools): a bench-local out-of-core streaming
pipeline (each window group's working set fits the pool — promotion regime)
and the K-Means spill configuration (working set overflows the pool —
planned pre-eviction only), each under ``window_memory`` on/off arms.  A
gate fails the run when the memory plans stop reducing aggregate
staging-time evictions and stall events, or when a functional streaming run
is no longer bit-identical between the arms.

Results go to ``benchmarks/results/BENCH_hotpath.json``; the committed
baseline lives at ``benchmarks/BENCH_hotpath.json``.  ``--baseline PATH``
compares the current run's deterministic event counts against the baseline
and exits non-zero on a >25% regression (the CI perf smoke step runs
``--quick --baseline benchmarks/BENCH_hotpath.json``).  ``--summary PATH``
(defaulting to ``$GITHUB_STEP_SUMMARY`` when set) appends a per-config
markdown regression table plus the gate results, and the comparison JSON is
written before any gate can fail — a CI failure always ships its own
diagnosis artifact.  To refresh the baseline after intentional perf changes,
run the full sweep and commit the result (see README "Refreshing the perf
baseline").
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

#: (workload, total gpus, gpus per node, problem size, workload params)
#: Problem sizes follow Fig. 15's per-GPU sizes; iteration counts are raised
#: so the steady state (cached plans, busy simulator) dominates cold planning.
QUICK_CONFIGS = [
    ("hotspot", 4, 4, int(5.4e8 * 4), {"iterations": 10}),
    ("kmeans", 4, 4, int(2.7e8 * 4), {"iterations": 8}),
]

#: The full sweep is a superset of the quick one, so a full-run baseline
#: always contains the keys the CI ``--quick --baseline`` smoke step checks.
FULL_CONFIGS = QUICK_CONFIGS + [
    ("hotspot", 4, 4, int(5.4e8 * 4), {"iterations": 40}),
    ("hotspot", 16, 4, int(5.4e8 * 16), {"iterations": 40}),
    ("kmeans", 4, 4, int(2.7e8 * 4), {"iterations": 25}),
    ("kmeans", 16, 4, int(2.7e8 * 16), {"iterations": 25}),
]

#: Spilling stress: K-Means forced to spill by capping every GPU pool well
#: below its ~4.3 GB working set (but above one 400 MB chunk), so the
#: eviction path (LRU index vs full sort) actually runs (Sec. 4.3 territory).
SPILL_GPU_CAPACITY = 1024 ** 3

#: Launch-window feature sweep: the HotSpot double-stencil (whose
#: stencil->apply pairs the fusion pass merges — the fusion evidence) and
#: the CGC co-clustering application, whose reduce-heavy kernel chains are
#: *not* fusable by design: its arms establish that the window is
#: overhead-neutral on long chains of near-identical launches it cannot
#: optimise.  Only the hotspot2 configs feed the fusion gate.
WINDOW_QUICK_CONFIGS = [
    ("hotspot2", 4, 2, int(5.4e8 * 4), {"iterations": 20}),
    ("cgc", 4, 2, 12_000 ** 2, {"iterations": 3}),
]

WINDOW_FULL_CONFIGS = [
    ("hotspot2", 4, 2, int(5.4e8 * 4), {"iterations": 40}),
    ("hotspot2", 16, 4, int(5.4e8 * 16), {"iterations": 40}),
    ("cgc", 4, 2, 25_000 ** 2, {"iterations": 5}),
]

#: arm name -> Context kwargs
WINDOW_ARMS = {
    "window": {},
    "no_fusion": {"fusion": False},
    "no_prefetch": {"prefetch": False},
    "eager": {"lookahead": 1},
}

#: Chain-fusion sweep (PR 5): the HotSpot *triple* stencil (three launches per
#: iteration — the shortest chain pairwise fusion cannot fully merge) and the
#: two-phase K-Means assign+reduce split (a producer feeding a reduction
#: tail, which pairwise fusion cannot merge at all).  Three arms isolate the
#: chain extensions: full chain fusion, the original pairwise-only pass, and
#: no fusion.  The gate requires chain fusion to remove >= 1.3x engine events
#: versus pairwise-only fusion on every config, to be at least as fast as
#: pairwise-only fusion in virtual time on the hotspot3 configs, and
#: bit-identical functional results.
CHAIN_QUICK_CONFIGS = [
    ("hotspot3", 4, 2, int(5.4e8 * 4), {"iterations": 20}),
    ("kmeans2", 4, 2, int(2.7e8 * 4), {"iterations": 8}),
]

CHAIN_FULL_CONFIGS = [
    ("hotspot3", 4, 2, int(5.4e8 * 4), {"iterations": 40}),
    ("hotspot3", 16, 4, int(5.4e8 * 16), {"iterations": 40}),
    ("kmeans2", 4, 2, int(2.7e8 * 4), {"iterations": 25}),
]

#: arm name -> Context kwargs; every arm uses a lookahead covering two full
#: three-launch iterations so chain and pairwise see the same drain groups
CHAIN_ARMS = {
    "chain": {"lookahead": 6},
    "pairwise": {"lookahead": 6, "fusion": "pairwise"},
    "no_fusion": {"lookahead": 6, "fusion": False},
}

#: minimum engine-event ratio chain fusion must achieve vs pairwise fusion
CHAIN_EVENT_RATIO_GATE = 1.3

#: Window-memory spill-stress sweep (PR 4): the same capped-GPU pressure as
#: the spill configuration, measured with window-aware memory planning on and
#: off.  Two regimes:
#:
#: * ``stream`` — a bench-local round-robin pipeline over disjoint batches
#:   (out-of-core streaming): each drained group's working set *fits* the
#:   capped pool while the dataset does not, so planned pre-eviction opens
#:   room and hierarchy-aware prefetch promotions refill it ahead of use.
#: * the K-Means spill configuration — every launch touches the whole points
#:   array (working set *overflows* the pool), so promotion stands down and
#:   only planned pre-eviction engages, moving evictions off the staging
#:   critical path.
WINDOW_MEMORY_ARMS = {
    "window_memory": {},
    "no_window_memory": {"window_memory": False},
}

#: (arrays, rounds, total elems, gpus-per-node) of the streaming config; the
#: 1 GiB GPU cap holds ~5 of the 6 per-GPU batches, and a drained group of 4.
STREAM_CONFIG = (6, 6, 104_857_600, 2)


def _config_key(workload, gpus, per_node, n, params) -> str:
    extra = ",".join(f"{k}={v}" for k, v in sorted(params.items()))
    return f"{workload}/g{gpus}x{per_node}/n{n}/{extra}"


def _spill_configs(quick: bool):
    # Same config in quick and full mode, so the committed full-run baseline
    # covers the spill key the CI quick run checks.
    del quick
    return [("kmeans", 2, 2, int(2.7e8 * 2), {"iterations": 12, "_spill": True})]


def _make_context(total_gpus, per_node, params, mode="simulate", context_kwargs=None):
    from repro.bench import make_context
    from repro.hardware import DeviceId

    nodes = total_gpus // per_node
    kwargs = dict(context_kwargs or {})
    if params.get("_spill"):
        capacities = {}
        for node in range(nodes):
            for local in range(per_node):
                capacities[DeviceId(node, local).memory_space] = SPILL_GPU_CAPACITY
        kwargs["memory_capacities"] = capacities
    return make_context(nodes, per_node, mode=mode, **kwargs)


def _reset_peak_rss() -> None:
    """Reset the kernel's per-process RSS high-water mark (Linux only)."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
    except OSError:
        pass


def _peak_rss_kb() -> int:
    """VmHWM since the last reset; falls back to the process-lifetime max."""
    try:
        with open("/proc/self/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _run_one(workload, total_gpus, per_node, n, params, mode="simulate",
             context_kwargs=None):
    """Run one configuration once; returns the measured metrics dict."""
    from repro.kernels import create_workload

    ctx = _make_context(total_gpus, per_node, params, mode=mode,
                        context_kwargs=context_kwargs)
    workload_params = {k: v for k, v in params.items() if not k.startswith("_")}
    instance = create_workload(workload, ctx, n, **workload_params)
    _reset_peak_rss()
    start = time.perf_counter()
    instance.run()
    wall = time.perf_counter() - start
    engine = ctx.runtime.engine
    metrics = {
        "wall_seconds": wall,
        "virtual_time": engine.now,
        "events_processed": engine.events_processed,
        "events_per_second": engine.events_processed / wall if wall > 0 else 0.0,
        "peak_rss_kb": _peak_rss_kb(),
        "events_cancelled": engine.events_cancelled,
    }
    stats = ctx.stats()
    metrics["evictions"] = sum(
        m.evictions_to_host + m.evictions_to_disk for m in stats.memory.values()
    )
    for counter in ("launches_fused", "launches_fused_chain", "fused_chain_max_len",
                    "reductions_fused", "transfers_prefetched", "window_flushes",
                    "network_bytes", "chunks_preevicted", "prefetch_promotions",
                    "staging_stalls", "staging_stalls_avoided"):
        metrics[counter] = getattr(stats, counter)
    metrics["staging_evictions"] = sum(m.staging_evictions for m in stats.memory.values())
    metrics["plan_cache_hit_rate"] = ctx.planner.cache.hit_rate
    return metrics


def _run_arm(configs):
    """Measure every configuration once with whatever repro is importable."""
    results = {}
    for workload, gpus, per_node, n, params in configs:
        key = _config_key(workload, gpus, per_node, n, params)
        results[key] = _run_one(workload, gpus, per_node, n, params)
        print(f"  {key}: {results[key]['wall_seconds']:.2f}s, "
              f"{results[key]['events_processed']} events", file=sys.stderr)
    return results


def _run_window_arms(quick: bool) -> dict:
    """Measure the launch-window feature arms (fusion/prefetch on-off).

    Returns ``{"results": {arm: {config: metrics}}, "summary": {...}}``; the
    summary records, per config, how many engine events and transferred bytes
    fusion removes versus the ``no_fusion`` arm — the committed evidence that
    the fusion pass fires and pays for itself.
    """
    import repro.apps  # noqa: F401  (registers the cgc workload)

    configs = WINDOW_QUICK_CONFIGS if quick else WINDOW_FULL_CONFIGS
    results: dict = {}
    for arm, context_kwargs in WINDOW_ARMS.items():
        print(f"arm: launch-window/{arm}", file=sys.stderr)
        arm_results = {}
        for workload, gpus, per_node, n, params in configs:
            key = _config_key(workload, gpus, per_node, n, params)
            arm_results[key] = _run_one(
                workload, gpus, per_node, n, params, context_kwargs=context_kwargs
            )
            print(f"  {key}: {arm_results[key]['wall_seconds']:.2f}s, "
                  f"{arm_results[key]['events_processed']} events, "
                  f"{arm_results[key].get('launches_fused', 0)} fused, "
                  f"{arm_results[key].get('transfers_prefetched', 0)} prefetched",
                  file=sys.stderr)
        results[arm] = arm_results

    summary: dict = {}
    for key in results["window"]:
        fused = results["window"][key]
        unfused = results["no_fusion"][key]
        summary[key] = {
            "launches_fused": fused.get("launches_fused", 0),
            "event_ratio_vs_no_fusion":
                unfused["events_processed"] / max(fused["events_processed"], 1),
            "network_bytes_ratio_vs_no_fusion":
                unfused.get("network_bytes", 0.0)
                / max(fused.get("network_bytes", 0.0), 1.0),
            "virtual_time_ratio_vs_no_fusion":
                unfused["virtual_time"] / max(fused["virtual_time"], 1e-12),
            "plan_cache_hit_rate": fused.get("plan_cache_hit_rate", 0.0),
        }
    return {"results": results, "summary": summary}


def _run_chain_arms(quick: bool) -> dict:
    """Measure the chain-fusion sweep: chain vs pairwise vs no fusion.

    Returns ``{"results", "summary", "checks"}``; the summary records, per
    config, how many engine events chain fusion removes versus *pairwise-only*
    fusion (the PR-3 pass) and versus no fusion, plus the chain counters —
    the committed evidence that fusing >2-launch runs and reductions pays
    beyond the pairwise case.  The checks record functional bit-identity of
    small chain-workload runs under the chain and no-fusion arms.
    """
    import numpy as np

    from repro.kernels import create_workload

    configs = CHAIN_QUICK_CONFIGS if quick else CHAIN_FULL_CONFIGS
    results: dict = {}
    for arm, context_kwargs in CHAIN_ARMS.items():
        print(f"arm: chain-fusion/{arm}", file=sys.stderr)
        arm_results = {}
        for workload, gpus, per_node, n, params in configs:
            key = _config_key(workload, gpus, per_node, n, params)
            arm_results[key] = _run_one(
                workload, gpus, per_node, n, params, context_kwargs=context_kwargs
            )
            print(f"  {key}: {arm_results[key]['wall_seconds']:.2f}s, "
                  f"{arm_results[key]['events_processed']} events, "
                  f"{arm_results[key].get('launches_fused', 0)} fused "
                  f"({arm_results[key].get('launches_fused_chain', 0)} in chains, "
                  f"{arm_results[key].get('reductions_fused', 0)} reductions)",
                  file=sys.stderr)
        results[arm] = arm_results

    summary: dict = {}
    for key in results["chain"]:
        chain = results["chain"][key]
        pairwise = results["pairwise"][key]
        unfused = results["no_fusion"][key]
        summary[key] = {
            "launches_fused": chain.get("launches_fused", 0),
            "launches_fused_chain": chain.get("launches_fused_chain", 0),
            "fused_chain_max_len": chain.get("fused_chain_max_len", 0),
            "reductions_fused": chain.get("reductions_fused", 0),
            "event_ratio_vs_pairwise":
                pairwise["events_processed"] / max(chain["events_processed"], 1),
            "event_ratio_vs_no_fusion":
                unfused["events_processed"] / max(chain["events_processed"], 1),
            "network_bytes_ratio_vs_no_fusion":
                unfused.get("network_bytes", 0.0)
                / max(chain.get("network_bytes", 0.0), 1.0),
            "virtual_time_ratio_vs_pairwise":
                pairwise["virtual_time"] / max(chain["virtual_time"], 1e-12),
            "plan_cache_hit_rate": chain.get("plan_cache_hit_rate", 0.0),
        }

    # Functional bit-identity: small chain-workload runs must produce exactly
    # the same results with chain fusion on and off (reduction tails
    # included — the in-task combine order mirrors the unfused ReduceTask
    # chain), and pass their NumPy-reference verification.
    identical = True
    for name, n, params in (
        ("hotspot3", 64 * 64, dict(chunk_elems=64 * 32, iterations=4, seed=3)),
        ("kmeans2", 40_960, dict(iterations=6, seed=0, chunk_elems=10_240)),
    ):
        finals = {}
        for arm in ("chain", "no_fusion"):
            ctx = _make_context(2, 2, {}, mode="functional",
                                context_kwargs=CHAIN_ARMS[arm])
            workload = create_workload(name, ctx, n, **params)
            workload.run()
            final = (ctx.gather(workload.centroids) if name == "kmeans2"
                     else ctx.gather(workload._final))
            identical = identical and bool(workload.verify())
            finals[arm] = final
        identical = identical and bool(
            np.array_equal(finals["chain"], finals["no_fusion"])
        )
    checks = {"functional_results_bit_identical": bool(identical)}
    return {"results": results, "summary": summary, "checks": checks}


def _run_stream_once(mode="simulate", context_kwargs=None, arrays=None,
                     rounds=None, elems=None, gpus=None, cap_bytes=None):
    """One run of the bench-local out-of-core streaming pipeline.

    Round-robin update passes over ``arrays`` disjoint batches with every GPU
    pool capped at :data:`SPILL_GPU_CAPACITY`: the dataset spills, each
    4-launch window group fits — the regime hierarchy-aware prefetch targets.
    Returns the same metrics dict as :func:`_run_one` (plus the gathered
    results in functional mode, for the bit-identity gate).
    """
    import numpy as np

    from repro import BlockDist, BlockWorkDist, Context, KernelCost, KernelDef
    from repro.hardware import DeviceId, azure_nc24rsv2

    cfg_arrays, cfg_rounds, cfg_elems, cfg_gpus = STREAM_CONFIG
    arrays = arrays or cfg_arrays
    rounds = rounds or cfg_rounds
    elems = elems or cfg_elems
    gpus = gpus or cfg_gpus
    capacities = {
        DeviceId(0, local).memory_space: cap_bytes or SPILL_GPU_CAPACITY
        for local in range(gpus)
    }
    ctx = Context(azure_nc24rsv2(nodes=1, gpus_per_node=gpus), mode=mode,
                  memory_capacities=capacities, **dict(context_kwargs or {}))

    def body(lc, n, data):
        i = lc.global_indices(0)
        i = i[i < n]
        data.scatter(i, (data.gather(i) * 1.5 + 1.0).astype(np.float32))

    kernel = (
        KernelDef("stream_update", func=body)
        .param_value("n", "int64")
        .param_array("data", "float32")
        .annotate("global i => readwrite data[i]")
        .with_cost(KernelCost(flops_per_thread=80.0, bytes_per_thread=8.0))
        .compile(ctx)
    )
    chunk = elems // gpus
    assert chunk % 256 == 0, "chunks must stay on thread-block boundaries"
    if mode == "functional":
        rng = np.random.RandomState(0)
        batches = [
            ctx.from_numpy(rng.rand(elems).astype(np.float32),
                           BlockDist(chunk), name=f"batch{j}")
            for j in range(arrays)
        ]
    else:
        batches = [ctx.zeros(elems, BlockDist(chunk), name=f"batch{j}")
                   for j in range(arrays)]
    ctx.synchronize()
    _reset_peak_rss()
    start = time.perf_counter()
    for _ in range(rounds):
        for j in range(arrays):
            kernel.launch(elems, 256, BlockWorkDist(chunk), (elems, batches[j]))
    ctx.synchronize()
    wall = time.perf_counter() - start
    engine = ctx.runtime.engine
    stats = ctx.stats()
    metrics = {
        "wall_seconds": wall,
        "virtual_time": engine.now,
        "events_processed": engine.events_processed,
        "events_per_second": engine.events_processed / wall if wall > 0 else 0.0,
        "peak_rss_kb": _peak_rss_kb(),
        "evictions": sum(m.evictions_to_host + m.evictions_to_disk
                         for m in stats.memory.values()),
        "staging_evictions": sum(m.staging_evictions for m in stats.memory.values()),
        "chunks_preevicted": stats.chunks_preevicted,
        "prefetch_promotions": stats.prefetch_promotions,
        "staging_stalls": stats.staging_stalls,
        "staging_stalls_avoided": stats.staging_stalls_avoided,
    }
    if mode == "functional":
        metrics["_gathered"] = [ctx.gather(b) for b in batches]
    return metrics


def _run_window_memory_arms(quick: bool) -> dict:
    """Measure the spill-stress sweep with window memory planning on and off.

    Returns ``{"results", "summary", "checks"}``; the summary records, per
    configuration and in total, how many staging-time evictions and stall
    events the memory plan removes versus the ``no_window_memory`` arm — the
    committed evidence for the PR-4 acceptance criteria — and the checks
    record functional bit-identity of a streaming run under both arms.
    """
    import numpy as np

    arrays, rounds, elems, gpus = STREAM_CONFIG
    stream_key = _config_key("stream", gpus, gpus, elems,
                             {"arrays": arrays, "rounds": rounds})
    spill_configs = _spill_configs(quick)
    results: dict = {}
    for arm, context_kwargs in WINDOW_MEMORY_ARMS.items():
        print(f"arm: window-memory/{arm}", file=sys.stderr)
        arm_results = {stream_key: _run_stream_once(context_kwargs=context_kwargs)}
        for workload, gpu_count, per_node, n, params in spill_configs:
            key = _config_key(workload, gpu_count, per_node, n, params)
            arm_results[key] = _run_one(
                workload, gpu_count, per_node, n, params,
                context_kwargs=context_kwargs,
            )
        for key, metrics in arm_results.items():
            print(f"  {key}: {metrics['staging_evictions']} staging evictions, "
                  f"{metrics['staging_stalls']} stalls, "
                  f"{metrics.get('chunks_preevicted', 0)} pre-evicted, "
                  f"{metrics.get('prefetch_promotions', 0)} promotions",
                  file=sys.stderr)
        results[arm] = arm_results

    summary: dict = {}
    totals = {"on": {"staging_evictions": 0, "staging_stalls": 0},
              "off": {"staging_evictions": 0, "staging_stalls": 0}}
    for key in results["window_memory"]:
        on = results["window_memory"][key]
        off = results["no_window_memory"][key]
        summary[key] = {
            "staging_evictions_on": on["staging_evictions"],
            "staging_evictions_off": off["staging_evictions"],
            "staging_stalls_on": on["staging_stalls"],
            "staging_stalls_off": off["staging_stalls"],
            "chunks_preevicted": on["chunks_preevicted"],
            "prefetch_promotions": on["prefetch_promotions"],
            "staging_stalls_avoided": on["staging_stalls_avoided"],
            "virtual_time_ratio_vs_off":
                off["virtual_time"] / max(on["virtual_time"], 1e-12),
        }
        for metric in ("staging_evictions", "staging_stalls"):
            totals["on"][metric] += on[metric]
            totals["off"][metric] += off[metric]
    summary["total"] = {
        "staging_evictions_ratio_vs_off":
            totals["off"]["staging_evictions"] / max(totals["on"]["staging_evictions"], 1),
        "staging_stalls_ratio_vs_off":
            totals["off"]["staging_stalls"] / max(totals["on"]["staging_stalls"], 1),
    }

    # Functional bit-identity of the streaming pipeline under both arms
    # (tiny problem, still spilling: the gate is about results under the
    # reserve/promotion machinery, not throughput).
    tiny = dict(arrays=6, rounds=3, elems=256 * 4096 * 2, gpus=2,
                cap_bytes=20 * 1024 ** 2)
    on_run = _run_stream_once(mode="functional",
                              context_kwargs=WINDOW_MEMORY_ARMS["window_memory"], **tiny)
    off_run = _run_stream_once(mode="functional",
                               context_kwargs=WINDOW_MEMORY_ARMS["no_window_memory"], **tiny)
    identical = all(
        np.array_equal(a, b)
        for a, b in zip(on_run.pop("_gathered"), off_run.pop("_gathered"))
    )
    checks = {"functional_results_bit_identical": bool(identical)}
    return {"results": results, "summary": summary, "checks": checks}


def _correctness_checks():
    """Determinism: the same configuration run twice, bit-identical."""
    first = _run_one("kmeans", 2, 2, 40_960, {"iterations": 12, "seed": 0})
    second = _run_one("kmeans", 2, 2, 40_960, {"iterations": 12, "seed": 0})
    return {
        "determinism_virtual_time": first["virtual_time"],
        "determinism_bit_identical": (
            first["virtual_time"].hex() == second["virtual_time"].hex()
        ),
    }


def _baseline_rows(results: dict, baseline_path: str, tolerance: float = 0.25):
    """Per-config comparison rows against the committed baseline.

    Returns ``(rows, failures)``; each row is ``(config, events, baseline
    events, delta fraction or None, status)``.  Configs absent from the
    baseline are reported as ``new`` (they fail nothing — the baseline is
    refreshed by committing a full run, see README).
    """
    with open(baseline_path, "r", encoding="utf-8") as handle:
        baseline = json.load(handle)
    base = baseline.get("results", {}).get("current", {})
    rows, failures = [], []
    for key, metrics in sorted(results["current"].items()):
        events = metrics["events_processed"]
        if key not in base:
            rows.append((key, events, None, None, "new"))
            continue
        base_events = base[key]["events_processed"]
        delta = events / base_events - 1.0 if base_events else 0.0
        status = "ok" if events <= base_events * (1.0 + tolerance) else "REGRESSION"
        rows.append((key, events, base_events, delta, status))
        if status != "ok":
            failures.append(
                f"{key}: events {events} > baseline {base_events} +{tolerance:.0%}"
            )
    return rows, failures


def _check_baseline(results: dict, baseline_path: str, tolerance: float = 0.25) -> int:
    rows, failures = _baseline_rows(results, baseline_path, tolerance)
    if failures:
        print("PERF REGRESSION (events processed):", file=sys.stderr)
        for line in failures:
            print("  " + line, file=sys.stderr)
        return 1
    print(f"baseline check ok ({len(rows)} configs)", file=sys.stderr)
    return 0


def _write_step_summary(path: str, results: dict, checks: dict,
                        baseline_path=None, tolerance: float = 0.25) -> None:
    """Append the per-config regression table and gate results to ``path``.

    ``path`` is typically ``$GITHUB_STEP_SUMMARY``: the table shows up on the
    workflow run page even when the perf smoke step fails, so a baseline
    drift is diagnosable without re-running anything locally.
    """
    lines = ["## Hot-path perf smoke", ""]
    if baseline_path and os.path.exists(baseline_path):
        lines += [
            f"Events vs committed baseline `{baseline_path}` "
            f"(gate: +{tolerance:.0%}):",
            "",
            "| config | events | baseline | delta | status |",
            "|---|---:|---:|---:|---|",
        ]
        rows, _ = _baseline_rows(results, baseline_path, tolerance)
        for key, events, base_events, delta, status in rows:
            base_cell = f"{base_events}" if base_events is not None else "—"
            delta_cell = f"{delta:+.1%}" if delta is not None else "—"
            mark = {"ok": "✅ ok", "new": "🆕 new"}.get(status, "❌ regression")
            lines.append(f"| `{key}` | {events} | {base_cell} | {delta_cell} | {mark} |")
    else:
        lines += ["_No baseline supplied; raw event counts only._", "",
                  "| config | events |", "|---|---:|"]
        for key, metrics in sorted(results["current"].items()):
            lines.append(f"| `{key}` | {metrics['events_processed']} |")
    lines += ["", "| gate | result |", "|---|---|"]
    for name, value in sorted(checks.items()):
        if isinstance(value, bool):
            lines.append(f"| {name} | {'✅ pass' if value else '❌ fail'} |")
    lines.append("")
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("\n".join(lines))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small configs for the CI perf smoke step")
    parser.add_argument("--output", default=None,
                        help="result JSON path (default benchmarks/results/BENCH_hotpath.json)")
    parser.add_argument("--baseline", default=None,
                        help="compare event counts against this committed baseline JSON")
    parser.add_argument("--summary", default=None, metavar="PATH",
                        help="append a markdown regression table to PATH "
                             "(defaults to $GITHUB_STEP_SUMMARY when set)")
    args = parser.parse_args(argv)
    summary_path = args.summary or os.environ.get("GITHUB_STEP_SUMMARY")

    configs = list(QUICK_CONFIGS if args.quick else FULL_CONFIGS)
    configs += _spill_configs(args.quick)

    results = {}
    print("arm: current", file=sys.stderr)
    results["current"] = _run_arm(configs)

    checks = _correctness_checks()
    window = _run_window_arms(args.quick)
    chain = _run_chain_arms(args.quick)
    window_memory = _run_window_memory_arms(args.quick)
    # The fusion pass must demonstrably fire on the double-stencil sweep:
    # events and transferred bytes drop versus the no-fusion arm, and the
    # plan-template cache keeps serving the windowed launches.
    checks["window_fusion_effective"] = all(
        s["launches_fused"] > 0
        and s["event_ratio_vs_no_fusion"] > 1.0
        and s["network_bytes_ratio_vs_no_fusion"] > 1.0
        and s["plan_cache_hit_rate"] > 0.9
        for key, s in window["summary"].items()
        if key.startswith("hotspot2/")
    )
    # Chain fusion must demonstrably pay beyond the pairwise pass: on every
    # chain-sweep config it removes >= 1.3x engine events versus
    # pairwise-only fusion (and still beats no-fusion on events and bytes),
    # with functionally bit-identical results.  On the hotspot3 configs it
    # must also be at least as fast as pairwise fusion in virtual time
    # (kmeans2's ratio is recorded but not gated).
    checks["chain_fusion_effective"] = (
        chain["checks"]["functional_results_bit_identical"]
        and all(
            s["launches_fused"] > 0
            and s["event_ratio_vs_pairwise"] >= CHAIN_EVENT_RATIO_GATE
            and s["event_ratio_vs_no_fusion"] > 1.0
            and s["network_bytes_ratio_vs_no_fusion"] > 1.0
            and s["plan_cache_hit_rate"] > 0.9
            and (not key.startswith("hotspot3/")
                 or s["virtual_time_ratio_vs_pairwise"] >= 1.0)
            for key, s in chain["summary"].items()
        )
    )
    # Window-aware memory planning must demonstrably pay off on the
    # spill-stress sweep: staging-time evictions and stall events drop in
    # aggregate versus the no-window-memory arm, with bit-identical results.
    checks["window_memory_effective"] = (
        window_memory["checks"]["functional_results_bit_identical"]
        and window_memory["summary"]["total"]["staging_evictions_ratio_vs_off"] > 1.0
        and window_memory["summary"]["total"]["staging_stalls_ratio_vs_off"] > 1.0
    )
    payload = {
        "benchmark": "hotpath",
        "quick": args.quick,
        "sweep": ("fig15-weak-scaling + spill-stress + launch-window "
                  "+ chain-fusion + window-memory"),
        "results": results,
        "checks": checks,
        "launch_window": window,
        "chain_fusion": chain,
        "window_memory": window_memory,
    }

    from repro.bench import write_json
    from repro.bench.harness import RESULTS_DIR

    output = write_json(
        args.output or os.path.join(RESULTS_DIR, "BENCH_hotpath.json"), payload
    )
    print(f"wrote {output}")
    print(json.dumps(window["summary"], indent=2, sort_keys=True))
    print(json.dumps(chain["summary"], indent=2, sort_keys=True))
    print(json.dumps(window_memory["summary"], indent=2, sort_keys=True))
    # The comparison JSON is always written (above) and the step summary is
    # always appended before any gate can fail, so a CI failure ships its own
    # diagnosis artifact.
    if summary_path:
        _write_step_summary(summary_path, results, checks,
                            baseline_path=args.baseline)
    if not checks["determinism_bit_identical"]:
        print("FAIL: repeated run virtual time not bit-identical", file=sys.stderr)
        return 1
    if not checks["window_fusion_effective"]:
        print("FAIL: fusion did not reduce events/bytes on the double-stencil sweep",
              file=sys.stderr)
        return 1
    if not checks["chain_fusion_effective"]:
        print(f"FAIL: chain fusion below the {CHAIN_EVENT_RATIO_GATE}x event gate vs "
              "pairwise fusion on the chain sweep, slower than pairwise fusion "
              "on a hotspot3 config (or broke bit-identity)",
              file=sys.stderr)
        return 1
    if not checks["window_memory_effective"]:
        print("FAIL: window memory planning did not reduce staging evictions/stalls "
              "on the spill-stress sweep (or broke bit-identity)", file=sys.stderr)
        return 1
    if args.baseline:
        return _check_baseline(results, args.baseline)
    return 0


if __name__ == "__main__":
    sys.exit(main())
