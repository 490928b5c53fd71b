"""Multi-tenant serving benchmark: concurrent jobs on one simulated cluster.

Replays a seeded Poisson arrival trace of mixed hotspot3 / kmeans2 / cgc
jobs over four tenants sharing one simulated 2-node x 2-GPU cluster
(:mod:`repro.runtime.serving`), under two arms:

``concurrent``
    The serving scheduler proper: one job in flight per tenant, admission in
    weighted fair-share order, per-tenant memory quotas.

``serialized``
    The same trace with ``max_active=1`` — every job runs back-to-back on
    the whole cluster, which is what a single-tenant deployment would do.

Gates (exit non-zero on violation):

* **speedup** — concurrent aggregate throughput must be at least
  ``MIN_SPEEDUP`` (1.5x) the serialized arm's;
* **correctness** — every job's workload must pass ``verify()`` in both
  arms (tenants cannot corrupt each other's results);
* **fair-share sanity** — every tenant that submitted jobs must complete
  them all (no starvation), and per-tenant task counters must balance
  (submitted == completed, outstanding == 0).

``--baseline PATH`` additionally compares against the committed baseline
(``benchmarks/BENCH_serving.json``): per-tenant counters and job latencies
must match *exactly* (the simulation is deterministic), aggregate
throughput must not fall below the baseline's, and p99 latency must not
exceed it.  ``--summary PATH`` (defaulting to ``$GITHUB_STEP_SUMMARY``)
appends a markdown table; the result JSON is always written before any
gate can fail.  To refresh the baseline after intentional scheduling
changes, regenerate it in place with the refresh command in
docs/operations.md
(``python benchmarks/bench_serving.py --output benchmarks/BENCH_serving.json``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import repro.apps  # noqa: E402,F401  (registers the cgc/ensemble workloads)
from repro.hardware.specs import azure_nc24rsv2  # noqa: E402
from repro.runtime.serving import ServingSystem, poisson_trace  # noqa: E402

NODES, GPUS = 2, 2
TENANTS = 4
#: seed chosen so the 20-job trace spreads load evenly over the four
#: tenants (each tenant serves at most one job at a time, so the longest
#: per-tenant chain bounds the concurrent arm's makespan)
SEED = 124
NJOBS = 20
RATE = 600.0
#: jobs sized so one job cannot saturate the whole cluster on its own —
#: that headroom is exactly what multi-tenant serving converts into speedup
MIX = [
    ("hotspot3", 1024 * 1024, {"iterations": 8}),
    ("kmeans2", 400_000, {"quantize": True, "iterations": 6}),
    ("cgc", 160 * 160, {"iterations": 2}),
]
MIN_SPEEDUP = 1.5


def _run_arm(max_active):
    serving = ServingSystem(
        cluster=azure_nc24rsv2(nodes=NODES, gpus_per_node=GPUS),
        max_active=max_active,
    )
    for tenant in range(TENANTS):
        serving.add_tenant(f"tenant-{tenant}", memory_fraction=0.5)
    serving.submit_trace(poisson_trace(SEED, NJOBS, RATE, TENANTS, mix=MIX))
    report = serving.run()
    record = report.to_dict()
    record["verified"] = all(job.workload.verify() for job in report.jobs)
    return record


def _fairness_failures(label, record):
    failures = []
    if not record["verified"]:
        failures.append(f"{label}: a job failed result verification")
    if record["jobs_completed"] != NJOBS:
        failures.append(
            f"{label}: {record['jobs_completed']} of {NJOBS} jobs completed")
    for tenant, counters in record["tenant_counters"].items():
        if counters["outstanding"] != 0:
            failures.append(
                f"{label}: tenant {tenant} left {counters['outstanding']} "
                f"tasks outstanding")
        if counters["tasks_submitted"] != counters["tasks_completed"]:
            failures.append(
                f"{label}: tenant {tenant} submitted "
                f"{counters['tasks_submitted']} tasks but completed "
                f"{counters['tasks_completed']}")
    return failures


# --------------------------------------------------------------------- #
# baseline gate + summary
# --------------------------------------------------------------------- #
#: per-arm fields the baseline gate requires to match exactly
EXACT_FIELDS = ("jobs_completed", "makespan", "latency_p50", "latency_p99",
                "tenant_counters")


def _baseline_failures(results, baseline_path):
    with open(baseline_path, "r", encoding="utf-8") as handle:
        baseline = json.load(handle)
    base = baseline.get("results", {})
    failures = []
    for arm, cur in results.items():
        ref = base.get(arm)
        if ref is None:
            failures.append(f"{arm}: no baseline entry")
            continue
        for field in EXACT_FIELDS:
            if cur[field] != ref[field]:
                failures.append(
                    f"{arm}: {field} {cur[field]!r} != baseline {ref[field]!r}")
        # Relative gates on the headline numbers: throughput floor and p99
        # ceiling vs the committed baseline (the exact gates above make
        # these redundant today; they stay meaningful if the exact fields
        # list ever shrinks).
        if cur["throughput"] < ref["throughput"] * 0.999:
            failures.append(
                f"{arm}: throughput {cur['throughput']:.3f} fell below "
                f"baseline floor {ref['throughput']:.3f}")
        if cur["latency_p99"] > ref["latency_p99"] * 1.001:
            failures.append(
                f"{arm}: p99 latency {cur['latency_p99']:.5f} exceeds "
                f"baseline ceiling {ref['latency_p99']:.5f}")
    return failures


def _write_step_summary(path, results, speedup, status):
    lines = [
        "## Multi-tenant serving (`bench_serving.py`)", "",
        f"{NJOBS} mixed jobs, {TENANTS} tenants, {NODES}x{GPUS} GPUs, "
        f"Poisson seed {SEED} at {RATE:.0f} jobs/s.", "",
        "| arm | jobs | makespan (s) | throughput (jobs/s) | p50 (s) | p99 (s) |",
        "|---|---|---|---|---|---|",
    ]
    for arm, record in results.items():
        lines.append(
            f"| {arm} | {record['jobs_completed']} | {record['makespan']:.4f} "
            f"| {record['throughput']:.2f} | {record['latency_p50']:.4f} "
            f"| {record['latency_p99']:.4f} |")
    lines += [
        "",
        f"Concurrent vs serialized speedup: **{speedup:.2f}x** "
        f"(gate: >= {MIN_SPEEDUP}x) — {status}.",
        "",
        "| tenant | plans | tasks | completed |",
        "|---|---|---|---|",
    ]
    for tenant, counters in sorted(results["concurrent"]["tenant_counters"].items()):
        lines.append(
            f"| {tenant} | {counters['plans_submitted']} "
            f"| {counters['tasks_submitted']} | {counters['tasks_completed']} |")
    lines.append("")
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", default=None,
                        help="compare per-tenant counters, latencies and "
                             "throughput against this committed baseline JSON")
    parser.add_argument("--output", default=None,
                        help="result JSON path (default: "
                             "benchmarks/results/BENCH_serving.json)")
    parser.add_argument("--summary", default=None,
                        help="append a markdown table to this path (defaults "
                             "to $GITHUB_STEP_SUMMARY when set)")
    args = parser.parse_args(argv)
    summary_path = args.summary or os.environ.get("GITHUB_STEP_SUMMARY")

    results = {}
    for arm, max_active in (("concurrent", None), ("serialized", 1)):
        results[arm] = _run_arm(max_active)
        print(f"{arm}: makespan {results[arm]['makespan']:.4f}s, "
              f"throughput {results[arm]['throughput']:.2f} jobs/s, "
              f"p99 {results[arm]['latency_p99']:.4f}s", file=sys.stderr)

    speedup = results["concurrent"]["throughput"] / results["serialized"]["throughput"]
    failures = []
    for arm in results:
        failures.extend(_fairness_failures(arm, results[arm]))
    if speedup < MIN_SPEEDUP:
        failures.append(
            f"concurrent throughput is only {speedup:.2f}x the serialized "
            f"arm (gate: >= {MIN_SPEEDUP}x)")

    payload = {
        "cluster": f"{NODES}x{GPUS}",
        "tenants": TENANTS,
        "trace": {"seed": SEED, "njobs": NJOBS, "rate": RATE},
        "mix": [[name, n, params] for name, n, params in MIX],
        "speedup": speedup,
        "python": sys.version.split()[0],
        "results": results,
    }
    out = args.output or os.path.join(os.path.dirname(__file__), "results",
                                      "BENCH_serving.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    print(f"results written to {out}", file=sys.stderr)

    if summary_path:
        _write_step_summary(summary_path, results, speedup,
                            "ok" if speedup >= MIN_SPEEDUP else "FAILED")
    for failure in failures:
        print(f"SERVING GATE FAILURE: {failure}", file=sys.stderr)
    if failures:
        return 1
    print(f"serving gates ok (speedup {speedup:.2f}x)", file=sys.stderr)
    if args.baseline:
        baseline_failures = _baseline_failures(results, args.baseline)
        for failure in baseline_failures:
            print(f"BASELINE FAILURE: {failure}", file=sys.stderr)
        if baseline_failures:
            return 1
        print("baseline check ok (2 arms)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
