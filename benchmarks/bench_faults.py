"""Chaos sweep: fault injection + recovery must not change results.

Runs two functional-mode workloads (the HotSpot triple stencil and two-phase
K-Means with quantized inputs) under four arms each:

``fault_free``
    No injector installed — the reference results and the virtual time the
    chaos arms' fault schedule is derived from.

``transient``
    1% transient transfer-failure probability on every fault-tagged link
    (PCIe, DtoD, NIC, disk); every failure must be absorbed by the
    exponential-backoff retry path.

``chaos``
    The transient faults *plus* one permanent device failure at 50% of the
    fault-free virtual time (recovered via lineage replay, rehoming,
    blacklisting and forced redistribution onto the survivors) *plus* a PCIe
    degradation window at 25% bandwidth.

``failover``
    A device failure injected when every live chunk is device-resident only,
    forcing recovery through the *lineage replay* path (the chaos arm's
    mid-run failure typically finds surviving host replicas to promote
    instead).

Four gates run on every invocation (exit non-zero on violation):

* **functional equivalence** — each fault arm's gathered result must be
  *bit-identical* to the fault-free arm (K-Means uses integer-valued float32
  points so partial sums stay exact under any reduction grouping);
* **zero giveups** — ``transfers_failed_permanently`` must be 0 everywhere;
* **recovery happened** — the chaos arm must report exactly one failed
  device and at least one forced redistribution;
* **replay exercised** — the failover arm must replay at least one task from
  lineage.

``--baseline PATH`` additionally compares the deterministic recovery
counters and virtual times against the committed baseline
(``benchmarks/BENCH_faults.json``) and fails on any drift — the CI
chaos-smoke job runs this.  ``--summary PATH`` (defaulting to
``$GITHUB_STEP_SUMMARY`` when set) appends a markdown table; the result JSON
is always written before any gate can fail.  To refresh the baseline after
intentional changes to scheduling or recovery costs, regenerate it in place
with the refresh command in docs/operations.md
(``python benchmarks/bench_faults.py --output benchmarks/BENCH_faults.json``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np  # noqa: E402

from repro.bench import make_context  # noqa: E402
from repro.kernels import create_workload  # noqa: E402

# (name, nodes, gpus_per_node, n, workload params, result attribute)
CONFIGS = [
    ("hotspot3", 1, 4, 64 * 64,
     dict(chunk_elems=64 * 32, iterations=4, seed=3), "_final"),
    ("kmeans2", 1, 4, 40_960,
     dict(iterations=6, seed=0, chunk_elems=10_240, quantize=True),
     "centroids"),
]

TRANSIENT = "transfer=0.01"
FAULT_SEED = 7

#: counters recorded per arm; the baseline gate requires exact equality
COUNTERS = (
    "transfer_faults_injected",
    "transfers_retried",
    "transfers_failed_permanently",
    "devices_failed",
    "chunks_lost",
    "replicas_promoted",
    "tasks_replayed",
    "redistributes_forced",
)


def _run_arm(name, nodes, gpus, n, params, result_attr, faults=None,
             fail_after_run=None):
    kwargs = {"mode": "functional"}
    if faults is not None:
        kwargs.update(faults=faults, fault_seed=FAULT_SEED)
    ctx = make_context(nodes=nodes, gpus_per_node=gpus, **kwargs)
    workload = create_workload(name, ctx, n, **params)
    workload.run()
    if fail_after_run is not None:
        # All live chunks are device-resident here, so recovery must walk the
        # lineage graph and replay the lost chunks' producer subgraphs.
        ctx.fail_device(fail_after_run)
    virtual_time = ctx.synchronize()
    result = ctx.gather(getattr(workload, result_attr))
    if not workload.verify():
        raise RuntimeError(f"{name}: workload verify() failed")
    stats = ctx.stats()
    record = {
        "virtual_time": virtual_time,
        "result_sha256": hashlib.sha256(np.ascontiguousarray(result)).hexdigest(),
    }
    for counter in COUNTERS:
        record[counter] = int(getattr(stats, counter))
    return result, record


def _run_config(name, nodes, gpus, n, params, result_attr):
    label = f"{name}[{nodes}x{gpus}]"
    arms = {}
    reference, arms["fault_free"] = _run_arm(
        name, nodes, gpus, n, params, result_attr)
    total = arms["fault_free"]["virtual_time"]
    print(f"{label}: fault_free virtual_time={total:.6f}s", file=sys.stderr)

    transient_result, arms["transient"] = _run_arm(
        name, nodes, gpus, n, params, result_attr, faults=TRANSIENT)

    chaos_spec = (
        f"{TRANSIENT},device=0.1@{0.5 * total!r},"
        f"degrade=pcie@{0.25 * total!r}:{0.4 * total!r}x0.25"
    )
    chaos_result, arms["chaos"] = _run_arm(
        name, nodes, gpus, n, params, result_attr, faults=chaos_spec)
    arms["chaos"]["spec"] = chaos_spec

    failover_result, arms["failover"] = _run_arm(
        name, nodes, gpus, n, params, result_attr, faults="",
        fail_after_run=(0, 1))

    failures = []
    for arm_name, result in (("transient", transient_result),
                             ("chaos", chaos_result),
                             ("failover", failover_result)):
        if not np.array_equal(reference, result):
            failures.append(
                f"{label}/{arm_name}: result differs from fault-free run")
        giveups = arms[arm_name]["transfers_failed_permanently"]
        if giveups:
            failures.append(
                f"{label}/{arm_name}: {giveups} transfers gave up permanently")
    if arms["chaos"]["devices_failed"] != 1:
        failures.append(
            f"{label}/chaos: expected exactly 1 failed device, got "
            f"{arms['chaos']['devices_failed']}")
    if arms["chaos"]["redistributes_forced"] < 1:
        failures.append(f"{label}/chaos: recovery forced no redistribution")
    if arms["failover"]["tasks_replayed"] < 1:
        failures.append(
            f"{label}/failover: lineage recovery replayed no tasks")
    for arm_name in ("transient", "chaos", "failover"):
        injected = arms[arm_name]["transfer_faults_injected"]
        print(f"{label}/{arm_name}: {injected} transfer faults injected, "
              f"{arms[arm_name]['transfers_retried']} retried, "
              f"devices_failed={arms[arm_name]['devices_failed']}, "
              f"tasks_replayed={arms[arm_name]['tasks_replayed']}",
              file=sys.stderr)
    return arms, failures


# --------------------------------------------------------------------- #
# baseline gate + summary
# --------------------------------------------------------------------- #
def _baseline_rows(results: dict, baseline_path: str):
    """Returns ``(rows, failures)``; rows feed the markdown summary table."""
    with open(baseline_path, "r", encoding="utf-8") as handle:
        baseline = json.load(handle)
    base = baseline.get("results", {})
    rows, failures = [], []
    for label, arms in results.items():
        ref_arms = base.get(label)
        for arm_name, cur in arms.items():
            ref = (ref_arms or {}).get(arm_name)
            if ref is None:
                rows.append((label, arm_name, cur, None, "new"))
                continue
            status = "ok"
            for field in COUNTERS + ("virtual_time", "result_sha256"):
                if cur[field] != ref[field]:
                    status = "DRIFT"
                    failures.append(
                        f"{label}/{arm_name}: {field} {cur[field]!r} != "
                        f"baseline {ref[field]!r}")
            rows.append((label, arm_name, cur, ref, status))
    return rows, failures


def _check_baseline(results: dict, baseline_path: str) -> int:
    rows, failures = _baseline_rows(results, baseline_path)
    if failures:
        for failure in failures:
            print(f"BASELINE FAILURE: {failure}", file=sys.stderr)
        return 1
    print(f"baseline check ok ({len(rows)} arms)", file=sys.stderr)
    return 0


def _write_step_summary(path: str, results: dict, baseline_path=None) -> None:
    lines = ["## Chaos sweep (`bench_faults.py`)", ""]
    header = ("| config | arm | injected | retried | replayed | "
              "redistributed | status |")
    rule = "|---|---|---|---|---|---|---|"
    if baseline_path and os.path.exists(baseline_path):
        lines += [
            f"Recovery counters and result hashes must match "
            f"`{baseline_path}` exactly.", "", header, rule,
        ]
        rows, _ = _baseline_rows(results, baseline_path)
        for label, arm_name, cur, _ref, status in rows:
            lines.append(
                f"| {label} | {arm_name} | {cur['transfer_faults_injected']} "
                f"| {cur['transfers_retried']} | {cur['tasks_replayed']} | "
                f"{cur['redistributes_forced']} | {status} |")
    else:
        lines += ["_No baseline supplied; raw counters only._", "",
                  header, rule]
        for label, arms in results.items():
            for arm_name, cur in arms.items():
                lines.append(
                    f"| {label} | {arm_name} | "
                    f"{cur['transfer_faults_injected']} | "
                    f"{cur['transfers_retried']} | {cur['tasks_replayed']} | "
                    f"{cur['redistributes_forced']} | - |")
    lines.append("")
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", default=None,
                        help="compare recovery counters and result hashes "
                             "against this committed baseline JSON")
    parser.add_argument("--output", default=None,
                        help="result JSON path (default: "
                             "benchmarks/results/BENCH_faults.json)")
    parser.add_argument("--summary", default=None,
                        help="append a markdown counter table to this path "
                             "(defaults to $GITHUB_STEP_SUMMARY when set)")
    args = parser.parse_args(argv)
    summary_path = args.summary or os.environ.get("GITHUB_STEP_SUMMARY")

    results, failures = {}, []
    for name, nodes, gpus, n, params, result_attr in CONFIGS:
        label = f"{name}[{nodes}x{gpus}]"
        arms, config_failures = _run_config(
            name, nodes, gpus, n, params, result_attr)
        results[label] = arms
        failures.extend(config_failures)

    payload = {
        "transient_spec": TRANSIENT,
        "fault_seed": FAULT_SEED,
        "python": sys.version.split()[0],
        "results": results,
    }
    out = args.output or os.path.join(os.path.dirname(__file__), "results",
                                      "BENCH_faults.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    print(f"results written to {out}", file=sys.stderr)

    if summary_path:
        _write_step_summary(summary_path, results,
                            baseline_path=args.baseline)
    for failure in failures:
        print(f"CHAOS GATE FAILURE: {failure}", file=sys.stderr)
    if failures:
        return 1
    print("chaos gates ok (bit-identical results, zero giveups, "
          "recovery exercised)", file=sys.stderr)
    if args.baseline:
        return _check_baseline(results, args.baseline)
    return 0


if __name__ == "__main__":
    sys.exit(main())
