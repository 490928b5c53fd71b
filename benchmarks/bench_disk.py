"""Out-of-core disk-tier sweep: planned prefetch must beat reactive spilling.

Streams a dataset larger than the capped host memory (which itself is far
larger than the capped GPU pools) through a round-robin update kernel, with
the compressed disk tier enabled (``Context(disk=True)``), under two arms:

``planned``
    Window-aware memory planning on: the drain-time planner pre-evicts each
    launch group's spill victims, promotes upcoming inputs back up the
    hierarchy, and *stages* disk-resident inputs that cannot fit on their
    GPU into host memory ahead of use (the three-level streaming path).

``reactive``
    Window memory planning off: every chunk is staged on demand when its
    task starts, paying the compressed disk read on the critical path.

Gates (exit non-zero on violation):

* **functional equivalence** — both arms gather bit-identical arrays (the
  disk tier compresses *simulated* bytes only; payloads never change);
* **planned wins** — the planned arm's virtual time must be strictly lower
  than the reactive arm's;
* **out-of-core exercised** — both arms must spill to disk, and the planned
  arm must report staged disk→host promotions and avoided stalls;
* **compression active** — stored disk bytes must be smaller than the raw
  bytes that crossed the disk links.

A second scenario checkpoints the streamed dataset to a temporary file and
restores it into a fresh context: the restored gather must be bit-identical
to the original (CRC-verified per chunk on the way back in).

``--baseline PATH`` compares the deterministic counters, virtual times and
result hashes against the committed baseline (``benchmarks/BENCH_disk.json``)
and fails on any drift — the CI perf-smoke job runs this.  Checkpoint
*stored* bytes and checkpoint virtual times are recorded but not gated:
they depend on the zlib build, unlike the cost-model's compression ratios.
``--summary PATH`` (defaulting to ``$GITHUB_STEP_SUMMARY``) appends a
markdown table; the result JSON is always written before any gate can fail.
To refresh the baseline after intentional changes, regenerate it in place
with the refresh command in docs/operations.md
(``python benchmarks/bench_disk.py --output benchmarks/BENCH_disk.json``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np  # noqa: E402

from repro.core.context import Context  # noqa: E402
from repro.core.distributions import BlockDist, BlockWorkDist  # noqa: E402
from repro.core.kernel import KernelCost, KernelDef  # noqa: E402
from repro.hardware.specs import azure_nc24rsv2  # noqa: E402
from repro.hardware.topology import (  # noqa: E402
    DeviceId,
    MemoryKind,
    MemorySpace,
)

MB = 1 << 20

#: the out-of-core scenario: 10 arrays x 20 MB stream through 2 GPUs capped
#: at 48 MB each over a 80 MB host pool — the 200 MB dataset exceeds host
#: memory, so the oldest batches always sit on the compressed disk tier.
SCENARIO = dict(
    gpus=2,
    gpu_cap_mb=48,
    host_cap_mb=80,
    stage_threshold_mb=24,
    lookahead=4,
    arrays=10,
    rounds=3,
    flops_per_thread=20_000.0,
    disk_seed=3,
)

#: counters recorded per arm; the baseline gate requires exact equality
COUNTERS = (
    "staging_stalls",
    "staging_stalls_avoided",
    "prefetch_promotions",
    "disk_promotions_staged",
    "chunks_preevicted",
    "disk_stored_bytes_written",
    "disk_stored_bytes_read",
    "bytes_to_disk",
    "bytes_from_disk",
    "evictions_to_disk",
)


def _make_context(window_memory: bool) -> Context:
    cfg = SCENARIO
    caps = {
        DeviceId(0, i).memory_space: cfg["gpu_cap_mb"] * MB
        for i in range(cfg["gpus"])
    }
    caps[MemorySpace(0, MemoryKind.HOST)] = cfg["host_cap_mb"] * MB
    return Context(
        azure_nc24rsv2(nodes=1, gpus_per_node=cfg["gpus"]),
        mode="functional",
        memory_capacities=caps,
        window_memory=window_memory,
        lookahead=cfg["lookahead"],
        stage_threshold=cfg["stage_threshold_mb"] * MB,
        disk=True,
        disk_seed=cfg["disk_seed"],
    )


def _build_dataset(ctx: Context):
    cfg = SCENARIO
    elems = 256 * 10_240 * cfg["gpus"]
    rng = np.random.RandomState(0)
    batches = [
        ctx.from_numpy(
            rng.rand(elems).astype(np.float32),
            BlockDist(elems // cfg["gpus"]),
            name=f"batch{j}",
        )
        for j in range(cfg["arrays"])
    ]
    ctx.synchronize()
    return elems, batches


def _stream(ctx: Context, elems: int, batches) -> None:
    cfg = SCENARIO

    def body(lc, n, data):
        i = lc.global_indices(0)
        i = i[i < n]
        data.scatter(i, (data.gather(i) * 1.5 + 1.0).astype(np.float32))

    kernel = (
        KernelDef("stream_update", func=body)
        .param_value("n", "int64")
        .param_array("data", "float32")
        .annotate("global i => readwrite data[i]")
        .with_cost(KernelCost(cfg["flops_per_thread"], 8.0))
        .compile(ctx)
    )
    chunk_elems = elems // cfg["gpus"]
    for _ in range(cfg["rounds"]):
        for batch in batches:
            kernel.launch(elems, 256, BlockWorkDist(chunk_elems), (elems, batch))
    ctx.synchronize()


def _result_sha(ctx: Context, batches) -> str:
    digest = hashlib.sha256()
    for batch in batches:
        digest.update(np.ascontiguousarray(ctx.gather(batch)))
    return digest.hexdigest()


def _arm_record(ctx: Context, result_sha: str) -> dict:
    stats = ctx.stats()
    mems = list(stats.memory.values())
    record = {
        "virtual_time": ctx.virtual_time,
        "result_sha256": result_sha,
        "staging_stalls": int(stats.staging_stalls),
        "staging_stalls_avoided": int(stats.staging_stalls_avoided),
        "prefetch_promotions": int(stats.prefetch_promotions),
        "disk_promotions_staged": int(stats.disk_promotions_staged),
        "chunks_preevicted": int(stats.chunks_preevicted),
        "disk_stored_bytes_written": int(stats.disk_stored_bytes_written),
        "disk_stored_bytes_read": int(stats.disk_stored_bytes_read),
        "bytes_to_disk": int(sum(m.bytes_to_disk for m in mems)),
        "bytes_from_disk": int(sum(m.bytes_from_disk for m in mems)),
        "evictions_to_disk": int(sum(m.evictions_to_disk for m in mems)),
    }
    return record


def _run_out_of_core():
    arms, failures = {}, {}
    for arm_name, window_memory in (("planned", True), ("reactive", False)):
        ctx = _make_context(window_memory)
        elems, batches = _build_dataset(ctx)
        _stream(ctx, elems, batches)
        sha = _result_sha(ctx, batches)
        arms[arm_name] = _arm_record(ctx, sha)
        print(
            f"out_of_core/{arm_name}: virtual_time="
            f"{arms[arm_name]['virtual_time']:.6f}s "
            f"stalls={arms[arm_name]['staging_stalls']} "
            f"staged={arms[arm_name]['disk_promotions_staged']}",
            file=sys.stderr,
        )

    failures = []
    planned, reactive = arms["planned"], arms["reactive"]
    if planned["result_sha256"] != reactive["result_sha256"]:
        failures.append("out_of_core: planned and reactive results differ")
    if not planned["virtual_time"] < reactive["virtual_time"]:
        failures.append(
            f"out_of_core: planned virtual time {planned['virtual_time']!r} "
            f"is not below reactive {reactive['virtual_time']!r}"
        )
    for arm_name, record in arms.items():
        if record["evictions_to_disk"] < 1:
            failures.append(f"out_of_core/{arm_name}: never spilled to disk")
        if not record["disk_stored_bytes_written"] < record["bytes_to_disk"]:
            failures.append(
                f"out_of_core/{arm_name}: compression inactive "
                f"(stored {record['disk_stored_bytes_written']} >= raw "
                f"{record['bytes_to_disk']})"
            )
    if planned["disk_promotions_staged"] < 1:
        failures.append("out_of_core/planned: no staged disk→host promotions")
    if planned["staging_stalls_avoided"] < 1:
        failures.append("out_of_core/planned: no staging stalls avoided")
    if reactive["disk_promotions_staged"] != 0:
        failures.append("out_of_core/reactive: staged promotions without planner")
    return arms, failures


def _run_checkpoint_roundtrip():
    """Checkpoint the streamed dataset, restore it fresh, compare bit-exact."""
    ctx = _make_context(True)
    elems, batches = _build_dataset(ctx)
    _stream(ctx, elems, batches)
    original_sha = _result_sha(ctx, batches)

    fd, path = tempfile.mkstemp(suffix=".ckpt")
    os.close(fd)
    failures = []
    try:
        ctx.checkpoint(path)
        stats = ctx.stats()
        restore_ctx = _make_context(True)
        restored = restore_ctx.restore(path)
        restored_sha = _result_sha(
            restore_ctx, [restored[f"batch{j}"] for j in range(len(batches))]
        )
        restore_stats = restore_ctx.stats()
    finally:
        os.unlink(path)

    record = {
        "result_sha256": original_sha,
        "restored_sha256": restored_sha,
        "chunks_checkpointed": int(stats.chunks_checkpointed),
        "checkpoint_bytes_raw": int(stats.checkpoint_bytes_raw),
        "chunks_restored": int(restore_stats.chunks_restored),
        # zlib-build-dependent: recorded for observability, not gated
        "checkpoint_bytes_stored": int(stats.checkpoint_bytes_stored),
        "checkpoint_virtual_time": ctx.virtual_time,
        "restore_virtual_time": restore_ctx.virtual_time,
    }
    if restored_sha != original_sha:
        failures.append("checkpoint: restored result differs from original")
    if record["chunks_restored"] != record["chunks_checkpointed"]:
        failures.append(
            f"checkpoint: restored {record['chunks_restored']} chunks, "
            f"checkpointed {record['chunks_checkpointed']}"
        )
    if not record["checkpoint_bytes_stored"] < record["checkpoint_bytes_raw"]:
        failures.append("checkpoint: payloads did not compress")
    print(
        f"checkpoint: {record['chunks_checkpointed']} chunks, "
        f"{record['checkpoint_bytes_raw'] / 1e6:.1f} MB raw -> "
        f"{record['checkpoint_bytes_stored'] / 1e6:.1f} MB stored, "
        f"round-trip {'ok' if restored_sha == original_sha else 'MISMATCH'}",
        file=sys.stderr,
    )
    return record, failures


#: baseline-gated fields of the checkpoint record (exact equality)
CHECKPOINT_GATED = (
    "result_sha256",
    "restored_sha256",
    "chunks_checkpointed",
    "checkpoint_bytes_raw",
    "chunks_restored",
)


# --------------------------------------------------------------------- #
# baseline gate + summary
# --------------------------------------------------------------------- #
def _baseline_rows(results: dict, baseline_path: str):
    """Returns ``(rows, failures)``; rows feed the markdown summary table."""
    with open(baseline_path, "r", encoding="utf-8") as handle:
        baseline = json.load(handle)
    base = baseline.get("results", {})
    rows, failures = [], []
    for arm_name, cur in results["out_of_core"].items():
        ref = base.get("out_of_core", {}).get(arm_name)
        if ref is None:
            rows.append(("out_of_core", arm_name, cur, None, "new"))
            continue
        status = "ok"
        for field in COUNTERS + ("virtual_time", "result_sha256"):
            if cur[field] != ref[field]:
                status = "DRIFT"
                failures.append(
                    f"out_of_core/{arm_name}: {field} {cur[field]!r} != "
                    f"baseline {ref[field]!r}"
                )
        rows.append(("out_of_core", arm_name, cur, ref, status))
    cur = results["checkpoint"]
    ref = base.get("checkpoint")
    if ref is None:
        rows.append(("checkpoint", "roundtrip", cur, None, "new"))
    else:
        status = "ok"
        for field in CHECKPOINT_GATED:
            if cur[field] != ref[field]:
                status = "DRIFT"
                failures.append(
                    f"checkpoint: {field} {cur[field]!r} != "
                    f"baseline {ref[field]!r}"
                )
        rows.append(("checkpoint", "roundtrip", cur, ref, status))
    return rows, failures


def _check_baseline(results: dict, baseline_path: str) -> int:
    rows, failures = _baseline_rows(results, baseline_path)
    if failures:
        for failure in failures:
            print(f"BASELINE FAILURE: {failure}", file=sys.stderr)
        return 1
    print(f"baseline check ok ({len(rows)} rows)", file=sys.stderr)
    return 0


def _write_step_summary(path: str, results: dict, baseline_path=None) -> None:
    lines = ["## Disk tier (`bench_disk.py`)", ""]
    header = ("| scenario | arm | virtual time | stalls | staged | "
              "stored/raw to disk | status |")
    rule = "|---|---|---|---|---|---|---|"
    have_baseline = baseline_path and os.path.exists(baseline_path)
    statuses = {}
    if have_baseline:
        lines += [
            f"Counters, virtual times and result hashes must match "
            f"`{baseline_path}` exactly.", "",
        ]
        rows, _ = _baseline_rows(results, baseline_path)
        statuses = {(scn, arm): status for scn, arm, _c, _r, status in rows}
    else:
        lines += ["_No baseline supplied; raw counters only._", ""]
    lines += [header, rule]
    for arm_name, cur in results["out_of_core"].items():
        status = statuses.get(("out_of_core", arm_name), "-")
        lines.append(
            f"| out_of_core | {arm_name} | {cur['virtual_time']:.6f} s | "
            f"{cur['staging_stalls']} | {cur['disk_promotions_staged']} | "
            f"{cur['disk_stored_bytes_written']}/{cur['bytes_to_disk']} | "
            f"{status} |"
        )
    ck = results["checkpoint"]
    status = statuses.get(("checkpoint", "roundtrip"), "-")
    lines.append(
        f"| checkpoint | roundtrip | {ck['checkpoint_virtual_time']:.6f} s | "
        f"- | - | {ck['checkpoint_bytes_stored']}/"
        f"{ck['checkpoint_bytes_raw']} | {status} |"
    )
    lines.append("")
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", default=None,
                        help="compare counters, virtual times and result "
                             "hashes against this committed baseline JSON")
    parser.add_argument("--output", default=None,
                        help="result JSON path (default: "
                             "benchmarks/results/BENCH_disk.json)")
    parser.add_argument("--summary", default=None,
                        help="append a markdown table to this path "
                             "(defaults to $GITHUB_STEP_SUMMARY when set)")
    args = parser.parse_args(argv)
    summary_path = args.summary or os.environ.get("GITHUB_STEP_SUMMARY")

    results = {}
    results["out_of_core"], failures = _run_out_of_core()
    checkpoint_record, checkpoint_failures = _run_checkpoint_roundtrip()
    results["checkpoint"] = checkpoint_record
    failures.extend(checkpoint_failures)

    payload = {
        "scenario": SCENARIO,
        "python": sys.version.split()[0],
        "results": results,
    }
    out = args.output or os.path.join(os.path.dirname(__file__), "results",
                                      "BENCH_disk.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    print(f"results written to {out}", file=sys.stderr)

    if summary_path:
        _write_step_summary(summary_path, results, baseline_path=args.baseline)
    for failure in failures:
        print(f"DISK GATE FAILURE: {failure}", file=sys.stderr)
    if failures:
        return 1
    print("disk gates ok (bit-identical arms, planned wins, compression "
          "and staged promotions exercised, checkpoint round-trip exact)",
          file=sys.stderr)
    if args.baseline:
        return _check_baseline(results, args.baseline)
    return 0


if __name__ == "__main__":
    sys.exit(main())
