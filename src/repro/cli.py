"""Command-line interface for the Lightning reproduction.

Exposes the pieces a user needs without writing Python:

``repro-bench describe``
    Print the simulated cluster configuration.

``repro-bench run <workload> --n <size> [--nodes N] [--gpus G] [...]``
    Run one of the paper's benchmark workloads on a simulated cluster and
    print the measured point (time, throughput, data size).

``repro-bench sweep <workload> --sizes a,b,c [...]``
    Run a problem-size sweep (one row per size), the building block of
    Figs. 11-14.

``repro-bench figures``
    List every figure/table of the paper's evaluation and the gate command
    that reproduces and checks it.

``repro-bench advise --annotation "..." --shape name=ROWSxCOLS ...``
    Run the distribution advisor on a kernel annotation and print the
    suggested data/work distributions with their rationale.

``repro-bench serve --trace seed=42,jobs=16,rate=120 --tenants 4 [...]``
    Serve a multi-tenant job trace (generated Poisson arrivals or a JSON
    trace file) on one shared simulated cluster under weighted fair-share
    scheduling, and print per-job latencies and per-tenant counters.

``repro-bench checkpoint <workload> --n <size> --out job.ckpt [...]``
    Run a workload to completion and write every live array to a chunked,
    compressed checkpoint file (``run``'s flags apply; add ``--disk`` for
    the modelled compression ratios and disk-lane cost accounting).

``repro-bench restore <path> [--nodes N] [--gpus G] [...]``
    Rebuild the arrays recorded in a checkpoint file onto a (possibly
    different) simulated cluster and print what came back.

The CLI is intentionally a thin shell over the same public API the examples
and the gates use (`repro.bench`, `repro.autotune`), so ``run`` prints the
virtual time that the ``paper`` gate records for the same configuration.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from typing import Dict, Optional, Sequence, Tuple

from . import __version__
from .errors import ReproError
from .bench import (
    format_table,
    gpu_memory_limit,
    host_memory_limit,
    run_workload_with_stats,
)
from .hardware.specs import azure_nc24rsv2
from .kernels import WORKLOADS

__all__ = ["main", "build_parser"]

_PAPER_GATE = "python benchmarks/gates.py paper"

#: Figure/table id -> (description, the gate command that reproduces and
#: checks it).  The gates record each figure's series under its id.
FIGURES: Dict[str, Tuple[str, str]] = {
    "fig10": ("K-Means run time vs chunk size (1 GPU)", _PAPER_GATE),
    "fig11": ("K-Means run time vs problem size (1 GPU)", _PAPER_GATE),
    "fig12": ("Single-GPU throughput vs problem size, 8 benchmarks", _PAPER_GATE),
    "fig13": ("Multi-GPU node (1-4 GPUs) throughput", _PAPER_GATE),
    "fig14": ("Multi-node (1-4 nodes x 1 GPU) throughput", _PAPER_GATE),
    "fig15": ("Weak scaling to 32 GPUs", "python benchmarks/gates.py paper_full"),
    "fig16": ("CGC co-clustering full application (5/20/80 GB)", _PAPER_GATE),
    "sec4.3": ("Spilling analysis (Correlator drop, Black-Scholes PCIe argument)", _PAPER_GATE),
    "ablations": ("Staging throttle, async submission, scheduling policy", _PAPER_GATE),
}


def build_parser() -> argparse.ArgumentParser:
    """Build the ``repro-bench`` argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Lightning (IPDPS 2022) reproduction: run simulated multi-GPU benchmarks.",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    describe = sub.add_parser("describe", help="print the simulated cluster configuration")
    _add_cluster_args(describe)

    run = sub.add_parser("run", help="run one benchmark workload once")
    run.add_argument("workload", choices=sorted(WORKLOADS))
    run.add_argument("--n", type=float, required=True, help="problem size n")
    run.add_argument("--mode", choices=("simulate", "functional"), default="simulate")
    run.add_argument("--scheduler-policy", default=None,
                     help="scheduler task-selection policy (fifo/locality/priority/smallest)")
    _add_cluster_args(run)
    _add_plan_cache_arg(run)
    _add_window_args(run)
    _add_fault_args(run)
    _add_disk_args(run)
    _add_stats_json_arg(run)
    _add_profile_args(run)

    sweep = sub.add_parser("sweep", help="run a problem-size sweep for one workload")
    sweep.add_argument("workload", choices=sorted(WORKLOADS))
    sweep.add_argument("--sizes", required=True,
                       help="comma-separated problem sizes, e.g. 1e8,1e9,4e9")
    _add_cluster_args(sweep)
    _add_plan_cache_arg(sweep)
    _add_window_args(sweep)
    _add_fault_args(sweep)
    _add_disk_args(sweep)
    _add_stats_json_arg(sweep)
    _add_profile_args(sweep)

    sub.add_parser("figures", help="list the paper's figures and how to regenerate them")

    checkpoint = sub.add_parser(
        "checkpoint",
        help="run a workload and write its arrays to a checkpoint file",
    )
    checkpoint.add_argument("workload", choices=sorted(WORKLOADS))
    checkpoint.add_argument("--n", type=float, required=True, help="problem size n")
    checkpoint.add_argument(
        "--out", required=True, metavar="PATH", help="checkpoint file to write"
    )
    checkpoint.add_argument(
        "--mode", choices=("simulate", "functional"), default="functional",
        help="functional (default) writes real compressed chunk payloads; "
             "simulate writes an index-only checkpoint with modelled sizes",
    )
    _add_cluster_args(checkpoint)
    _add_window_args(checkpoint)
    _add_disk_args(checkpoint)
    _add_stats_json_arg(checkpoint)

    restore = sub.add_parser(
        "restore", help="rebuild the arrays recorded in a checkpoint file"
    )
    restore.add_argument("path", metavar="PATH", help="checkpoint file to read")
    restore.add_argument(
        "--mode", choices=("simulate", "functional"), default="functional"
    )
    _add_cluster_args(restore)
    _add_disk_args(restore)
    _add_stats_json_arg(restore)

    serve = sub.add_parser(
        "serve", help="serve a multi-tenant job trace on one shared simulated cluster"
    )
    serve.add_argument(
        "--trace",
        required=True,
        metavar="SPEC_OR_PATH",
        help="either a Poisson generator spec 'seed=42,jobs=16,rate=120' or the "
             "path to a JSON trace file (a list of {arrival, tenant, workload, "
             "n, params} objects)",
    )
    serve.add_argument("--tenants", type=int, default=4, help="number of tenants (default 4)")
    serve.add_argument(
        "--weights",
        default=None,
        metavar="CSV",
        help="per-tenant fair-share weights, e.g. '2,1,1,1' (default: all 1)",
    )
    serve.add_argument(
        "--memory-fraction",
        type=float,
        default=None,
        metavar="F",
        help="soft per-tenant memory quota as a fraction of every space "
             "(default: no quotas)",
    )
    serve.add_argument(
        "--max-active",
        type=int,
        default=None,
        metavar="N",
        help="admission control: at most N jobs in flight at once "
             "(default: one per tenant; 1 serialises the trace)",
    )
    serve.add_argument("--mode", choices=("simulate", "functional"), default="functional")
    _add_cluster_args(serve)
    _add_fault_args(serve)
    _add_stats_json_arg(serve)
    _add_profile_args(serve)

    advise = sub.add_parser("advise", help="suggest distributions from a kernel annotation")
    advise.add_argument("--annotation", required=True,
                        help='e.g. "global i => read a[i-1:i+1], write b[i]"')
    advise.add_argument("--shape", action="append", default=[],
                        help="array shape as name=DIMxDIM (repeatable)", metavar="NAME=SHAPE")
    advise.add_argument("--grid", default=None, help="thread grid, e.g. 1000000 or 4096x4096")
    advise.add_argument("--block", default="256", help="thread block, e.g. 256 or 16x16")
    advise.add_argument("--gpus", type=int, default=4, help="number of GPUs to plan for")
    return parser


def _add_cluster_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--nodes", type=int, default=1)
    parser.add_argument("--gpus", type=int, default=1, help="GPUs per node")


def _add_plan_cache_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--plan-cache",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="reuse cached plan templates for repeated launches (default: on)",
    )


def _add_window_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--lookahead",
        type=int,
        default=None,
        metavar="N",
        help="launch-window depth: launches buffered for cross-launch "
             "optimisation before a forced drain (default 4; 1 disables "
             "the window)",
    )
    parser.add_argument(
        "--fusion",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="fuse back-to-back producer/consumer launches in the window "
             "(default: on)",
    )
    parser.add_argument(
        "--window-memory",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="window-aware memory planning: pre-evict the drained launch "
             "group's spill victims up front and promote spilled prefetch "
             "sources back up the memory hierarchy (default: on)",
    )
    parser.add_argument(
        "--lazy",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="record array operator expressions as lazy DAGs and lower them "
             "fused at barriers; --no-lazy launches one kernel per operator "
             "eagerly (default: on)",
    )


def _window_kwargs(args: argparse.Namespace) -> dict:
    kwargs = {
        "fusion": args.fusion,
        "window_memory": args.window_memory,
        "lazy": args.lazy,
    }
    if args.lookahead is not None:
        kwargs["lookahead"] = args.lookahead
    return kwargs


def _add_fault_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--inject-faults",
        metavar="SPEC",
        default=None,
        help="seeded fault injection, e.g. "
             "'transfer=0.01,device=0.1@2.5,degrade=nic@1.0:2.0x0.25,retry=6' "
             "(transient transfer faults with retry/backoff, permanent device "
             "failures with lineage recovery, link degradation windows)",
    )
    parser.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        metavar="N",
        help="seed for the fault injector's RNG (default 0; the fault "
             "schedule is deterministic per spec+seed)",
    )


def _fault_kwargs(args: argparse.Namespace) -> dict:
    if not getattr(args, "inject_faults", None):
        return {}
    return {"faults": args.inject_faults, "fault_seed": args.fault_seed}


def _add_disk_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--disk",
        action="store_true",
        help="enable the compressed disk tier: spilled chunks overflow from "
             "host memory to simulated disk through (de)compression lanes, "
             "and the window memory planner stages disk-resident inputs back "
             "through host memory ahead of their launches (default: off)",
    )
    parser.add_argument(
        "--disk-seed",
        type=int,
        default=0,
        metavar="N",
        help="seed for the per-chunk compression-ratio model (default 0; "
             "ratios are deterministic per seed+chunk+dtype)",
    )


def _disk_kwargs(args: argparse.Namespace) -> dict:
    if not getattr(args, "disk", False):
        return {}
    return {"disk": True, "disk_seed": args.disk_seed}


def _add_stats_json_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--stats-json",
        metavar="PATH",
        default=None,
        help="dump RuntimeStats (events processed, per-resource busy time, "
             "memory/spill counters, ...) as JSON; '-' writes to stdout",
    )


def _add_profile_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--profile",
        metavar="PATH",
        default=None,
        help="profile the workload under cProfile and dump pstats data to "
             "PATH (inspect with 'python -m pstats PATH' or snakeviz)",
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="with --profile, also print the top-10 functions by cumulative time",
    )


@contextmanager
def _maybe_profile(args: argparse.Namespace):
    """Profile the wrapped block when ``--profile PATH`` was given."""
    if not getattr(args, "profile", None):
        yield
        return
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        yield
    finally:
        profiler.disable()
        profiler.dump_stats(args.profile)
        print(f"profile written to {args.profile}")
        if getattr(args, "verbose", False):
            pstats.Stats(profiler).sort_stats("cumulative").print_stats(10)


def _write_stats_json(path: str, payload) -> None:
    from .bench import json_text, write_json

    if path == "-":
        print(json_text(payload))
        return
    write_json(path, payload)


def _parse_dims(text: str) -> Tuple[int, ...]:
    return tuple(int(float(part)) for part in text.lower().replace("*", "x").split("x"))


# --------------------------------------------------------------------------- #
# sub-command implementations
# --------------------------------------------------------------------------- #
def _cmd_describe(args: argparse.Namespace) -> int:
    spec = azure_nc24rsv2(nodes=args.nodes, gpus_per_node=args.gpus)
    print(spec.describe())
    print(f"GPU memory (combined): {spec.gpu_memory_bytes / 1e9:.0f} GB")
    print(f"Host memory (combined): {spec.host_memory_bytes / 1e9:.0f} GB")
    print(f"Interconnect: {spec.interconnect.name} at {spec.interconnect.bandwidth / 1e9:.1f} GB/s")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    context_kwargs = {
        "plan_cache": args.plan_cache,
        **_window_kwargs(args),
        **_fault_kwargs(args),
        **_disk_kwargs(args),
    }
    if args.scheduler_policy:
        context_kwargs["scheduler_policy"] = args.scheduler_policy
    with _maybe_profile(args):
        point, stats = run_workload_with_stats(
            args.workload,
            int(args.n),
            nodes=args.nodes,
            gpus_per_node=args.gpus,
            mode=args.mode,
            context_kwargs=context_kwargs,
        )
    print(format_table([point], title=f"{args.workload} on {args.nodes}x{args.gpus} GPUs"))
    print(f"GPU memory limit: {gpu_memory_limit(args.nodes * args.gpus) / 1e9:.0f} GB, "
          f"host memory limit: {host_memory_limit(args.nodes) / 1e9:.0f} GB")
    if args.stats_json:
        _write_stats_json(args.stats_json, stats.to_dict())
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    sizes = [int(float(s)) for s in args.sizes.split(",") if s.strip()]
    if not sizes:
        print("no problem sizes given", file=sys.stderr)
        return 2
    points = []
    stats_payload = []
    with _maybe_profile(args):
        for n in sizes:
            point, stats = run_workload_with_stats(
                args.workload, n, nodes=args.nodes, gpus_per_node=args.gpus,
                context_kwargs={
                    "plan_cache": args.plan_cache,
                    **_window_kwargs(args),
                    **_fault_kwargs(args),
                    **_disk_kwargs(args),
                },
            )
            points.append(point)
            if args.stats_json:
                stats_payload.append({"problem_size": n, "stats": stats.to_dict()})
    print(format_table(points, title=f"{args.workload} problem-size sweep"))
    if args.stats_json:
        _write_stats_json(args.stats_json, stats_payload)
    return 0


def _cmd_figures(_: argparse.Namespace) -> int:
    width = max(len(k) for k in FIGURES)
    for key, (description, command) in FIGURES.items():
        print(f"{key:<{width}}  {description}")
        print(f"{'':<{width}}  -> {command}")
    return 0


def _cmd_advise(args: argparse.Namespace) -> int:
    from .autotune import suggest_kernel_distributions
    from .core.annotations import Annotation

    annotation = Annotation.parse(args.annotation)
    shapes = {}
    for item in args.shape:
        name, _, dims = item.partition("=")
        if not dims:
            print(f"cannot parse --shape {item!r} (expected NAME=DIMxDIM)", file=sys.stderr)
            return 2
        shapes[name.strip()] = _parse_dims(dims)
    missing = [a.array for a in annotation.accesses if a.array not in shapes]
    if missing:
        print(f"missing --shape for annotated arrays: {', '.join(missing)}", file=sys.stderr)
        return 2
    grid = _parse_dims(args.grid) if args.grid else shapes[annotation.accesses[0].array]
    block = _parse_dims(args.block)
    advice, work, rationale = suggest_kernel_distributions(
        annotation, shapes, grid=grid, block=block, device_count=args.gpus
    )
    for name, item in advice.items():
        print(f"{name}: {item.distribution!r}")
        print(f"    {item.rationale}")
    print(f"work: {work!r}")
    print(f"    {rationale}")
    return 0


def _parse_trace(text: str, tenants: int):
    """A job list from either a JSON trace file or a Poisson generator spec."""
    import os

    from .errors import ArgumentValueError
    from .runtime.serving import JobSpec, poisson_trace

    if os.path.exists(text) or text.endswith(".json"):
        import json

        with open(text, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
        return [
            JobSpec(
                arrival=float(job["arrival"]),
                tenant=int(job["tenant"]),
                workload=str(job["workload"]),
                n=int(job["n"]),
                params=dict(job.get("params", {})),
            )
            for job in raw
        ]
    spec = {}
    for part in text.split(","):
        key, _, value = part.partition("=")
        if not value:
            raise ArgumentValueError(
                f"cannot parse --trace entry {part!r} (expected key=value or a "
                f"JSON file path)"
            )
        spec[key.strip()] = value.strip()
    known = {"seed", "jobs", "rate"}
    unknown = set(spec) - known
    if unknown:
        raise ArgumentValueError(
            f"unknown --trace keys {sorted(unknown)}; known: {sorted(known)}"
        )
    return poisson_trace(
        seed=int(spec.get("seed", 0)),
        njobs=int(spec.get("jobs", 16)),
        rate=float(spec.get("rate", 100.0)),
        tenants=tenants,
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    from . import apps  # noqa: F401  (registers the cgc/ensemble workloads)
    from .errors import ArgumentValueError
    from .runtime.serving import ServingSystem

    weights = [1.0] * args.tenants
    if args.weights:
        weights = [float(w) for w in args.weights.split(",") if w.strip()]
        if len(weights) != args.tenants:
            raise ArgumentValueError(
                f"--weights names {len(weights)} tenants but --tenants is {args.tenants}"
            )
    jobs = _parse_trace(args.trace, args.tenants)
    serving = ServingSystem(
        cluster=azure_nc24rsv2(nodes=args.nodes, gpus_per_node=args.gpus),
        mode=args.mode,
        max_active=args.max_active,
        **_fault_kwargs(args),
    )
    for tenant, weight in enumerate(weights):
        serving.add_tenant(
            f"tenant-{tenant}", weight=weight, memory_fraction=args.memory_fraction
        )
    serving.submit_trace(jobs)
    with _maybe_profile(args):
        report = serving.run()
    summary = report.to_dict()
    print(f"served {summary['jobs_completed']} jobs on {args.nodes}x{args.gpus} GPUs: "
          f"makespan {summary['makespan']:.4f} s, "
          f"throughput {summary['throughput']:.2f} jobs/s, "
          f"latency p50 {summary['latency_p50']:.4f} s / p99 {summary['latency_p99']:.4f} s")
    header = f"{'tenant':>8s} {'weight':>7s} {'plans':>7s} {'tasks':>8s} {'done':>8s}"
    print(header)
    counters = report.tenant_counters
    for tenant, weight in enumerate(weights):
        row = counters.get(tenant, {})
        print(f"{tenant:>8d} {weight:>7.2f} {row.get('plans_submitted', 0):>7d} "
              f"{row.get('tasks_submitted', 0):>8d} {row.get('tasks_completed', 0):>8d}")
    if args.stats_json:
        payload = serving.runtime.stats().to_dict()
        payload["serving"] = summary
        payload["tenants"] = {ctx.tenant_name: ctx.stats().to_dict() for ctx in serving.contexts}
        _write_stats_json(args.stats_json, payload)
    return 0


def _cmd_checkpoint(args: argparse.Namespace) -> int:
    from .bench import make_context
    from .kernels import create_workload

    ctx = make_context(
        nodes=args.nodes,
        gpus_per_node=args.gpus,
        mode=args.mode,
        **_window_kwargs(args),
        **_disk_kwargs(args),
    )
    workload = create_workload(args.workload, ctx, int(args.n))
    workload.run()
    manifest = ctx.checkpoint(args.out)
    stats = ctx.stats()
    chunks = sum(len(a["chunks"]) for a in manifest["arrays"])
    raw = stats.checkpoint_bytes_raw
    stored = stats.checkpoint_bytes_stored
    ratio = raw / stored if stored else 0.0
    print(f"checkpointed {len(manifest['arrays'])} array(s), {chunks} chunk(s) "
          f"to {args.out}")
    print(f"raw {raw / 1e6:.2f} MB -> stored {stored / 1e6:.2f} MB "
          f"(ratio {ratio:.2f}x), virtual time {ctx.virtual_time:.4f} s")
    if args.stats_json:
        _write_stats_json(args.stats_json, stats.to_dict())
    return 0


def _cmd_restore(args: argparse.Namespace) -> int:
    from .bench import make_context

    ctx = make_context(
        nodes=args.nodes,
        gpus_per_node=args.gpus,
        mode=args.mode,
        **_disk_kwargs(args),
    )
    restored = ctx.restore(args.path)
    stats = ctx.stats()
    print(f"restored {len(restored)} array(s) ({stats.chunks_restored} stored "
          f"chunk(s)) onto {args.nodes}x{args.gpus} GPUs, "
          f"virtual time {ctx.virtual_time:.4f} s")
    for key, array in restored.items():
        print(f"  {key}: shape {tuple(array.shape)}, dtype {array.dtype.name}, "
              f"{len(array.chunks)} chunk(s), {type(array.distribution).__name__}")
    if args.stats_json:
        _write_stats_json(args.stats_json, stats.to_dict())
    return 0


_COMMANDS = {
    "describe": _cmd_describe,
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "figures": _cmd_figures,
    "advise": _cmd_advise,
    "serve": _cmd_serve,
    "checkpoint": _cmd_checkpoint,
    "restore": _cmd_restore,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``repro-bench`` (and ``python -m repro.cli``)."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        # Deliberate library errors (bad fault specs, planning failures,
        # fatal injected faults, stalls) exit with a message, not a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
