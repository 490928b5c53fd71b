"""Helpers shared by the CLI, the gate harness and the examples.

``make_context`` builds a context on the paper's node type,
``run_workload_with_stats`` runs one registered workload once and returns
its point and its :class:`RuntimeStats`, and ``format_table`` prints points
the way the figures group them.  ``write_json`` is the repo's one
machine-readable result format.

Runs default to ``simulate`` execution mode so the paper's problem sizes
(tens to hundreds of GB of virtual data) can be swept: the planner, the
scheduler, the memory manager (including spilling) and the communication
layer all run for real; only the chunk payloads are elided.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.context import Context
from ..errors import VerificationError
from ..hardware.specs import azure_nc24rsv2
from ..kernels import create_workload
from ..runtime.system import ExecutionMode, RuntimeStats

__all__ = [
    "BenchPoint",
    "make_context",
    "run_workload_with_stats",
    "gpu_memory_limit",
    "host_memory_limit",
    "format_table",
    "write_json",
    "json_text",
    "scaled",
]


def scaled(n: int, floor: int = 1) -> int:
    """Scale a problem size by the ``REPRO_EXAMPLE_SCALE`` environment variable.

    The example scripts wrap their problem sizes in ``scaled(...)`` so the CI
    examples-smoke job can run every script end to end with tiny inputs
    (``REPRO_EXAMPLE_SCALE=1e-3``) while humans running them unmodified get
    the documented sizes (the default scale is 1).
    """
    scale = float(os.environ.get("REPRO_EXAMPLE_SCALE", "1") or "1")
    return max(int(floor), int(n * scale))


@dataclass(frozen=True)
class BenchPoint:
    """One measured point of a figure series."""

    benchmark: str
    nodes: int
    gpus_per_node: int
    problem_size: float
    data_gb: float
    elapsed: float
    throughput: float


def make_context(
    nodes: int = 1,
    gpus_per_node: int = 1,
    mode: ExecutionMode | str = ExecutionMode.SIMULATE,
    **kwargs,
) -> Context:
    """A context on the paper's Azure NC24rsV2 node type."""
    return Context(azure_nc24rsv2(nodes=nodes, gpus_per_node=gpus_per_node), mode=mode, **kwargs)


def run_workload_with_stats(
    name: str,
    n: int,
    nodes: int = 1,
    gpus_per_node: int = 1,
    mode: ExecutionMode | str = ExecutionMode.SIMULATE,
    context_kwargs: Optional[Dict] = None,
    **workload_params,
) -> Tuple[BenchPoint, RuntimeStats]:
    """Run one workload once; return its figure point and the run's :class:`RuntimeStats`.

    A functional run's result is checked against the workload's NumPy
    reference, raising :class:`VerificationError` on a mismatch.
    """
    ctx = make_context(nodes, gpus_per_node, mode, **(context_kwargs or {}))
    workload = create_workload(name, ctx, n, **workload_params)
    result = workload.run()
    point = BenchPoint(
        benchmark=name,
        nodes=nodes,
        gpus_per_node=gpus_per_node,
        problem_size=float(n),
        data_gb=result.data_bytes / 1e9,
        elapsed=result.elapsed,
        throughput=result.throughput,
    )
    stats = ctx.stats()
    if ctx.functional and not workload.verify():
        raise VerificationError(
            f"{name}: the functional result does not match the NumPy reference"
        )
    return point, stats


def gpu_memory_limit(gpus: int = 1) -> int:
    """Combined GPU memory of ``gpus`` P100s in bytes (the first vertical bar)."""
    return gpus * azure_nc24rsv2(1, 1).node.gpus[0].memory_bytes


def host_memory_limit(nodes: int = 1) -> int:
    """Combined host memory of ``nodes`` nodes in bytes (the second vertical bar)."""
    return nodes * azure_nc24rsv2(1, 1).node.host_memory_bytes


def format_table(points: Sequence[BenchPoint], title: str = "") -> str:
    """Human-readable table, one row per point, grouped the way the figures are."""
    lines: List[str] = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    header = (
        f"{'benchmark':>14s} {'nodes':>5s} {'gpus/node':>9s} {'n':>12s} "
        f"{'data[GB]':>9s} {'time[s]':>10s} {'throughput[n/s]':>16s}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for p in points:
        lines.append(
            f"{p.benchmark:>14s} {p.nodes:>5d} {p.gpus_per_node:>9d} {p.problem_size:>12.3g} "
            f"{p.data_gb:>9.2f} {p.elapsed:>10.4f} {p.throughput:>16.3e}"
        )
    return "\n".join(lines)


def write_json(path: str, payload) -> str:
    """Write ``payload`` in the repo's machine-readable result convention.

    One definition of the format (indented, key-sorted, trailing newline) so
    ``benchmarks/results/*.json``, CLI ``--stats-json`` dumps and the perf
    harness baseline all stay diffable with the same tooling.
    """
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json_text(payload) + "\n")
    return path


def json_text(payload) -> str:
    """The result-convention JSON serialisation as a string."""
    return json.dumps(payload, indent=2, sort_keys=True)

