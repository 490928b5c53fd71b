"""Run helpers shared by the CLI, the gate harness and the examples.

``make_context`` builds a context on the paper's node type and
``run_workload_with_stats`` runs one registered workload on it; the paper's
figures themselves are checked by the ``paper`` and ``paper_full`` gates of
``benchmarks/gates.py``.
"""

from .harness import (
    BenchPoint,
    format_table,
    gpu_memory_limit,
    host_memory_limit,
    json_text,
    make_context,
    run_workload_with_stats,
    scaled,
    write_json,
)

__all__ = [
    "BenchPoint",
    "format_table",
    "gpu_memory_limit",
    "host_memory_limit",
    "json_text",
    "make_context",
    "run_workload_with_stats",
    "scaled",
    "write_json",
]
