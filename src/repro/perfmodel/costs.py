"""Cost functions used by the simulator to assign durations to tasks."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Union

from ..hardware.specs import CPUSpec, GPUSpec

__all__ = [
    "KernelCost",
    "OverheadModel",
    "kernel_time",
    "cpu_time",
    "transfer_time",
    "DEFAULT_OVERHEADS",
]

#: Either a constant or a callable of the launch's scalar arguments.
CostExpr = Union[float, Callable[[Mapping[str, float]], float]]


def _evaluate(expr: CostExpr, scalars: Mapping[str, float]) -> float:
    if callable(expr):
        return float(expr(scalars))
    return float(expr)


@dataclass(frozen=True)
class KernelCost:
    """Per-thread arithmetic/memory cost of a kernel.

    ``flops_per_thread`` and ``bytes_per_thread`` may be constants or callables
    receiving the launch's scalar arguments by name (e.g. the number of bodies
    for N-Body, whose per-thread work depends on a runtime parameter).

    ``efficiency`` is the fraction of the roofline bound the kernel achieves in
    practice; compute-bound benchmarks like GEMM or the correlator typically
    reach a higher fraction of peak than latency-bound ones.
    """

    flops_per_thread: CostExpr = 1.0
    bytes_per_thread: CostExpr = 0.0
    efficiency: float = 0.7
    cpu_efficiency: float = 0.5

    def flops(self, threads: int, scalars: Mapping[str, float]) -> float:
        """Floating-point operations for ``threads`` kernel threads."""
        return threads * _evaluate(self.flops_per_thread, scalars)

    def bytes(self, threads: int, scalars: Mapping[str, float]) -> float:
        """Bytes of memory traffic for ``threads`` kernel threads."""
        return threads * _evaluate(self.bytes_per_thread, scalars)


@dataclass(frozen=True)
class OverheadModel:
    """Fixed runtime overheads, independent of problem size.

    * ``plan_per_task`` — time the driver spends constructing one DAG task
      (plan construction happens on the driver and overlaps with execution).
    * ``restamp_per_task`` — driver time per task when a launch is re-stamped
      from a cached plan template instead of planned from scratch (fresh ids
      and conflict deps only; the analysis passes are skipped).
    * ``schedule_per_task`` — time a worker's scheduler spends per task it
      stages and dispatches to an executor (staging requests, readiness
      checks); bookkeeping tasks (create, delete, combine) are applied
      without it.
    * ``launch_fixed`` — additional fixed cost of one kernel-launch task
      beyond the device launch latency (wrapper argument marshalling).
    * ``rpc_latency`` — latency of one driver→worker control message.
    """

    plan_per_task: float = 20e-6
    restamp_per_task: float = 4e-6
    schedule_per_task: float = 60e-6
    launch_fixed: float = 30e-6
    rpc_latency: float = 50e-6


DEFAULT_OVERHEADS = OverheadModel()


def kernel_time(
    spec: GPUSpec,
    cost: KernelCost,
    threads: int,
    scalars: Mapping[str, float],
) -> float:
    """Roofline execution time of ``threads`` threads of a kernel on one GPU."""
    flops = cost.flops(threads, scalars)
    nbytes = cost.bytes(threads, scalars)
    compute = flops / spec.peak_flops
    memory = nbytes / spec.mem_bandwidth
    return max(compute, memory) / max(cost.efficiency, 1e-6) + spec.launch_latency


def cpu_time(
    spec: CPUSpec,
    cost: KernelCost,
    threads: int,
    scalars: Mapping[str, float],
) -> float:
    """Roofline execution time of the same work on the host CPU (NumPy baseline)."""
    flops = cost.flops(threads, scalars)
    nbytes = cost.bytes(threads, scalars)
    compute = flops / spec.peak_flops
    memory = nbytes / spec.mem_bandwidth
    return max(compute, memory) / max(cost.cpu_efficiency, 1e-6)


def transfer_time(nbytes: int, bandwidth: float, latency: float = 0.0) -> float:
    """Unshared transfer time; shared-bandwidth effects come from the simulator."""
    if bandwidth <= 0:
        raise ValueError("bandwidth must be positive")
    return latency + nbytes / bandwidth
