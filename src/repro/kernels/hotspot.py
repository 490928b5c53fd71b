"""HotSpot thermal-simulation benchmark (from Rodinia, Sec. 4.2).

Models the temperature of an integrated circuit on a ``sqrt(n) x sqrt(n)``
grid with 10 iterations of a 3x3 stencil.  The temperature grids use a
stencil distribution with a one-cell halo along the partitioned axis (50M
points per chunk by default, as in the paper); the halo cells are replicated
and exchanged automatically by the runtime in every iteration — the DAG of
Fig. 4 is exactly this pattern.  HotSpot is data-intensive: a handful of
flops per point against ~28 bytes of traffic.
"""

from __future__ import annotations

import math

import numpy as np

from ..core.distributions import BlockWorkDist, RowDist, StencilDist
from ..core.kernel import KernelDef
from ..perfmodel.costs import KernelCost
from .base import Workload, align_extent, register_workload

__all__ = [
    "HotSpotWorkload",
    "HotSpotDoubleWorkload",
    "HotSpotTripleWorkload",
    "hotspot_reference_step",
    "hotspot2_reference_step",
    "hotspot3_reference_step",
]

HOTSPOT_COST = KernelCost(flops_per_thread=15.0, bytes_per_thread=28.0, efficiency=0.75,
                          cpu_efficiency=0.5)

#: coefficients of the simplified HotSpot update
CAP = 0.5
AMBIENT = 80.0


def hotspot_reference_step(temp: np.ndarray, power: np.ndarray) -> np.ndarray:
    """One reference step of the simplified 5-point HotSpot update."""
    padded = np.pad(temp.astype(np.float64), 1, mode="edge")
    north = padded[:-2, 1:-1]
    south = padded[2:, 1:-1]
    west = padded[1:-1, :-2]
    east = padded[1:-1, 2:]
    centre = temp.astype(np.float64)
    return (
        centre + CAP * (north + south + east + west - 4.0 * centre + power + 0.01 * (AMBIENT - centre))
    ).astype(np.float32)


def _hotspot_kernel(lc, rows, cols, temp_in, power, temp_out):
    ii, jj = lc.global_grid()
    mask = (ii < rows) & (jj < cols)
    i, j = ii[mask], jj[mask]
    if i.size == 0:
        return
    centre = temp_in.gather(i, j).astype(np.float64)
    north = temp_in.gather(np.maximum(i - 1, 0), j).astype(np.float64)
    south = temp_in.gather(np.minimum(i + 1, rows - 1), j).astype(np.float64)
    west = temp_in.gather(i, np.maximum(j - 1, 0)).astype(np.float64)
    east = temp_in.gather(i, np.minimum(j + 1, cols - 1)).astype(np.float64)
    p = power.gather(i, j).astype(np.float64)
    new = centre + CAP * (north + south + east + west - 4.0 * centre + p + 0.01 * (AMBIENT - centre))
    temp_out.scatter(i, j, new.astype(np.float32))


@register_workload
class HotSpotWorkload(Workload):
    """sqrt(n) x sqrt(n) grid, 10 stencil iterations, halo replication per chunk."""

    name = "hotspot"
    compute_intensive = False
    iterations = 10

    DEFAULT_CHUNK = 50_000_000

    def __init__(self, ctx, n, chunk_elems: int | None = None, iterations: int | None = None,
                 seed: int = 0, **params):
        super().__init__(ctx, n, **params)
        self.side = max(2, int(math.isqrt(self.n)))
        chunk_elems = chunk_elems or self.DEFAULT_CHUNK
        # 16x16 thread blocks: keep chunk boundaries on block boundaries
        self.rows_per_chunk = align_extent(max(1, min(self.side, chunk_elems // self.side)), 16)
        if iterations is not None:
            self.iterations = iterations
        self.seed = seed

    def prepare(self) -> None:
        """Create the distributed arrays and compile the kernels."""
        ctx = self.ctx
        halo_dist = StencilDist(self.rows_per_chunk, halo=1, axis=0)
        power_dist = RowDist(self.rows_per_chunk)
        shape = (self.side, self.side)
        if ctx.functional:
            rng = np.random.RandomState(self.seed)
            temp0 = (60.0 + 10.0 * rng.rand(*shape)).astype(np.float32)
            power0 = rng.rand(*shape).astype(np.float32)
            self.temp_a = ctx.from_numpy(temp0, halo_dist, name="hotspot_temp_a")
            self.power = ctx.from_numpy(power0, power_dist, name="hotspot_power")
            self._initial_temp = temp0
            self._initial_power = power0
        else:
            self.temp_a = ctx.zeros(shape, halo_dist, dtype="float32", name="hotspot_temp_a")
            self.power = ctx.zeros(shape, power_dist, dtype="float32", name="hotspot_power")
        self.temp_b = ctx.zeros(shape, halo_dist, dtype="float32", name="hotspot_temp_b")
        self.kernel = (
            KernelDef("hotspot_step", func=_hotspot_kernel)
            .param_value("rows", "int64")
            .param_value("cols", "int64")
            .param_array("temp_in", "float32")
            .param_array("power", "float32")
            .param_array("temp_out", "float32")
            .annotate(
                "global [i, j] => read temp_in[i-1:i+1, j-1:j+1], read power[i,j], "
                "write temp_out[i,j]"
            )
            .with_cost(HOTSPOT_COST)
            .compile(ctx)
        )

    def submit(self) -> None:
        """Queue every kernel launch of the benchmark (asynchronously)."""
        work = BlockWorkDist(self.rows_per_chunk, axis=0)
        src, dst = self.temp_a, self.temp_b
        for _ in range(self.iterations):
            self.kernel.launch(
                (self.side, self.side), (16, 16), work,
                (self.side, self.side, src, self.power, dst),
            )
            src, dst = dst, src
        self._final = src

    def data_bytes(self) -> int:
        """Problem size in bytes (the throughput denominator)."""
        return 3 * self.side * self.side * 4

    def verify(self) -> bool:
        """Check gathered results against the NumPy reference (functional mode)."""
        result = self.ctx.gather(self._final)
        ref = self._initial_temp
        for _ in range(self.iterations):
            ref = hotspot_reference_step(ref, self._initial_power)
        return bool(np.allclose(result, ref, rtol=1e-4, atol=1e-3))


# --------------------------------------------------------------------------- #
# HotSpot double-stencil: the operator-split variant the fusion pass targets
# --------------------------------------------------------------------------- #
#: cost split of HOTSPOT_COST over the two half-kernels
STENCIL_HALF_COST = KernelCost(flops_per_thread=9.0, bytes_per_thread=24.0, efficiency=0.75,
                               cpu_efficiency=0.5)
APPLY_HALF_COST = KernelCost(flops_per_thread=6.0, bytes_per_thread=20.0, efficiency=0.75,
                             cpu_efficiency=0.5)


def hotspot2_reference_step(temp: np.ndarray, power: np.ndarray) -> np.ndarray:
    """One reference step of the operator-split (two-kernel) HotSpot update."""
    padded = np.pad(temp.astype(np.float64), 1, mode="edge")
    nsum = (
        padded[:-2, 1:-1] + padded[2:, 1:-1] + padded[1:-1, :-2] + padded[1:-1, 2:]
        - 4.0 * temp.astype(np.float64)
    )
    mid = nsum.astype(np.float32)  # materialised intermediate (float32)
    centre = temp.astype(np.float64)
    return (
        centre + CAP * (mid.astype(np.float64) + power + 0.01 * (AMBIENT - centre))
    ).astype(np.float32)


def _hotspot2_stencil_kernel(lc, rows, cols, temp_in, mid):
    ii, jj = lc.global_grid()
    mask = (ii < rows) & (jj < cols)
    i, j = ii[mask], jj[mask]
    if i.size == 0:
        return
    centre = temp_in.gather(i, j).astype(np.float64)
    north = temp_in.gather(np.maximum(i - 1, 0), j).astype(np.float64)
    south = temp_in.gather(np.minimum(i + 1, rows - 1), j).astype(np.float64)
    west = temp_in.gather(i, np.maximum(j - 1, 0)).astype(np.float64)
    east = temp_in.gather(i, np.minimum(j + 1, cols - 1)).astype(np.float64)
    mid.scatter(i, j, (north + south + west + east - 4.0 * centre).astype(np.float32))


def _hotspot2_apply_kernel(lc, rows, cols, temp_in, mid, power, temp_out):
    ii, jj = lc.global_grid()
    mask = (ii < rows) & (jj < cols)
    i, j = ii[mask], jj[mask]
    if i.size == 0:
        return
    centre = temp_in.gather(i, j).astype(np.float64)
    nsum = mid.gather(i, j).astype(np.float64)
    p = power.gather(i, j).astype(np.float64)
    new = centre + CAP * (nsum + p + 0.01 * (AMBIENT - centre))
    temp_out.scatter(i, j, new.astype(np.float32))


@register_workload
class HotSpotDoubleWorkload(Workload):
    """HotSpot with each iteration split into two back-to-back launches.

    The 3x3 stencil is computed into a materialised intermediate ``mid``
    (neighbour sums) and a second, pointwise kernel applies the update — the
    classic operator-split pattern of multi-stage stencil codes (and the CGC
    application's per-iteration kernel chains).  The consumer reads ``mid``
    exactly where its superblock's producer wrote it, so the launch window's
    fusion pass can merge every (stencil, apply) pair into one task per
    superblock; the halo exchange between *iterations* stays, as it must.

    ``mid`` is deliberately declared at half the superblock granularity
    (intermediates are rarely hand-aligned to the work distribution), so a
    superblock's write region spans two chunks, mostly homed on other GPUs.
    The first stencil launch only writes ``mid`` and overwrites all of it,
    so ``Context.launch`` re-chunks it to the superblocks; every launch then
    writes and reads ``mid`` in place and no ``mid`` byte moves.
    """

    name = "hotspot2"
    compute_intensive = False
    iterations = 10

    DEFAULT_CHUNK = HotSpotWorkload.DEFAULT_CHUNK

    def __init__(self, ctx, n, chunk_elems: int | None = None, iterations: int | None = None,
                 seed: int = 0, **params):
        super().__init__(ctx, n, **params)
        self.side = max(2, int(math.isqrt(self.n)))
        chunk_elems = chunk_elems or self.DEFAULT_CHUNK
        self.rows_per_chunk = align_extent(max(1, min(self.side, chunk_elems // self.side)), 16)
        #: intermediate chunk rows: half the superblock granularity
        self.mid_rows = align_extent(max(16, self.rows_per_chunk // 2), 16)
        if iterations is not None:
            self.iterations = iterations
        self.seed = seed

    def prepare(self) -> None:
        """Create the distributed arrays and compile the kernels."""
        ctx = self.ctx
        halo_dist = StencilDist(self.rows_per_chunk, halo=1, axis=0)
        power_dist = RowDist(self.rows_per_chunk)
        mid_dist = RowDist(self.mid_rows)
        shape = (self.side, self.side)
        if ctx.functional:
            rng = np.random.RandomState(self.seed)
            temp0 = (60.0 + 10.0 * rng.rand(*shape)).astype(np.float32)
            power0 = rng.rand(*shape).astype(np.float32)
            self.temp_a = ctx.from_numpy(temp0, halo_dist, name="hotspot2_temp_a")
            self.power = ctx.from_numpy(power0, power_dist, name="hotspot2_power")
            self._initial_temp = temp0
            self._initial_power = power0
        else:
            self.temp_a = ctx.zeros(shape, halo_dist, dtype="float32", name="hotspot2_temp_a")
            self.power = ctx.zeros(shape, power_dist, dtype="float32", name="hotspot2_power")
        self.temp_b = ctx.zeros(shape, halo_dist, dtype="float32", name="hotspot2_temp_b")
        self.mid = ctx.zeros(shape, mid_dist, dtype="float32", name="hotspot2_mid")
        self.stencil = (
            KernelDef("hotspot2_stencil", func=_hotspot2_stencil_kernel)
            .param_value("rows", "int64")
            .param_value("cols", "int64")
            .param_array("temp_in", "float32")
            .param_array("mid", "float32")
            .annotate(
                "global [i, j] => read temp_in[i-1:i+1, j-1:j+1], write mid[i,j]"
            )
            .with_cost(STENCIL_HALF_COST)
            .compile(ctx)
        )
        self.apply = (
            KernelDef("hotspot2_apply", func=_hotspot2_apply_kernel)
            .param_value("rows", "int64")
            .param_value("cols", "int64")
            .param_array("temp_in", "float32")
            .param_array("mid", "float32")
            .param_array("power", "float32")
            .param_array("temp_out", "float32")
            .annotate(
                "global [i, j] => read temp_in[i,j], read mid[i,j], "
                "read power[i,j], write temp_out[i,j]"
            )
            .with_cost(APPLY_HALF_COST)
            .compile(ctx)
        )

    def submit(self) -> None:
        """Queue every kernel launch of the benchmark (asynchronously)."""
        work = BlockWorkDist(self.rows_per_chunk, axis=0)
        grid, block = (self.side, self.side), (16, 16)
        src, dst = self.temp_a, self.temp_b
        for _ in range(self.iterations):
            self.stencil.launch(grid, block, work, (self.side, self.side, src, self.mid))
            self.apply.launch(
                grid, block, work,
                (self.side, self.side, src, self.mid, self.power, dst),
            )
            src, dst = dst, src
        self._final = src

    def data_bytes(self) -> int:
        """Problem size in bytes (the throughput denominator)."""
        return 4 * self.side * self.side * 4

    def verify(self) -> bool:
        """Check gathered results against the NumPy reference (functional mode)."""
        result = self.ctx.gather(self._final)
        ref = self._initial_temp
        for _ in range(self.iterations):
            ref = hotspot2_reference_step(ref, self._initial_power)
        return bool(np.allclose(result, ref, rtol=1e-4, atol=1e-3))


# --------------------------------------------------------------------------- #
# HotSpot triple stencil: the >2-launch chain the chain-fusion pass targets
# --------------------------------------------------------------------------- #
#: cost split of HOTSPOT_COST over the three third-kernels
STENCIL_THIRD_COST = KernelCost(flops_per_thread=7.0, bytes_per_thread=20.0, efficiency=0.75,
                                cpu_efficiency=0.5)
SOURCE_THIRD_COST = KernelCost(flops_per_thread=3.0, bytes_per_thread=12.0, efficiency=0.75,
                               cpu_efficiency=0.5)
APPLY_THIRD_COST = KernelCost(flops_per_thread=5.0, bytes_per_thread=16.0, efficiency=0.75,
                              cpu_efficiency=0.5)


def hotspot3_reference_step(temp: np.ndarray, power: np.ndarray) -> np.ndarray:
    """One reference step of the three-kernel (stencil/source/apply) update."""
    padded = np.pad(temp.astype(np.float64), 1, mode="edge")
    nsum = (
        padded[:-2, 1:-1] + padded[2:, 1:-1] + padded[1:-1, :-2] + padded[1:-1, 2:]
        - 4.0 * temp.astype(np.float64)
    )
    mid1 = nsum.astype(np.float32)  # materialised intermediate (float32)
    mid2 = (mid1.astype(np.float64) + power).astype(np.float32)
    centre = temp.astype(np.float64)
    return (
        centre + CAP * (mid2.astype(np.float64) + 0.01 * (AMBIENT - centre))
    ).astype(np.float32)


def _hotspot3_source_kernel(lc, rows, cols, mid1, power, mid2):
    ii, jj = lc.global_grid()
    mask = (ii < rows) & (jj < cols)
    i, j = ii[mask], jj[mask]
    if i.size == 0:
        return
    nsum = mid1.gather(i, j).astype(np.float64)
    p = power.gather(i, j).astype(np.float64)
    mid2.scatter(i, j, (nsum + p).astype(np.float32))


def _hotspot3_apply_kernel(lc, rows, cols, temp_in, mid2, temp_out):
    ii, jj = lc.global_grid()
    mask = (ii < rows) & (jj < cols)
    i, j = ii[mask], jj[mask]
    if i.size == 0:
        return
    centre = temp_in.gather(i, j).astype(np.float64)
    src = mid2.gather(i, j).astype(np.float64)
    new = centre + CAP * (src + 0.01 * (AMBIENT - centre))
    temp_out.scatter(i, j, new.astype(np.float32))


@register_workload
class HotSpotTripleWorkload(Workload):
    """HotSpot with each iteration split into three back-to-back launches.

    The 3x3 stencil materialises the neighbour sums (``mid1``), a pointwise
    kernel adds the power source term (``mid2``) and a third kernel applies
    the update — a three-stage operator split, the shortest chain a pairwise
    fusion pass cannot fully merge.  The middle and last kernels read their
    predecessor's output exactly where it was written, so the launch window's
    *chain* fusion pass merges every (stencil, source, apply) triple into one
    task per superblock; the halo exchange between *iterations* stays, as it
    must.

    Both intermediates are declared at half the superblock granularity (as
    in :class:`HotSpotDoubleWorkload`), and the first launch that writes
    each re-chunks it to the superblocks, so the chains write them in place;
    depth drains keep each three-launch chain whole.  On 2×2 GPUs at 2.16e9
    elements a 20-iteration pass takes 0.97 virtual seconds with both,
    against 34.4 without.
    """

    name = "hotspot3"
    compute_intensive = False
    iterations = 10

    DEFAULT_CHUNK = HotSpotWorkload.DEFAULT_CHUNK

    def __init__(self, ctx, n, chunk_elems: int | None = None, iterations: int | None = None,
                 seed: int = 0, **params):
        super().__init__(ctx, n, **params)
        self.side = max(2, int(math.isqrt(self.n)))
        chunk_elems = chunk_elems or self.DEFAULT_CHUNK
        self.rows_per_chunk = align_extent(max(1, min(self.side, chunk_elems // self.side)), 16)
        #: intermediate chunk rows: half the superblock granularity
        self.mid_rows = align_extent(max(16, self.rows_per_chunk // 2), 16)
        if iterations is not None:
            self.iterations = iterations
        self.seed = seed

    def prepare(self) -> None:
        """Create the distributed arrays and compile the kernels."""
        ctx = self.ctx
        halo_dist = StencilDist(self.rows_per_chunk, halo=1, axis=0)
        power_dist = RowDist(self.rows_per_chunk)
        mid_dist = RowDist(self.mid_rows)
        shape = (self.side, self.side)
        if ctx.functional:
            rng = np.random.RandomState(self.seed)
            temp0 = (60.0 + 10.0 * rng.rand(*shape)).astype(np.float32)
            power0 = rng.rand(*shape).astype(np.float32)
            self.temp_a = ctx.from_numpy(temp0, halo_dist, name="hotspot3_temp_a")
            self.power = ctx.from_numpy(power0, power_dist, name="hotspot3_power")
            self._initial_temp = temp0
            self._initial_power = power0
        else:
            self.temp_a = ctx.zeros(shape, halo_dist, dtype="float32", name="hotspot3_temp_a")
            self.power = ctx.zeros(shape, power_dist, dtype="float32", name="hotspot3_power")
        self.temp_b = ctx.zeros(shape, halo_dist, dtype="float32", name="hotspot3_temp_b")
        self.mid1 = ctx.zeros(shape, mid_dist, dtype="float32", name="hotspot3_mid1")
        self.mid2 = ctx.zeros(shape, mid_dist, dtype="float32", name="hotspot3_mid2")
        self.stencil = (
            KernelDef("hotspot3_stencil", func=_hotspot2_stencil_kernel)
            .param_value("rows", "int64")
            .param_value("cols", "int64")
            .param_array("temp_in", "float32")
            .param_array("mid", "float32")
            .annotate(
                "global [i, j] => read temp_in[i-1:i+1, j-1:j+1], write mid[i,j]"
            )
            .with_cost(STENCIL_THIRD_COST)
            .compile(ctx)
        )
        self.source = (
            KernelDef("hotspot3_source", func=_hotspot3_source_kernel)
            .param_value("rows", "int64")
            .param_value("cols", "int64")
            .param_array("mid1", "float32")
            .param_array("power", "float32")
            .param_array("mid2", "float32")
            .annotate(
                "global [i, j] => read mid1[i,j], read power[i,j], write mid2[i,j]"
            )
            .with_cost(SOURCE_THIRD_COST)
            .compile(ctx)
        )
        self.apply = (
            KernelDef("hotspot3_apply", func=_hotspot3_apply_kernel)
            .param_value("rows", "int64")
            .param_value("cols", "int64")
            .param_array("temp_in", "float32")
            .param_array("mid2", "float32")
            .param_array("temp_out", "float32")
            .annotate(
                "global [i, j] => read temp_in[i,j], read mid2[i,j], write temp_out[i,j]"
            )
            .with_cost(APPLY_THIRD_COST)
            .compile(ctx)
        )

    def submit(self) -> None:
        """Queue every kernel launch of the benchmark (asynchronously)."""
        for _ in self.steps():
            pass

    def steps(self):
        """One serving quantum per time step (same launches as submit)."""
        work = BlockWorkDist(self.rows_per_chunk, axis=0)
        grid, block = (self.side, self.side), (16, 16)
        src, dst = self.temp_a, self.temp_b
        for _ in range(self.iterations):
            self.stencil.launch(grid, block, work, (self.side, self.side, src, self.mid1))
            self.source.launch(
                grid, block, work, (self.side, self.side, self.mid1, self.power, self.mid2)
            )
            self.apply.launch(
                grid, block, work, (self.side, self.side, src, self.mid2, dst)
            )
            src, dst = dst, src
            self._final = src
            yield

    def data_bytes(self) -> int:
        """Problem size in bytes (the throughput denominator)."""
        return 5 * self.side * self.side * 4

    def verify(self) -> bool:
        """Check gathered results against the NumPy reference (functional mode)."""
        result = self.ctx.gather(self._final)
        ref = self._initial_temp
        for _ in range(self.iterations):
            ref = hotspot3_reference_step(ref, self._initial_power)
        return bool(np.allclose(result, ref, rtol=1e-4, atol=1e-3))
