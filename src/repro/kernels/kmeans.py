"""K-Means clustering benchmark (from Rodinia, Sec. 4.2).

``n`` records with 4 features are clustered into ``k = 40`` clusters over
5 iterations.  Records are row-distributed with 25M records per chunk; the
centroids, per-cluster sums and per-cluster counts are small and replicated.
The original Rodinia code recomputed the centroids on the CPU; as in the
paper, this version keeps everything on the GPUs thanks to ``reduce(+)``
annotations: the assignment kernel reduces feature sums and counts per
cluster, and a tiny second kernel divides them to obtain the new centroids.

The cluster a record contributes to is data dependent, so the annotation
conservatively declares the whole ``sums``/``counts`` arrays as the reduce
region — exactly the kind of over-approximation Sec. 2.5 describes.
"""

from __future__ import annotations

import numpy as np

from ..core.distributions import (
    BlockDist,
    BlockWorkDist,
    ReplicatedDist,
    RowDist,
    TileWorkDist,
)
from ..core.kernel import KernelDef
from ..perfmodel.costs import KernelCost
from .base import Workload, align_extent, register_workload

__all__ = ["KMeansWorkload", "KMeansTwoPhaseWorkload", "kmeans_reference"]

FEATURES = 4
CLUSTERS = 40

#: distance evaluation against 40 centroids x 4 features; the low efficiency
#: reflects the atomics-heavy accumulation of the real kernel and puts the
#: per-chunk kernel time in the regime where host-memory spilling can still be
#: overlapped (the paper finds K-Means benefits from spilling on one GPU).
KMEANS_COST = KernelCost(
    flops_per_thread=3.0 * CLUSTERS * FEATURES,
    bytes_per_thread=4.0 * FEATURES,
    efficiency=0.02,
    cpu_efficiency=0.04,
)

UPDATE_COST = KernelCost(flops_per_thread=2.0, bytes_per_thread=12.0)


#: points per block of the reference's distance computation, which bounds
#: its (points, clusters, features) float64 temporary to 1.25 MiB
REFERENCE_BLOCK = 1024


def kmeans_reference(points: np.ndarray, centroids: np.ndarray, iterations: int):
    """NumPy reference for ``iterations`` of Lloyd's algorithm.

    Matches the GPU kernels' convention for empty clusters (their centroid
    becomes the zero vector), which keeps reference and kernel bit-for-bit
    comparable.  Distances are computed :data:`REFERENCE_BLOCK` points at a
    time; each point's arithmetic is the same as over all points at once.
    """
    centroids = centroids.astype(np.float64).copy()
    best = np.empty(len(points), dtype=np.intp)
    for _ in range(iterations):
        for start in range(0, len(points), REFERENCE_BLOCK):
            block = points[start:start + REFERENCE_BLOCK]
            dist = ((block[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
            best[start:start + len(block)] = dist.argmin(axis=1)
        sums = np.zeros_like(centroids)
        counts = np.zeros(centroids.shape[0])
        np.add.at(sums, best, points)
        np.add.at(counts, best, 1.0)
        centroids = sums / np.maximum(counts, 1.0)[:, None]
    return centroids


def _assign_kernel(lc, n, k, points, centroids, sums, counts):
    i = lc.global_indices(0)
    i = i[i < n]
    if i.size == 0:
        return
    cols = np.arange(FEATURES)[None, :]
    pts = points.gather(i[:, None], cols).astype(np.float64)
    cent = centroids[0:k, 0:FEATURES].astype(np.float64)
    dist = ((pts[:, None, :] - cent[None, :, :]) ** 2).sum(axis=2)
    best = dist.argmin(axis=1)
    local_sums = np.zeros((k, FEATURES))
    local_counts = np.zeros(k)
    np.add.at(local_sums, best, pts)
    np.add.at(local_counts, best, 1.0)
    # Accumulate into the (identity-initialised) partial-result chunks.
    sums[0:k, 0:FEATURES] = sums[0:k, 0:FEATURES] + local_sums.astype(np.float32)
    counts[0:k] = counts[0:k] + local_counts.astype(np.float32)


def _update_kernel(lc, k, sums, counts, centroids):
    c, f = lc.global_grid()
    mask = (c < k) & (f < FEATURES)
    c, f = c[mask], f[mask]
    if c.size == 0:
        return
    total = counts.gather(c)
    safe = np.where(total > 0, total, 1.0)
    centroids.scatter(c, f, (sums.gather(c, f) / safe).astype(np.float32))


@register_workload
class KMeansWorkload(Workload):
    """n records x 4 features, k=40 clusters, 5 iterations, 25M records per chunk."""

    name = "kmeans"
    compute_intensive = True
    iterations = 5

    DEFAULT_CHUNK = 25_000_000

    def __init__(self, ctx, n, chunk_elems: int | None = None, iterations: int | None = None,
                 k: int = CLUSTERS, seed: int = 0, **params):
        super().__init__(ctx, n, **params)
        chunk_records = chunk_elems or min(self.DEFAULT_CHUNK, max(1, self.n))
        # keep chunk boundaries on thread-block boundaries (256-thread blocks)
        self.chunk_records = align_extent(chunk_records, 256)
        if iterations is not None:
            self.iterations = iterations
        self.k = k
        self.seed = seed

    def prepare(self) -> None:
        """Create the distributed arrays and compile the kernels."""
        ctx = self.ctx
        replicated = ReplicatedDist()
        points_dist = RowDist(self.chunk_records)
        if ctx.functional:
            rng = np.random.RandomState(self.seed)
            pts = rng.rand(self.n, FEATURES).astype(np.float32)
            cent0 = pts[rng.choice(self.n, self.k, replace=self.n < self.k)].copy()
            self.points = ctx.from_numpy(pts, points_dist, name="kmeans_points")
            self.centroids = ctx.from_numpy(cent0, replicated, name="kmeans_centroids")
            self._initial_points = pts
            self._initial_centroids = cent0
        else:
            self.points = ctx.zeros((self.n, FEATURES), points_dist, dtype="float32",
                                    name="kmeans_points")
            self.centroids = ctx.zeros((self.k, FEATURES), replicated, dtype="float32",
                                       name="kmeans_centroids")
        self.sums = ctx.zeros((self.k, FEATURES), replicated, dtype="float32", name="kmeans_sums")
        self.counts = ctx.zeros(self.k, replicated, dtype="float32", name="kmeans_counts")

        self.assign = (
            KernelDef("kmeans_assign", func=_assign_kernel)
            .param_value("n", "int64")
            .param_value("k", "int64")
            .param_array("points", "float32")
            .param_array("centroids", "float32")
            .param_array("sums", "float32")
            .param_array("counts", "float32")
            .annotate(
                "global i => read points[i,:], read centroids[:,:], "
                "reduce(+) sums[:,:], reduce(+) counts[:]"
            )
            .with_cost(KMEANS_COST)
            .compile(self.ctx)
        )
        self.update = (
            KernelDef("kmeans_update", func=_update_kernel)
            .param_value("k", "int64")
            .param_array("sums", "float32")
            .param_array("counts", "float32")
            .param_array("centroids", "float32")
            .annotate("global [c, f] => read sums[c,f], read counts[c], write centroids[c,f]")
            .with_cost(UPDATE_COST)
            .compile(self.ctx)
        )

    def submit(self) -> None:
        """Queue every kernel launch of the benchmark (asynchronously)."""
        for _ in self.steps():
            pass

    def steps(self):
        """One serving quantum per Lloyd iteration (same launches as submit)."""
        assign_work = BlockWorkDist(self.chunk_records)
        update_work = TileWorkDist((self.k, FEATURES))
        for _ in range(self.iterations):
            self.assign.launch(
                self.n, 256, assign_work,
                (self.n, self.k, self.points, self.centroids, self.sums, self.counts),
            )
            self.update.launch(
                (self.k, FEATURES), (8, 4), update_work,
                (self.k, self.sums, self.counts, self.centroids),
            )
            yield

    def data_bytes(self) -> int:
        """Problem size in bytes (the throughput denominator)."""
        return self.n * FEATURES * 4

    def verify(self) -> bool:
        """Check gathered results against the NumPy reference (functional mode)."""
        result = self.ctx.gather(self.centroids)
        expected = kmeans_reference(
            self._initial_points.astype(np.float64),
            self._initial_centroids.astype(np.float64),
            self.iterations,
        )
        return bool(np.allclose(result, expected, rtol=1e-3, atol=1e-4))


# --------------------------------------------------------------------------- #
# Two-phase K-Means: the assign+reduce chain the reduction-tail fusion targets
# --------------------------------------------------------------------------- #
#: cost split of KMEANS_COST over the two phases: the distance evaluation
#: dominates, the accumulation phase is bandwidth-bound.
ASSIGN_PHASE_COST = KernelCost(
    flops_per_thread=3.0 * CLUSTERS * FEATURES,
    bytes_per_thread=4.0 * (FEATURES + 1),
    efficiency=0.02,
    cpu_efficiency=0.04,
)
ACCUMULATE_PHASE_COST = KernelCost(
    flops_per_thread=2.0 * FEATURES,
    bytes_per_thread=4.0 * (FEATURES + 1),
    efficiency=0.05,
    cpu_efficiency=0.08,
)


def _assign2_kernel(lc, n, k, points, centroids, best):
    i = lc.global_indices(0)
    i = i[i < n]
    if i.size == 0:
        return
    cols = np.arange(FEATURES)[None, :]
    pts = points.gather(i[:, None], cols).astype(np.float64)
    cent = centroids[0:k, 0:FEATURES].astype(np.float64)
    dist = ((pts[:, None, :] - cent[None, :, :]) ** 2).sum(axis=2)
    best.scatter(i, dist.argmin(axis=1).astype(np.float32))


def _accumulate_kernel(lc, n, k, points, best, sums, counts):
    i = lc.global_indices(0)
    i = i[i < n]
    if i.size == 0:
        return
    cols = np.arange(FEATURES)[None, :]
    pts = points.gather(i[:, None], cols).astype(np.float64)
    labels = best.gather(i).astype(np.int64)
    local_sums = np.zeros((k, FEATURES))
    local_counts = np.zeros(k)
    np.add.at(local_sums, labels, pts)
    np.add.at(local_counts, labels, 1.0)
    # Accumulate into the (identity-initialised) partial-result chunks.
    sums[0:k, 0:FEATURES] = sums[0:k, 0:FEATURES] + local_sums.astype(np.float32)
    counts[0:k] = counts[0:k] + local_counts.astype(np.float32)


@register_workload
class KMeansTwoPhaseWorkload(Workload):
    """K-Means with the assignment split into a produce + reduce launch pair.

    The first kernel writes every record's nearest-centroid label (``best``),
    the second reads the labels back and ``reduce(+)``-accumulates the
    per-cluster feature sums and counts — the classic map-then-reduce split of
    streaming analytics pipelines.  The labels are read exactly where the
    producing superblock wrote them and the reducer's targets are untouched by
    the producer, so the launch window's chain-fusion pass merges each
    (assign, accumulate) pair into one task per superblock *through the
    reduction*: the per-superblock partial combine runs inside the fused task
    and only the cross-superblock merge remains as separate tasks.

    ``best`` is deliberately declared at half the work-distribution
    granularity (label arrays are rarely hand-aligned).  The first assign
    launch only writes ``best`` and overwrites all of it, so
    ``Context.launch`` re-chunks it to the superblocks and the labels never
    leave their superblock's GPU.
    """

    name = "kmeans2"
    compute_intensive = True
    iterations = 5

    DEFAULT_CHUNK = KMeansWorkload.DEFAULT_CHUNK

    def __init__(self, ctx, n, chunk_elems: int | None = None, iterations: int | None = None,
                 k: int = CLUSTERS, seed: int = 0, quantize: bool = False, **params):
        super().__init__(ctx, n, **params)
        chunk_records = chunk_elems or min(self.DEFAULT_CHUNK, max(1, self.n))
        self.chunk_records = align_extent(chunk_records, 256)
        #: label chunk rows: half the work-distribution granularity
        self.best_records = align_extent(max(256, self.chunk_records // 2), 256)
        if iterations is not None:
            self.iterations = iterations
        self.k = k
        self.seed = seed
        #: Integer-valued float32 points: float32 sums of integers stay exact
        #: below 2**24, so the result is invariant under re-grouping of the
        #: per-device partial reductions.  The chaos benchmark uses this to
        #: demand bit-identical centroids across different device counts
        #: (a failed device changes how partials are grouped).
        self.quantize = quantize

    def prepare(self) -> None:
        """Create the distributed arrays and compile the kernels."""
        ctx = self.ctx
        replicated = ReplicatedDist()
        points_dist = RowDist(self.chunk_records)
        if ctx.functional:
            rng = np.random.RandomState(self.seed)
            if self.quantize:
                pts = rng.randint(0, 256, size=(self.n, FEATURES)).astype(np.float32)
            else:
                pts = rng.rand(self.n, FEATURES).astype(np.float32)
            cent0 = pts[rng.choice(self.n, self.k, replace=self.n < self.k)].copy()
            self.points = ctx.from_numpy(pts, points_dist, name="kmeans2_points")
            self.centroids = ctx.from_numpy(cent0, replicated, name="kmeans2_centroids")
            self._initial_points = pts
            self._initial_centroids = cent0
        else:
            self.points = ctx.zeros((self.n, FEATURES), points_dist, dtype="float32",
                                    name="kmeans2_points")
            self.centroids = ctx.zeros((self.k, FEATURES), replicated, dtype="float32",
                                       name="kmeans2_centroids")
        self.best = ctx.zeros(self.n, BlockDist(self.best_records), dtype="float32",
                              name="kmeans2_best")
        self.sums = ctx.zeros((self.k, FEATURES), replicated, dtype="float32",
                              name="kmeans2_sums")
        self.counts = ctx.zeros(self.k, replicated, dtype="float32", name="kmeans2_counts")

        self.assign = (
            KernelDef("kmeans2_assign", func=_assign2_kernel)
            .param_value("n", "int64")
            .param_value("k", "int64")
            .param_array("points", "float32")
            .param_array("centroids", "float32")
            .param_array("best", "float32")
            .annotate(
                "global i => read points[i,:], read centroids[:,:], write best[i]"
            )
            .with_cost(ASSIGN_PHASE_COST)
            .compile(self.ctx)
        )
        self.accumulate = (
            KernelDef("kmeans2_accumulate", func=_accumulate_kernel)
            .param_value("n", "int64")
            .param_value("k", "int64")
            .param_array("points", "float32")
            .param_array("best", "float32")
            .param_array("sums", "float32")
            .param_array("counts", "float32")
            .annotate(
                "global i => read points[i,:], read best[i], "
                "reduce(+) sums[:,:], reduce(+) counts[:]"
            )
            .with_cost(ACCUMULATE_PHASE_COST)
            .compile(self.ctx)
        )
        self.update = (
            KernelDef("kmeans2_update", func=_update_kernel)
            .param_value("k", "int64")
            .param_array("sums", "float32")
            .param_array("counts", "float32")
            .param_array("centroids", "float32")
            .annotate("global [c, f] => read sums[c,f], read counts[c], write centroids[c,f]")
            .with_cost(UPDATE_COST)
            .compile(self.ctx)
        )

    def submit(self) -> None:
        """Queue every kernel launch of the benchmark (asynchronously)."""
        for _ in self.steps():
            pass

    def steps(self):
        """One serving quantum per iteration (same launches as submit)."""
        assign_work = BlockWorkDist(self.chunk_records)
        update_work = TileWorkDist((self.k, FEATURES))
        for _ in range(self.iterations):
            self.assign.launch(
                self.n, 256, assign_work,
                (self.n, self.k, self.points, self.centroids, self.best),
            )
            self.accumulate.launch(
                self.n, 256, assign_work,
                (self.n, self.k, self.points, self.best, self.sums, self.counts),
            )
            self.update.launch(
                (self.k, FEATURES), (8, 4), update_work,
                (self.k, self.sums, self.counts, self.centroids),
            )
            yield

    def data_bytes(self) -> int:
        """Problem size in bytes (the throughput denominator)."""
        return self.n * (FEATURES + 1) * 4

    def verify(self) -> bool:
        """Check gathered results against the NumPy reference (functional mode)."""
        result = self.ctx.gather(self.centroids)
        expected = kmeans_reference(
            self._initial_points.astype(np.float64),
            self._initial_centroids.astype(np.float64),
            self.iterations,
        )
        return bool(np.allclose(result, expected, rtol=1e-3, atol=1e-4))
