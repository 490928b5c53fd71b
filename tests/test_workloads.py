"""Functional correctness of the eight benchmark workloads on small problems,
plus behaviour of the workload registry and the simulate-mode harness path."""

import tracemalloc

import numpy as np
import pytest

from repro import Context, ExecutionMode, azure_nc24rsv2
from repro.kernels import BENCHMARK_ORDER, WORKLOADS, create_workload, kmeans_reference
from repro.kernels.kmeans import CLUSTERS as KMEANS_CLUSTERS, FEATURES as KMEANS_FEATURES

#: small problem configurations that run quickly in functional mode
SMALL_CONFIGS = {
    "md5": dict(n=4000),
    "nbody": dict(n=400, iterations=2),
    "correlator": dict(n=10, antennas=6, channels_per_chunk=3),
    "kmeans": dict(n=400, chunk_elems=110, iterations=2, k=5),
    "hotspot": dict(n=40 * 40, chunk_elems=40 * 10, iterations=2),
    "gemm": dict(n=36 ** 3, chunk_elems=36 * 9),
    "spmv": dict(n=60 ** 2, chunk_elems=300, iterations=2),
    "black_scholes": dict(n=600, chunk_elems=200),
    "expressions": dict(n=1024, chunk_elems=256),
}

CLUSTERS = [(1, 1), (1, 4), (2, 2)]


def test_registry_contains_all_paper_benchmarks_plus_cgc():
    assert set(BENCHMARK_ORDER) <= set(WORKLOADS)
    # the paper's eight benchmarks plus the operator-API expressions workload
    assert len(BENCHMARK_ORDER) == 9
    assert "cgc" in WORKLOADS
    with pytest.raises(KeyError):
        create_workload("does-not-exist", None, 1)


@pytest.mark.parametrize("name", BENCHMARK_ORDER)
@pytest.mark.parametrize("nodes,gpus", CLUSTERS)
def test_workload_produces_correct_results(name, nodes, gpus):
    ctx = Context(azure_nc24rsv2(nodes=nodes, gpus_per_node=gpus))
    workload = create_workload(name, ctx, **SMALL_CONFIGS[name])
    result = workload.run()
    assert result.elapsed > 0
    assert result.throughput > 0
    assert result.gpus == nodes * gpus
    assert workload.verify(), f"{name} produced wrong results on {nodes}x{gpus}"


@pytest.mark.parametrize("name", BENCHMARK_ORDER)
def test_workload_runs_in_simulate_mode_at_scale(name):
    """The harness path: paper-scale n, no data materialised, virtual time > 0."""
    scale = {
        "md5": 10**10,
        "nbody": 10**10,
        "correlator": 4096,
        "kmeans": 10**8,
        "hotspot": 10**8,
        "gemm": 10**12,
        "spmv": 10**10,
        "black_scholes": 10**8,
        "expressions": 10**8,
    }
    ctx = Context(azure_nc24rsv2(nodes=1, gpus_per_node=4), mode=ExecutionMode.SIMULATE)
    workload = create_workload(name, ctx, scale[name])
    result = workload.run()
    assert result.elapsed > 0
    assert result.data_bytes >= 0
    assert ctx.stats().kernel_launches > 0


def test_workload_result_reports_cluster_shape():
    ctx = Context(azure_nc24rsv2(nodes=2, gpus_per_node=2), mode=ExecutionMode.SIMULATE)
    result = create_workload("md5", ctx, 10**9).run()
    assert result.nodes == 2
    assert result.gpus == 4
    assert "md5" in str(result)


def test_more_gpus_do_not_slow_down_compute_benchmarks():
    def elapsed(gpus):
        ctx = Context(azure_nc24rsv2(nodes=1, gpus_per_node=gpus), mode=ExecutionMode.SIMULATE)
        return create_workload("md5", ctx, 2 * 10**10).run().elapsed

    assert elapsed(4) < elapsed(1)


def test_spilling_degrades_data_intensive_benchmark():
    """Black-Scholes beyond GPU memory loses most of its throughput (Fig. 12)."""
    def throughput(n):
        ctx = Context(azure_nc24rsv2(nodes=1, gpus_per_node=1), mode=ExecutionMode.SIMULATE)
        return create_workload("black_scholes", ctx, n).run().throughput

    fits = throughput(400_000_000)     # ~8 GB
    spills = throughput(1_600_000_000)  # ~32 GB
    assert spills < 0.5 * fits


@pytest.mark.slow
def test_spilling_tolerated_by_compute_intensive_benchmark():
    """Correlator keeps most of its throughput beyond GPU memory (Sec. 4.3)."""
    def throughput(n):
        ctx = Context(azure_nc24rsv2(nodes=1, gpus_per_node=1), mode=ExecutionMode.SIMULATE)
        return create_workload("correlator", ctx, n).run().throughput

    assert throughput(32768) > 0.7 * throughput(16384)


def _kmeans_inputs(n):
    rng = np.random.default_rng(n)
    points = rng.random((n, KMEANS_FEATURES), dtype=np.float32)
    return points, points[rng.integers(0, n, KMEANS_CLUSTERS)]


def _kmeans_unblocked(points, centroids, iterations):
    """The K-Means reference's formula, with distances over all points at once."""
    centroids = centroids.astype(np.float64).copy()
    for _ in range(iterations):
        dist = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        best = dist.argmin(axis=1)
        sums = np.zeros_like(centroids)
        counts = np.zeros(centroids.shape[0])
        np.add.at(sums, best, points)
        np.add.at(counts, best, 1.0)
        centroids = sums / np.maximum(counts, 1.0)[:, None]
    return centroids


@pytest.mark.parametrize("n", [1, 7, 1023, 1024, 1025, 5000, 8192])
def test_kmeans_reference_matches_the_unblocked_formula_bit_for_bit(n):
    points, centroids = _kmeans_inputs(n)
    expected = _kmeans_unblocked(points, centroids, 3)
    assert kmeans_reference(points, centroids, 3).tobytes() == expected.tobytes()


def test_kmeans_reference_needs_no_large_temporary():
    """Over all 8,192 points at once the distances take a 10 MiB temporary,
    whose free moves glibc's mmap threshold and so the process's peak RSS."""
    points, centroids = _kmeans_inputs(8192)
    tracemalloc.start()
    try:
        kmeans_reference(points, centroids, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 1024 ** 2
