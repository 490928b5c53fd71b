"""Tests for the Context front-end and DistributedArray handles."""

import numpy as np
import pytest

from repro import (
    BlockDist,
    Context,
    ExecutionMode,
    ReplicatedDist,
    RowDist,
    StencilDist,
    azure_nc24rsv2,
)
from repro.core.array import DistributedArray
from repro.kernels import create_workload


def make_ctx(**kw):
    return Context(azure_nc24rsv2(nodes=1, gpus_per_node=2), **kw)


# --------------------------------------------------------------------------- #
# context construction
# --------------------------------------------------------------------------- #
def test_default_context_is_single_gpu_functional():
    ctx = Context()
    assert ctx.device_count == 1
    assert ctx.functional
    assert ctx.virtual_time == 0.0


def test_mode_can_be_given_as_string():
    ctx = make_ctx(mode="simulate")
    assert ctx.mode is ExecutionMode.SIMULATE
    assert not ctx.functional


def test_devices_enumerated_per_node():
    ctx = Context(azure_nc24rsv2(nodes=3, gpus_per_node=2))
    devices = ctx.devices()
    assert len(devices) == 6
    assert {d.worker for d in devices} == {0, 1, 2}


# --------------------------------------------------------------------------- #
# array creation and gathering
# --------------------------------------------------------------------------- #
def test_zeros_ones_full_values_round_trip():
    ctx = make_ctx()
    z = ctx.zeros(100, BlockDist(30))
    o = ctx.ones(100, BlockDist(30))
    f = ctx.full(100, 3.5, BlockDist(30))
    assert np.all(ctx.gather(z) == 0.0)
    assert np.all(ctx.gather(o) == 1.0)
    assert np.all(ctx.gather(f) == np.float32(3.5))


def test_from_numpy_round_trips_2d_data():
    ctx = make_ctx()
    data = np.arange(20 * 6, dtype=np.float32).reshape(20, 6)
    arr = ctx.from_numpy(data, RowDist(7))
    assert arr.shape == (20, 6)
    assert arr.dtype == np.float32
    assert np.array_equal(ctx.gather(arr), data)


def test_from_numpy_with_overlapping_distribution_round_trips():
    ctx = make_ctx()
    data = np.arange(50, dtype=np.float64)
    arr = ctx.from_numpy(data, StencilDist(10, halo=2))
    assert np.array_equal(ctx.gather(arr), data)


def test_replicated_array_has_one_chunk_per_device():
    ctx = make_ctx()
    arr = ctx.ones((4, 4), ReplicatedDist())
    assert arr.chunk_count == ctx.device_count
    assert arr.allocated_bytes == ctx.device_count * arr.nbytes


def test_array_metadata_and_repr():
    ctx = make_ctx()
    arr = ctx.zeros((8, 4), RowDist(2), dtype="float64", name="grid")
    assert arr.ndim == 2
    assert arr.size == 32
    assert arr.nbytes == 32 * 8
    assert "grid" in repr(arr)
    assert arr.domain.shape == (8, 4)


def test_arrays_limited_to_three_dimensions():
    ctx = make_ctx()
    with pytest.raises(ValueError):
        DistributedArray(1, (2, 2, 2, 2), np.float32, BlockDist(2), [], ctx)


def test_chunk_queries_prefer_local_chunks():
    ctx = make_ctx()
    arr = ctx.ones(100, StencilDist(25, halo=1))
    ctx.synchronize()
    region = arr.chunks[1].region
    preferred = arr.find_enclosing_chunk(region, prefer_device=arr.chunks[1].home)
    assert preferred.chunk_id == arr.chunks[1].chunk_id
    overlapping = arr.chunks_overlapping(region)
    assert len(overlapping) >= 2  # halo overlap with neighbours


def test_gather_requires_functional_mode():
    ctx = make_ctx(mode=ExecutionMode.SIMULATE)
    arr = ctx.zeros(10, BlockDist(5))
    with pytest.raises(RuntimeError):
        ctx.gather(arr)


def test_empty_array_is_usable_after_first_write():
    ctx = make_ctx()
    arr = ctx.empty(10, BlockDist(5))
    assert np.array_equal(ctx.gather(arr), np.zeros(10, dtype=np.float32))


def test_delete_is_idempotent():
    ctx = make_ctx()
    arr = ctx.ones(10, BlockDist(5))
    arr.delete()
    arr.delete()
    assert arr.deleted


def test_stats_and_trace_are_exposed():
    ctx = make_ctx()
    ctx.ones(100, BlockDist(25))
    ctx.synchronize()
    stats = ctx.stats()
    assert stats.tasks_completed > 0
    assert stats.virtual_time == ctx.virtual_time
    assert ctx.trace() is not None
    assert isinstance(ctx.describe(), str)


def test_stats_snapshot_stays_fixed_while_the_run_goes_on():
    ctx = Context(azure_nc24rsv2(nodes=1, gpus_per_node=2), mode="simulate")
    work = create_workload("kmeans", ctx, 40_960, iterations=2)
    work.prepare()
    work.submit()
    ctx.synchronize()
    snapshot = ctx.stats()
    frozen = snapshot.to_dict()
    # The second pass reads newly created points, which move onto the GPUs.
    work.points = ctx.zeros(work.points.shape, work.points.distribution,
                            dtype="float32", name="kmeans_points_2")
    work.submit()
    ctx.synchronize()
    assert snapshot.to_dict() == frozen
    live = ctx.runtime.workers[0].memory.stats
    assert live.bytes_to_gpu > snapshot.memory[0].bytes_to_gpu
    assert snapshot.memory[0].peak_gpu_bytes is not live.peak_gpu_bytes
    # with one context, its view is the runtime-wide snapshot
    assert ctx.stats().to_dict() == ctx.runtime.stats().to_dict()


def test_invalid_distribution_inputs_raise():
    ctx = make_ctx()
    with pytest.raises(ValueError):
        ctx.zeros((10, 10), BlockDist(5))  # BlockDist is 1-d only
    with pytest.raises(ValueError):
        ctx.zeros(0, BlockDist(5))
