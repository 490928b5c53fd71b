"""Tests for the simulated disk tier and checkpoint/restore.

Three layers:

* **MemoryManager unit tests** — the GPU → host → disk eviction cascade and
  the disk → host → GPU promotion chain, including the compressed byte
  accounting (``disk_stored_bytes_*`` vs the raw ``bytes_to_disk``), the
  pinned-host capacity guard that keeps staged promotions from deadlocking
  the cascade, and clean disk copies: a promoted chunk keeps its disk copy
  until a writer's staging commits, so spilling it again writes nothing.
* **End-to-end out-of-core runs** — ``Context(disk=True)`` with a dataset
  larger than host memory: bit-identical results with the planner on or
  off, staged disk→host promotions observed, the default two-level path
  untouched when ``disk=False``, the disk reads next-use spilling saves on
  a small ``kmeans_ooc``, and a next-use index that is empty at idle.
* **Checkpoint/restore** — round-trips across modes and cluster shapes,
  corruption detection (:class:`repro.errors.CheckpointError`), durable
  lineage after an injected device failure, and a hypothesis property that
  checkpoint → restore → compute is bit-identical to the uninterrupted run.
"""

import os
import struct
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro import (
    BlockDist,
    BlockWorkDist,
    Context,
    KernelCost,
    KernelDef,
    azure_nc24rsv2,
)
from repro.core.chunk import ChunkMeta
from repro.core.geometry import Region
from repro.errors import ArgumentValueError, CheckpointError
from repro.hardware import Cluster, DeviceId, MemoryKind, MemorySpace
from repro.kernels import create_workload
from repro.perfmodel import DEFAULT_OVERHEADS
from repro.perfmodel.compression import CompressionModel
from repro.runtime import checkpoint as ckpt
from repro.runtime.memory import MemoryManager
from repro.runtime.resources import WorkerResources
from repro.simulator import Engine, Trace
from repro.simulator.faults import FaultSpec

KiB = 1024
MB = 1024 ** 2
GPU0 = DeviceId(0, 0)
HOST0 = MemorySpace(0, MemoryKind.HOST)
DISK0 = MemorySpace(0, MemoryKind.DISK)


# --------------------------------------------------------------------------- #
# MemoryManager: multi-level spill / promote chains
# --------------------------------------------------------------------------- #
def make_manager(gpu=4 * MB, host=8 * MB, disk=256 * MB, model=None):
    cluster = Cluster(azure_nc24rsv2(nodes=1, gpus_per_node=1))
    node = cluster.node(0)
    engine = Engine()
    resources = WorkerResources(engine, node, DEFAULT_OVERHEADS, Trace())
    capacities = {
        GPU0.memory_space: gpu,
        HOST0: host,
        DISK0: disk,
    }
    manager = MemoryManager(node, resources, capacities=capacities)
    if model is not None:
        manager.disk_model = model
    return manager, engine


def chunk(chunk_id, mb, device=GPU0):
    elems = mb * MB // 4
    return ChunkMeta(chunk_id=chunk_id, region=Region((0,), (elems,)),
                     dtype=np.float32, home=device, array_id=1)


def stage(manager, engine, task_id, requirements, writes=None):
    done = []
    manager.stage(task_id, requirements, lambda: done.append(task_id), writes=writes)
    engine.run()
    return bool(done)


def fill_three_levels(manager, engine, *, chunks=16):
    """Stage ``chunks`` 1 MB chunks through a 4 MB GPU over an 8 MB host.

    The last four stay on the GPU, eight land on host, and the rest
    overflow all the way down to disk.
    """
    for cid in range(1, chunks + 1):
        manager.register(chunk(cid, 1))
        assert stage(manager, engine, 100 + cid, [(cid, "gpu")])
        manager.unstage(100 + cid)


def residency_kinds(manager, chunks=16):
    return {cid: manager.residency(cid).kind for cid in range(1, chunks + 1)}


def test_spill_cascades_gpu_to_host_to_disk():
    manager, engine = make_manager()
    fill_three_levels(manager, engine)
    kinds = list(residency_kinds(manager).values())
    assert kinds.count(MemoryKind.GPU) == 4
    assert kinds.count(MemoryKind.HOST) == 8
    assert kinds.count(MemoryKind.DISK) == 4
    assert residency_kinds(manager)[16] is MemoryKind.GPU  # newest stays up
    assert manager.stats.evictions_to_disk == 4
    assert manager.stats.bytes_to_disk == 4 * MB


def test_promotion_climbs_disk_to_host_to_gpu():
    manager, engine = make_manager()
    fill_three_levels(manager, engine)
    sunken = min(cid for cid, kind in residency_kinds(manager).items()
                 if kind is MemoryKind.DISK)
    # Re-staging a sunken chunk must climb both links and land on the GPU.
    assert stage(manager, engine, 500, [(sunken, "gpu")])
    manager.unstage(500)
    assert manager.residency(sunken) == GPU0.memory_space
    assert manager.stats.bytes_from_disk == 1 * MB


def test_disk_byte_accounting_without_model_is_identity():
    manager, engine = make_manager(model=None)
    fill_three_levels(manager, engine)
    assert manager.stats.disk_stored_bytes_written == manager.stats.bytes_to_disk


def test_disk_byte_accounting_with_model_is_compressed_and_deterministic():
    first, engine = make_manager(model=CompressionModel(seed=7))
    fill_three_levels(first, engine)
    assert 0 < first.stats.disk_stored_bytes_written < first.stats.bytes_to_disk

    second, second_engine = make_manager(model=CompressionModel(seed=7))
    fill_three_levels(second, second_engine)
    assert (second.stats.disk_stored_bytes_written
            == first.stats.disk_stored_bytes_written)

    # Reading a chunk back charges the same per-chunk stored size it wrote.
    sunken = min(cid for cid, kind in residency_kinds(first).items()
                 if kind is MemoryKind.DISK)
    assert stage(first, engine, 500, [(sunken, "host")])
    first.unstage(500)
    assert (first.stats.disk_stored_bytes_read
            == CompressionModel(seed=7).stored_bytes(sunken, np.float32, 1 * MB))


def test_compression_model_ratio_bounds_and_seeding():
    model = CompressionModel(seed=3)
    ratios = [model.ratio(cid, np.float32) for cid in range(64)]
    assert all(r > 1.0 for r in ratios)
    assert len(set(ratios)) > 1  # jitter actually varies per chunk
    assert ratios == [CompressionModel(seed=3).ratio(c, np.float32)
                      for c in range(64)]
    assert ratios != [CompressionModel(seed=4).ratio(c, np.float32)
                      for c in range(64)]


def test_pinned_host_capacity_bounds_the_gpu_cascade():
    """A GPU eviction may not assume pinned host bytes are evictable."""
    manager, engine = make_manager(gpu=4 * MB, host=4 * MB)
    # Fill host with chunks homed on the GPU, then pin them all (as a staged
    # disk→host promotion would while its read is in flight).
    for cid in (1, 2, 3, 4):
        manager.register(chunk(cid, 1))
        assert stage(manager, engine, 100 + cid, [(cid, "gpu")])
        manager.unstage(100 + cid)
    for cid in (5, 6, 7, 8):
        manager.register(chunk(cid, 1))
        assert stage(manager, engine, 100 + cid, [(cid, "gpu")])
        manager.unstage(100 + cid)
    assert manager.used_bytes(HOST0) == 4 * MB
    assert stage(manager, engine, 200, [(cid, "host") for cid in (1, 2, 3, 4)])
    assert manager.pinned_bytes(HOST0) == 4 * MB

    # GPU is full of 5..8 (unpinned) but host can't receive: staging a new
    # chunk must wait, not raise.  Unstaging the host task unblocks it.
    manager.register(chunk(9, 1))
    done = []
    manager.stage(900, [(9, "gpu")], lambda: done.append(9))
    engine.run()
    assert not done
    manager.unstage(200)
    engine.run()
    assert done == [9]


# --------------------------------------------------------------------------- #
# MemoryManager: clean disk copies
# --------------------------------------------------------------------------- #
GPU0_SPACE = GPU0.memory_space


def read_only():
    return ()


def spill_to_disk(manager, engine):
    """Push every unpinned chunk from the GPU to host, then from host to disk."""
    for space in (GPU0_SPACE, HOST0):
        manager.reserve(space, [], manager.capacity(space))
        engine.run()


def assert_disk_bytes(manager):
    """Disk-pool bytes are the disk-resident chunks plus the retained copies."""
    resident = manager.footprint([(cid, "any") for cid in manager.lru_order(DISK0)])
    copies = manager.footprint([(cid, "any") for cid in manager.disk_copies()])
    assert manager.used_bytes(DISK0) == resident + copies


def sink_to_disk(manager, engine, chunk_ids):
    """Register ``chunk_ids`` (1 MB each) on the GPU, then spill them to disk."""
    for cid in chunk_ids:
        manager.register(chunk(cid, 1))
        assert stage(manager, engine, 100 + cid, [(cid, "gpu")])
        manager.unstage(100 + cid)
    spill_to_disk(manager, engine)
    assert [manager.residency(cid) for cid in chunk_ids] == [DISK0] * len(chunk_ids)


def test_read_only_chunk_is_written_to_disk_once():
    manager, engine = make_manager(model=CompressionModel(seed=7))
    sink_to_disk(manager, engine, [1])
    assert manager.stats.bytes_to_disk == 1 * MB
    written = manager.stats.disk_stored_bytes_written
    # Promoted by a reader: the disk copy stays, and so do its pool bytes.
    assert stage(manager, engine, 200, [(1, "gpu")], writes=read_only)
    manager.unstage(200)
    assert manager.residency(1) == GPU0_SPACE
    assert manager.disk_copies() == [1]
    assert manager.used_bytes(DISK0) == 1 * MB
    # Spilled again: residency changes, nothing is compressed or written.
    spill_to_disk(manager, engine)
    assert manager.residency(1) == DISK0
    assert manager.disk_copies() == []
    stats = manager.stats
    assert (stats.evictions_to_disk, stats.disk_writes_skipped) == (2, 1)
    assert stats.bytes_to_disk == 1 * MB
    assert stats.disk_stored_bytes_written == written
    assert manager.resources.disk_write.completed_items == 1
    assert manager.resources.compress.completed_items == 1
    assert_disk_bytes(manager)


def test_chunk_written_after_promotion_is_written_back():
    manager, engine = make_manager(model=CompressionModel(seed=7))
    sink_to_disk(manager, engine, [1])
    assert stage(manager, engine, 200, [(1, "gpu")], writes=lambda: (1,))
    # The writer's commit dropped the copy and freed its disk bytes.
    assert manager.disk_copies() == []
    assert manager.used_bytes(DISK0) == 0
    manager.unstage(200)
    spill_to_disk(manager, engine)
    assert manager.residency(1) == DISK0
    assert manager.stats.disk_writes_skipped == 0
    assert manager.stats.bytes_to_disk == 2 * MB
    assert manager.resources.disk_write.completed_items == 2
    assert_disk_bytes(manager)


def test_queued_writer_drops_the_copy_made_while_it_waited():
    """The copy is dropped when the writer's staging commits: a chunk spilled
    and promoted again while the writer waits gets a new copy, which must
    not survive the write."""
    manager, engine = make_manager(gpu=4 * MB)
    sink_to_disk(manager, engine, [1])
    assert stage(manager, engine, 200, [(1, "gpu")], writes=read_only)
    manager.unstage(200)
    manager.register(chunk(2, 2))
    manager.register(chunk(3, 2))
    assert stage(manager, engine, 300, [(3, "gpu")])  # pinned: GPU is full
    assert manager.disk_copies() == [1]

    writer = []
    manager.stage(400, [(1, "gpu"), (2, "gpu")], lambda: writer.append(400),
                  writes=lambda: (1,))
    engine.run()
    assert not writer  # blocked behind chunk 3's pin

    # While the writer waits, chunk 1 goes back to disk (clean) and a reader
    # promotes it again, making a new copy.
    spill_to_disk(manager, engine)
    assert manager.residency(1) == DISK0
    assert stage(manager, engine, 500, [(1, "gpu")], writes=read_only)
    manager.unstage(500)
    engine.run()
    assert not writer
    assert manager.disk_copies() == [1]

    manager.unstage(300)
    engine.run()
    assert writer == [400]
    assert manager.disk_copies() == []
    assert manager.used_bytes(DISK0) == 0
    assert_disk_bytes(manager)


def test_delete_and_device_failure_keep_disk_bytes_consistent():
    manager, engine = make_manager()
    sink_to_disk(manager, engine, [1, 2, 3, 4])
    for task, cid in enumerate((1, 2, 3), start=200):
        assert stage(manager, engine, task, [(cid, "gpu")], writes=read_only)
        manager.unstage(task)
    assert manager.disk_copies() == [1, 2, 3]
    assert manager.used_bytes(DISK0) == 4 * MB
    assert_disk_bytes(manager)

    manager.delete(2)  # a chunk with a retained copy
    assert manager.disk_copies() == [1, 3]
    assert manager.used_bytes(DISK0) == 3 * MB
    assert_disk_bytes(manager)
    manager.delete(4)  # a disk-resident chunk
    assert manager.used_bytes(DISK0) == 2 * MB
    assert_disk_bytes(manager)

    # Chunks lost with their GPU keep their copies: nothing wrote them.
    lost, _ = manager.mark_device_failed(GPU0)
    assert sorted(lost) == [1, 3]
    assert manager.disk_copies() == [1, 3]
    assert manager.used_bytes(DISK0) == 2 * MB
    assert_disk_bytes(manager)


def test_full_disk_pool_drops_copies_instead_of_raising():
    manager, engine = make_manager(gpu=4 * MB, host=3 * MB, disk=3 * MB)
    sink_to_disk(manager, engine, [1, 2, 3])
    for task, cid in enumerate((1, 2, 3), start=200):
        assert stage(manager, engine, task, [(cid, "gpu")], writes=read_only)
        manager.unstage(task)
    assert manager.disk_copies() == [1, 2, 3]
    assert manager.free_bytes(DISK0) == 0

    # Chunk 4 must make way for chunk 5 on the host, and has never been
    # written to disk: the pool holds only copies, so the oldest one goes.
    manager.register(chunk(4, 1))
    assert stage(manager, engine, 600, [(4, "host")])
    manager.unstage(600)
    manager.register(chunk(5, 3))
    assert stage(manager, engine, 700, [(5, "host")])
    assert manager.residency(4) == DISK0
    assert manager.disk_copies() == [2, 3]
    assert manager.used_bytes(DISK0) == 3 * MB
    assert_disk_bytes(manager)


# --------------------------------------------------------------------------- #
# end-to-end out-of-core streaming
# --------------------------------------------------------------------------- #
def streaming_context(disk=True, window_memory=True, host_mb=10, gpus=2,
                      **kwargs):
    caps = {DeviceId(0, i).memory_space: 6 * MB for i in range(gpus)}
    caps[MemorySpace(0, MemoryKind.HOST)] = host_mb * MB
    return Context(
        azure_nc24rsv2(nodes=1, gpus_per_node=gpus),
        mode="functional",
        memory_capacities=caps,
        window_memory=window_memory,
        stage_threshold=3 * MB,
        lookahead=4,
        disk=disk,
        disk_seed=3,
        **kwargs,
    )


def run_streaming(ctx, arrays=10, rounds=3, gpus=2):
    elems = 320 * 1024 * gpus  # 1.25 MB per chunk, 2.5 MB per array
    rng = np.random.RandomState(0)
    batches = [
        ctx.from_numpy(rng.rand(elems).astype(np.float32),
                       BlockDist(elems // gpus), name=f"b{j}")
        for j in range(arrays)
    ]
    ctx.synchronize()  # settle initial placement before the stream starts

    def body(lc, n, data):
        i = lc.global_indices(0)
        i = i[i < n]
        data.scatter(i, (data.gather(i) * 1.5 + 1.0).astype(np.float32))

    kernel = (
        KernelDef("stream_update", func=body)
        .param_value("n", "int64")
        .param_array("data", "float32")
        .annotate("global i => readwrite data[i]")
        .with_cost(KernelCost(20000.0, 8.0))
        .compile(ctx)
    )
    for _ in range(rounds):
        for batch in batches:
            kernel.launch(elems, 256, BlockWorkDist(elems // gpus),
                          (elems, batch))
    ctx.synchronize()
    return [ctx.gather(b) for b in batches]


def test_out_of_core_results_bit_identical_planner_on_and_off():
    planned = run_streaming(streaming_context(window_memory=True))
    reactive = run_streaming(streaming_context(window_memory=False))
    for a, b in zip(planned, reactive):
        np.testing.assert_array_equal(a, b)


def test_out_of_core_spills_to_disk_and_stages_promotions():
    ctx = streaming_context(window_memory=True)
    run_streaming(ctx)
    stats = ctx.stats()
    assert sum(m.evictions_to_disk for m in stats.memory.values()) > 0
    assert stats.disk_stored_bytes_written > 0
    assert stats.disk_stored_bytes_written < sum(
        m.bytes_to_disk for m in stats.memory.values())
    assert stats.disk_promotions_staged > 0


# --------------------------------------------------------------------------- #
# next uses: out-of-core kmeans and the bounded next-use index
# --------------------------------------------------------------------------- #
def kmeans_ooc(mode, n, chunk_elems, iterations, gpu, host, seed=0, **kwargs):
    """kmeans over two GPUs with capped GPU and host pools and the disk tier
    (perfbench's ``kmeans_ooc`` shape), prepared but not submitted."""
    caps = {DeviceId(0, i).memory_space: gpu for i in range(2)}
    caps[HOST0] = host
    ctx = Context(azure_nc24rsv2(nodes=1, gpus_per_node=2), mode=mode,
                  memory_capacities=caps, disk=True, **kwargs)
    work = create_workload("kmeans", ctx, n, chunk_elems=chunk_elems,
                           iterations=iterations, seed=seed)
    work.prepare()
    return ctx, work


def assert_next_uses_empty(runtime):
    assert [worker.memory._uses for worker in runtime.workers] == [{}] * len(runtime.workers)


def test_next_use_spilling_cuts_kmeans_disk_reads():
    """kmeans_ooc at 1/1000 scale: 22 point chunks of ~400 KB cycle through
    two 1 MiB GPUs and a 3 MiB host, so capacity forces ~10 chunks' worth of
    disk reads per iteration (~13.4 with next-use spilling).  LRU alone read
    ~16: every GPU victim entered the host and pushed a sooner-needed point
    chunk to disk, and staged promotions evicted the drained group's own host
    chunks."""
    iterations = 12
    ctx, work = kmeans_ooc("simulate", 540_000, 25_000, iterations,
                           1 * MB, 3 * MB, disk_seed=3)
    work.submit()
    ctx.synchronize()
    points = {chunk.chunk_id: chunk.nbytes for chunk in work.points.chunks}
    memory = ctx.runtime.workers[0].memory
    read, reads = memory._disk_read_requests, []
    memory._disk_read_requests = lambda meta: (reads.append(meta.chunk_id), read(meta))[1]
    announce, announced = memory.announce, []
    memory.announce = lambda task_id, requirements: (
        announced.extend(cid for cid, _ in requirements), announce(task_id, requirements))
    work.submit()
    ctx.synchronize()
    # point bytes read from disk per iteration, in full chunks
    per_iteration = sum(points.get(cid, 0) for cid in reads) / max(points.values()) / iterations
    assert 10 <= per_iteration < 14.5
    # the scheduler announced every assign launch's point chunk
    assert all(announced.count(cid) >= iterations for cid in points)
    assert_next_uses_empty(ctx.runtime)


def test_next_use_index_is_empty_after_faults_and_a_device_failure():
    ctx, work = kmeans_ooc("functional", 8192, 1024, 3, 48 * KiB, 64 * KiB,
                           seed=1, disk_seed=1, faults="transfer=0.05,compute=0.05",
                           fault_seed=1)
    work.submit()
    ctx.runtime.engine.run(max_events=1000)
    ctx.fail_device((0, 1))
    ctx.synchronize()
    assert work.verify()
    stats = ctx.stats()
    assert stats.devices_failed == 1 and stats.transfer_faults_injected > 0
    assert sum(m.evictions_to_disk for m in stats.memory.values()) > 0
    assert_next_uses_empty(ctx.runtime)


def test_next_use_index_is_empty_after_deleting_arrays():
    ctx = streaming_context()
    run_streaming(ctx, arrays=6, rounds=2)
    arrays = list(ctx.arrays.values())
    for array in arrays[::2]:
        ctx.delete_array(array)
    for array in arrays[1::2]:
        ctx.gather(array * 2.0 + 1.0)
    assert_next_uses_empty(ctx.runtime)


def test_disk_disabled_leaves_model_unset():
    ctx = streaming_context(disk=False)
    assert not ctx.disk_enabled
    run_streaming(ctx)
    stats = ctx.stats()
    # Without the opt-in there is no compression model, so stored == raw.
    raw = sum(m.bytes_to_disk for m in stats.memory.values())
    assert raw > 0  # the capped host still overflows to the disk space
    assert stats.disk_stored_bytes_written == raw


def test_disk_rejected_on_tenant_contexts():
    host = Context(azure_nc24rsv2(nodes=1, gpus_per_node=2), mode="functional")
    with pytest.raises(ArgumentValueError):
        Context(runtime=host.runtime, tenant=1, disk=True)


# --------------------------------------------------------------------------- #
# checkpoint / restore
# --------------------------------------------------------------------------- #
def checkpoint_path(tmp_path):
    return str(tmp_path / "state.ckpt")


def small_context(mode="functional", gpus=2, **kwargs):
    return Context(azure_nc24rsv2(nodes=1, gpus_per_node=gpus), mode=mode,
                   disk=True, **kwargs)


def test_checkpoint_roundtrip_functional(tmp_path):
    ctx = small_context()
    x = ctx.from_numpy(np.arange(64, dtype=np.float64), BlockDist(16),
                       name="x")
    ctx.synchronize()
    path = checkpoint_path(tmp_path)
    manifest = ctx.checkpoint(path)
    assert manifest["arrays"]
    assert ctx.stats().checkpoints_written == 1

    fresh = small_context()
    restored = fresh.restore(path)
    np.testing.assert_array_equal(fresh.gather(restored["x"]),
                                  np.arange(64, dtype=np.float64))
    assert fresh.stats().chunks_restored == 4


def test_checkpoint_restores_across_cluster_shapes(tmp_path):
    ctx = small_context(gpus=2)
    data = np.random.RandomState(1).rand(4096).astype(np.float32)
    ctx.from_numpy(data, BlockDist(1024), name="wide")
    ctx.synchronize()
    path = checkpoint_path(tmp_path)
    ctx.checkpoint(path)

    fresh = small_context(gpus=4)
    restored = fresh.restore(path)
    np.testing.assert_array_equal(fresh.gather(restored["wide"]), data)


def test_checkpoint_simulate_mode_records_modelled_sizes(tmp_path):
    ctx = small_context(mode="simulate")
    ctx.empty((1 << 16,), BlockDist(1 << 15), dtype="float32", name="sim")
    ctx.synchronize()
    path = checkpoint_path(tmp_path)
    before = ctx.virtual_time
    manifest = ctx.checkpoint(path)
    assert ctx.virtual_time > before  # disk writes charge virtual time
    entries = [entry for _arr, entry in ckpt.chunk_entries(manifest)]
    assert entries and all(e["length"] == 0 for e in entries)
    assert all(0 < e["stored"] < e["raw"] for e in entries)

    fresh = small_context(mode="simulate", gpus=2)
    restored = fresh.restore(path)
    assert restored["sim"].shape == (1 << 16,)


def test_restore_rejects_bad_magic(tmp_path):
    path = checkpoint_path(tmp_path)
    with open(path, "wb") as handle:
        handle.write(b"NOTACKPT" + b"\x00" * 64)
    with pytest.raises(CheckpointError):
        small_context().restore(path)


def test_restore_rejects_corrupted_chunk(tmp_path):
    ctx = small_context()
    ctx.from_numpy(np.ones(256, dtype=np.float64), BlockDist(64), name="x")
    ctx.synchronize()
    path = checkpoint_path(tmp_path)
    manifest = ctx.checkpoint(path)
    _arr, entry = next(ckpt.chunk_entries(manifest))
    with open(path, "r+b") as handle:  # flip a payload byte -> CRC mismatch
        handle.seek(entry["offset"])
        byte = handle.read(1)
        handle.seek(entry["offset"])
        handle.write(bytes([byte[0] ^ 0xFF]))
    with pytest.raises(CheckpointError):
        small_context().restore(path)


def test_restore_rejects_truncated_footer(tmp_path):
    ctx = small_context()
    ctx.from_numpy(np.ones(64, dtype=np.float32), BlockDist(32), name="x")
    ctx.synchronize()
    path = checkpoint_path(tmp_path)
    ctx.checkpoint(path)
    size = os.path.getsize(path)
    with open(path, "r+b") as handle:
        handle.truncate(size - struct.calcsize("<Q8s") - 3)
    with pytest.raises(CheckpointError):
        small_context().restore(path)


def test_distribution_codec_roundtrip():
    dist = BlockDist(1024)
    spec = ckpt.encode_distribution(dist)
    decoded = ckpt.decode_distribution(spec)
    assert decoded == dist
    with pytest.raises(CheckpointError):
        ckpt.decode_distribution({"type": "Engine", "params": {}})


def test_checkpoint_makes_lineage_durable_across_device_failure(tmp_path):
    ctx = small_context(faults=FaultSpec())
    data = np.random.RandomState(2).rand(2048).astype(np.float64)
    x = ctx.from_numpy(data, BlockDist(512), name="x")
    ctx.synchronize()
    path = checkpoint_path(tmp_path)
    ctx.checkpoint(path)

    ctx.fail_device((0, 1))
    result = ctx.gather(2.0 * x + 1.0)
    np.testing.assert_array_equal(result, 2.0 * data + 1.0)
    stats = ctx.stats()
    assert stats.durable_chunks_loaded > 0
    assert stats.chunks_lost > 0


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2 ** 16),
    chunks=st.sampled_from([2, 4]),
    fail=st.booleans(),
)
def test_checkpoint_restore_run_is_bit_identical(seed, chunks, fail):
    """checkpoint → restore → compute == the uninterrupted run, bit for bit,
    including when a device dies after the restore."""
    n = 1024
    data = np.random.RandomState(seed).rand(n).astype(np.float64)

    uninterrupted = small_context()
    x = uninterrupted.from_numpy(data, BlockDist(n // chunks), name="x")
    expected = uninterrupted.gather(x * 3.0 - 0.5)

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "state.ckpt")
        writer = small_context()
        writer.from_numpy(data, BlockDist(n // chunks), name="x")
        writer.synchronize()
        writer.checkpoint(path)

        reader = small_context(faults=FaultSpec() if fail else None)
        restored = reader.restore(path)
        if fail:
            reader.fail_device((0, 0))
        actual = reader.gather(restored["x"] * 3.0 - 0.5)

    np.testing.assert_array_equal(actual, expected)
