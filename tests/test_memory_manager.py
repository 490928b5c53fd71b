"""Tests for the per-worker memory manager: staging, LRU eviction, next-use
admission and spilling."""

import random
from dataclasses import replace

import numpy as np
import pytest

from repro.core.chunk import ChunkMeta
from repro.core.geometry import Region
from repro.hardware import Cluster, DeviceId, MemoryKind, MemorySpace, azure_nc24rsv2
from repro.perfmodel import DEFAULT_OVERHEADS
from repro.runtime.memory import MemoryManager, OutOfMemoryError
from repro.runtime.resources import WorkerResources
from repro.simulator import Engine, Trace

MB = 1024 ** 2


def make_manager(gpu_capacity=4 * MB, host_capacity=16 * MB, disk_capacity=64 * MB):
    cluster = Cluster(azure_nc24rsv2(nodes=1, gpus_per_node=1))
    node = cluster.node(0)
    engine = Engine()
    resources = WorkerResources(engine, node, DEFAULT_OVERHEADS, Trace())
    capacities = {
        DeviceId(0, 0).memory_space: gpu_capacity,
        MemorySpace(0, MemoryKind.HOST): host_capacity,
        MemorySpace(0, MemoryKind.DISK): disk_capacity,
    }
    manager = MemoryManager(node, resources, capacities=capacities)
    return manager, engine


def chunk(chunk_id, mb, device=DeviceId(0, 0)):
    elems = mb * MB // 4
    return ChunkMeta(chunk_id=chunk_id, region=Region((0,), (elems,)), dtype=np.float32,
                     home=device, array_id=1)


def stage(manager, engine, task_id, requirements):
    """Stage synchronously and report whether the callback fired."""
    done = []
    manager.stage(task_id, requirements, lambda: done.append(task_id))
    engine.run()
    return bool(done)


# --------------------------------------------------------------------------- #
# registration and basic staging
# --------------------------------------------------------------------------- #
def test_register_and_delete_bookkeeping():
    manager, _ = make_manager()
    c = chunk(1, 1)
    manager.register(c)
    assert manager.knows(1)
    assert manager.residency(1) is None
    manager.delete(1)
    assert not manager.knows(1)


def test_duplicate_registration_rejected():
    manager, _ = make_manager()
    manager.register(chunk(1, 1))
    with pytest.raises(ValueError):
        manager.register(chunk(1, 1))


def test_stage_allocates_in_requested_space():
    manager, engine = make_manager()
    c = chunk(1, 1)
    manager.register(c)
    assert stage(manager, engine, 100, [(1, "gpu")])
    gpu = DeviceId(0, 0).memory_space
    assert manager.residency(1) == gpu
    assert manager.used_bytes(gpu) == c.nbytes
    assert manager.pinned_bytes(gpu) == c.nbytes
    manager.unstage(100)
    assert manager.pinned_bytes(gpu) == 0
    # still resident after unpinning (cached)
    assert manager.residency(1) == gpu


def test_stage_any_keeps_current_residency():
    manager, engine = make_manager()
    manager.register(chunk(1, 1))
    stage(manager, engine, 1, [(1, "host")])
    manager.unstage(1)
    host = MemorySpace(0, MemoryKind.HOST)
    assert manager.residency(1) == host
    stage(manager, engine, 2, [(1, "any")])
    assert manager.residency(1) == host


def test_footprint_sums_chunk_bytes():
    manager, _ = make_manager()
    manager.register(chunk(1, 1))
    manager.register(chunk(2, 2))
    assert manager.footprint([(1, "gpu"), (2, "gpu")]) == 3 * MB


# --------------------------------------------------------------------------- #
# movement between levels, eviction and spilling
# --------------------------------------------------------------------------- #
def test_host_to_gpu_staging_counts_transfer():
    manager, engine = make_manager()
    manager.register(chunk(1, 2))
    stage(manager, engine, 1, [(1, "host")])
    manager.unstage(1)
    stage(manager, engine, 2, [(1, "gpu")])
    assert manager.residency(1).kind is MemoryKind.GPU
    assert manager.stats.bytes_to_gpu == 2 * MB


def test_lru_eviction_spills_least_recently_used_chunk():
    manager, engine = make_manager(gpu_capacity=4 * MB)
    for cid in (1, 2, 3):
        manager.register(chunk(cid, 2))
    stage(manager, engine, 1, [(1, "gpu")])
    manager.unstage(1)
    stage(manager, engine, 2, [(2, "gpu")])
    manager.unstage(2)
    # GPU now holds chunks 1 and 2 (4 MB).  Touch chunk 2 so chunk 1 is LRU.
    stage(manager, engine, 3, [(2, "gpu")])
    manager.unstage(3)
    # Staging chunk 3 must evict chunk 1 (LRU, unpinned) to host memory.
    stage(manager, engine, 4, [(3, "gpu")])
    assert manager.residency(3).kind is MemoryKind.GPU
    assert manager.residency(1).kind is MemoryKind.HOST
    assert manager.residency(2).kind is MemoryKind.GPU
    assert manager.stats.evictions_to_host == 1
    assert manager.stats.bytes_from_gpu == 2 * MB


def test_eviction_cascades_to_disk_when_host_is_full():
    manager, engine = make_manager(gpu_capacity=2 * MB, host_capacity=2 * MB)
    manager.register(chunk(1, 2))
    manager.register(chunk(2, 2))
    manager.register(chunk(3, 2))
    stage(manager, engine, 1, [(1, "gpu")])
    manager.unstage(1)
    stage(manager, engine, 2, [(2, "gpu")])  # evicts 1 to host
    manager.unstage(2)
    stage(manager, engine, 3, [(3, "gpu")])  # evicts 2 to host, pushing 1 to disk
    assert manager.residency(3).kind is MemoryKind.GPU
    assert manager.residency(1).kind is MemoryKind.DISK
    assert manager.stats.evictions_to_disk >= 1


def test_pinned_chunks_are_never_evicted():
    manager, engine = make_manager(gpu_capacity=4 * MB)
    manager.register(chunk(1, 3))
    manager.register(chunk(2, 3))
    assert stage(manager, engine, 1, [(1, "gpu")])
    # chunk 1 stays pinned; staging chunk 2 cannot evict it and must wait
    assert not stage(manager, engine, 2, [(2, "gpu")])
    assert manager.residency(2) is None
    # releasing the pin lets the pending request proceed
    manager.unstage(1)
    engine.run()
    assert manager.residency(2) is not None
    assert manager.residency(2).kind is MemoryKind.GPU
    assert manager.residency(1).kind is MemoryKind.HOST


def test_oversized_working_set_raises_out_of_memory():
    manager, engine = make_manager(gpu_capacity=4 * MB)
    manager.register(chunk(1, 8))
    with pytest.raises(OutOfMemoryError):
        stage(manager, engine, 1, [(1, "gpu")])


def test_unspill_charges_pcie_and_disk_resources():
    manager, engine = make_manager(gpu_capacity=2 * MB, host_capacity=2 * MB)
    manager.register(chunk(1, 2))
    manager.register(chunk(2, 2))
    manager.register(chunk(3, 2))
    for task, cid in enumerate((1, 2, 3), start=1):
        stage(manager, engine, task, [(cid, "gpu")])
        manager.unstage(task)
    # chunk 1 ended up on disk; staging it back to the GPU reads from disk.
    before = manager.stats.bytes_from_disk
    stage(manager, engine, 99, [(1, "gpu")])
    assert manager.stats.bytes_from_disk == before + 2 * MB
    assert manager.residency(1).kind is MemoryKind.GPU


def test_peak_gpu_usage_is_tracked():
    manager, engine = make_manager()
    manager.register(chunk(1, 2))
    stage(manager, engine, 1, [(1, "gpu")])
    assert manager.stats.peak_gpu_bytes[0] == 2 * MB


def test_delete_pinned_chunk_rejected():
    manager, engine = make_manager()
    manager.register(chunk(1, 1))
    stage(manager, engine, 1, [(1, "gpu")])
    with pytest.raises(RuntimeError):
        manager.delete(1)
    # the failed delete must not corrupt the bookkeeping
    assert manager.knows(1)
    manager.unstage(1)
    manager.delete(1)
    assert not manager.knows(1)


# --------------------------------------------------------------------------- #
# LRU index order, pinned chunks and the protect set
# --------------------------------------------------------------------------- #
def test_lru_index_tracks_touch_order():
    manager, engine = make_manager(gpu_capacity=8 * MB)
    gpu = DeviceId(0, 0).memory_space
    for cid in (1, 2, 3):
        manager.register(chunk(cid, 2))
        stage(manager, engine, cid, [(cid, "gpu")])
        manager.unstage(cid)
    assert manager.lru_order(gpu) == [1, 2, 3]
    # re-touching chunk 1 moves it to the most-recently-used end
    stage(manager, engine, 10, [(1, "gpu")])
    manager.unstage(10)
    assert manager.lru_order(gpu) == [2, 3, 1]


def test_eviction_follows_lru_order_skipping_pinned():
    manager, engine = make_manager(gpu_capacity=6 * MB)
    for cid in (1, 2, 3):
        manager.register(chunk(cid, 2))
        stage(manager, engine, cid, [(cid, "gpu")])
        manager.unstage(cid)
    # pin chunk 1 (the LRU) through a staged task; 2 becomes the eviction victim
    stage(manager, engine, 50, [(1, "gpu")])
    manager.register(chunk(4, 2))
    stage(manager, engine, 51, [(4, "gpu")])
    assert manager.residency(1).kind is MemoryKind.GPU  # pinned: skipped
    assert manager.residency(2).kind is MemoryKind.HOST  # LRU unpinned: evicted
    assert manager.residency(3).kind is MemoryKind.GPU
    assert manager.residency(4).kind is MemoryKind.GPU


def test_staging_never_evicts_the_tasks_own_working_set():
    """``protect`` keeps the not-yet-pinned rest of the working set resident."""
    manager, engine = make_manager(gpu_capacity=6 * MB)
    manager.register(chunk(1, 2))
    manager.register(chunk(2, 2))
    manager.register(chunk(3, 2))
    stage(manager, engine, 1, [(1, "gpu")])
    manager.unstage(1)
    stage(manager, engine, 2, [(2, "gpu")])
    manager.unstage(2)
    # Chunk 1 is LRU.  A task needing {1, 2, 3} must evict nothing of its own
    # working set even though 1 and 2 are unpinned while 3 is brought in.
    assert stage(manager, engine, 3, [(1, "gpu"), (2, "gpu"), (3, "gpu")])
    for cid in (1, 2, 3):
        assert manager.residency(cid).kind is MemoryKind.GPU


def test_evicted_chunk_is_first_out_of_the_lower_space():
    """A chunk spilled GPU->host was the LRU of the GPU; it must also be the
    first candidate out of host memory, ahead of recently used host chunks."""
    manager, engine = make_manager(gpu_capacity=2 * MB, host_capacity=4 * MB)
    host = MemorySpace(0, MemoryKind.HOST)
    manager.register(chunk(1, 2))  # host-resident, recently used
    stage(manager, engine, 1, [(1, "host")])
    manager.unstage(1)
    manager.register(chunk(2, 2))
    stage(manager, engine, 2, [(2, "gpu")])
    manager.unstage(2)
    manager.register(chunk(3, 2))
    stage(manager, engine, 3, [(3, "gpu")])  # evicts 2 to host
    manager.unstage(3)
    assert manager.residency(2) == host
    # 2 entered host by eviction: it sits at the LRU end, before chunk 1,
    # even though chunk 1's last touch is older than chunk 2's move.
    assert manager.lru_order(host) == [2, 1]


@pytest.mark.parametrize("host_mb, a_lands", [(2, MemoryKind.DISK), (4, MemoryKind.HOST)])
def test_cascade_never_evicts_the_staging_tasks_own_chunk(host_mb, a_lands):
    """Staging host-resident B onto a GPU full with A must not push B to disk
    to make host room for A: the cascade protects B as well.  With B alone
    in the host, A drops past it to disk; with C behind B, C makes room."""
    manager, engine = make_manager(gpu_capacity=2 * MB, host_capacity=host_mb * MB)
    for cid in (1, 2, 3):  # A, B, C
        manager.register(chunk(cid, 2))
    stage(manager, engine, 1, [(2, "host")])
    manager.unstage(1)
    if host_mb == 4:
        stage(manager, engine, 2, [(3, "host")])
        manager.unstage(2)
    stage(manager, engine, 3, [(1, "gpu")])
    manager.unstage(3)
    assert stage(manager, engine, 4, [(2, "gpu")])
    assert manager.residency(2).kind is MemoryKind.GPU
    assert manager.residency(1).kind is a_lands
    assert manager.stats.bytes_from_disk == 0
    assert manager.stats.bytes_to_disk == 2 * MB  # A's or C's, not B's


# --------------------------------------------------------------------------- #
# next-use admission: which level a GPU victim enters
# --------------------------------------------------------------------------- #
def _full_gpu_over_full_host():
    """GPU (2 MB) holds chunk 1, host (2 MB) holds chunk 2; chunk 3 is new."""
    manager, engine = make_manager(gpu_capacity=2 * MB, host_capacity=2 * MB)
    for cid in (1, 2, 3):
        manager.register(chunk(cid, 2))
    stage(manager, engine, 1, [(2, "host")])
    manager.unstage(1)
    stage(manager, engine, 2, [(1, "gpu")])
    manager.unstage(2)
    return manager, engine


def test_victim_needed_after_the_host_chunks_goes_straight_to_disk():
    manager, engine = _full_gpu_over_full_host()
    manager.announce(10, [(2, "gpu")])
    manager.announce(20, [(1, "gpu")])
    assert (manager.next_use(1), manager.next_use(2), manager.next_use(3)) == (20, 10, float("inf"))
    assert stage(manager, engine, 3, [(3, "gpu")])
    assert manager.residency(1).kind is MemoryKind.DISK
    assert manager.residency(2).kind is MemoryKind.HOST  # needed sooner: kept
    assert (manager.stats.evictions_to_host, manager.stats.evictions_to_disk) == (0, 1)
    assert manager.stats.bytes_from_gpu == manager.stats.bytes_to_disk == 2 * MB


@pytest.mark.parametrize("uses", [
    [(10, [(1, "gpu")]), (20, [(2, "gpu")])],  # victim needed first
    [(10, [(1, "gpu"), (2, "gpu")])],  # a tie
    [],  # nothing announced: both never used again
], ids=["sooner", "tie", "unannounced"])
def test_victim_needed_no_later_than_a_host_chunk_enters_the_host(uses):
    manager, engine = _full_gpu_over_full_host()
    for task_id, requirements in uses:
        manager.announce(task_id, requirements)
    assert stage(manager, engine, 3, [(3, "gpu")])
    assert manager.residency(1).kind is MemoryKind.HOST
    assert manager.residency(2).kind is MemoryKind.DISK  # the host's LRU victim
    assert (manager.stats.evictions_to_host, manager.stats.evictions_to_disk) == (1, 1)


def test_clean_victim_drops_from_gpu_to_its_disk_copy_without_moving_data():
    manager, engine = make_manager(gpu_capacity=2 * MB, host_capacity=2 * MB)
    for cid in (1, 2, 3):
        manager.register(chunk(cid, 2))
    stage(manager, engine, 1, [(1, "host")])
    manager.unstage(1)
    stage(manager, engine, 2, [(2, "host")])  # pushes chunk 1 to disk
    manager.unstage(2)
    done = []
    manager.stage(3, [(1, "gpu")], lambda: done.append(3), writes=lambda: ())
    engine.run()
    manager.unstage(3)
    assert done and manager.disk_copies() == [1]  # a reader kept the copy
    manager.announce(10, [(2, "gpu")])
    manager.announce(20, [(1, "gpu")])
    before = replace(manager.stats)
    labels = []
    pcie_request = manager.resources.pcie.request
    manager.resources.pcie.request = lambda amount, callback, label="": (
        labels.append(label), pcie_request(amount, callback, label=label))
    assert stage(manager, engine, 4, [(3, "gpu")])
    assert manager.residency(1).kind is MemoryKind.DISK
    assert manager.residency(2).kind is MemoryKind.HOST
    assert manager.disk_copies() == []
    assert labels == []
    assert manager.stats.bytes_from_gpu == before.bytes_from_gpu
    assert manager.stats.bytes_to_disk == before.bytes_to_disk
    assert manager.stats.disk_writes_skipped == before.disk_writes_skipped + 1
    assert manager.stats.evictions_to_disk == before.evictions_to_disk + 1


def test_staging_consumes_announced_uses_and_delete_drops_them():
    manager, engine = make_manager()
    for cid in (1, 2):
        manager.register(chunk(cid, 1))
    manager.announce(5, [(1, "gpu"), (2, "gpu")])
    manager.announce(6, [(1, "host")])
    manager.announce(7, [(2, "gpu")])
    assert stage(manager, engine, 6, [(1, "host")])  # out of announcement order
    assert (manager.next_use(1), manager.next_use(2)) == (5, 5)
    assert stage(manager, engine, 5, [(1, "gpu"), (2, "gpu")])
    assert (manager.next_use(1), manager.next_use(2)) == (float("inf"), 7)
    manager.unstage(5)
    manager.unstage(6)
    manager.delete(2)
    assert manager._uses == {}


def test_pinned_bytes_counter_tracks_pin_unpin_and_moves():
    manager, engine = make_manager()
    gpu = DeviceId(0, 0).memory_space
    host = MemorySpace(0, MemoryKind.HOST)
    manager.register(chunk(1, 2))
    stage(manager, engine, 1, [(1, "host")])
    assert manager.pinned_bytes(host) == 2 * MB
    assert manager.pinned_bytes(gpu) == 0
    # double-pin through a second task, then move the pinned chunk to the GPU
    stage(manager, engine, 2, [(1, "gpu")])
    assert manager.pinned_bytes(host) == 0
    assert manager.pinned_bytes(gpu) == 2 * MB
    manager.unstage(1)
    assert manager.pinned_bytes(gpu) == 2 * MB  # still pinned by task 2
    manager.unstage(2)
    assert manager.pinned_bytes(gpu) == 0
    assert manager.room(gpu, 4 * MB) == 4 * MB  # the unpinned chunk is room


def test_batch_eviction_preserves_relative_lru_order():
    """When one staging call evicts several chunks, they must enter the lower
    space oldest-first (front-insertion must not reverse the batch)."""
    manager, engine = make_manager(gpu_capacity=6 * MB, host_capacity=16 * MB)
    host = MemorySpace(0, MemoryKind.HOST)
    for cid in (1, 2, 3):
        manager.register(chunk(cid, 2))
        stage(manager, engine, cid, [(cid, "gpu")])
        manager.unstage(cid)
    # one stage evicts chunks 1 and 2 together (4 MB needed)
    manager.register(chunk(4, 4))
    stage(manager, engine, 10, [(4, "gpu")])
    assert manager.residency(1) == host
    assert manager.residency(2) == host
    assert manager.lru_order(host) == [1, 2]


def test_eviction_skips_a_recently_touched_chunk():
    manager, engine = make_manager(gpu_capacity=6 * MB)
    for cid in (1, 2, 3):
        manager.register(chunk(cid, 2))
        stage(manager, engine, cid, [(cid, "gpu")])
        manager.unstage(cid)
    stage(manager, engine, 10, [(2, "gpu")])  # touch 2; 1 is LRU
    manager.unstage(10)
    manager.register(chunk(4, 4))
    stage(manager, engine, 11, [(4, "gpu")])  # evicts 1 and 3
    assert manager.residency(1).kind is MemoryKind.HOST
    assert manager.residency(3).kind is MemoryKind.HOST
    assert manager.residency(2).kind is MemoryKind.GPU
    assert manager.residency(4).kind is MemoryKind.GPU


# --------------------------------------------------------------------------- #
# queued staging requests: retries skipped while their block holds
# --------------------------------------------------------------------------- #
class _FullRetryManager(MemoryManager):
    """Reference: re-attempts every queued request on every release (each
    unstage, and each tenant going idle)."""

    def release(self):
        still_pending = []
        for pending in self._pending:
            if self._try_stage(
                pending.task_id, pending.requirements, pending.callback,
                background=pending.background, retry=True, writes=pending.writes,
            ) is not None:
                still_pending.append(pending)
        self._pending = still_pending


def _count_attempts(manager):
    """Wrap ``manager._try_stage`` so every attempt is counted."""
    calls = [0]
    attempt = manager._try_stage

    def counted(*args, **kwargs):
        calls[0] += 1
        return attempt(*args, **kwargs)

    manager._try_stage = counted
    return calls


class _Side:
    """One manager under a random program, with its engine and callback log."""

    def __init__(self, cls, tenants, capacities):
        cluster = Cluster(azure_nc24rsv2(nodes=1, gpus_per_node=2))
        node = cluster.node(0)
        self.engine = Engine()
        resources = WorkerResources(self.engine, node, DEFAULT_OVERHEADS, Trace())
        self.spaces = [dev.memory_space for dev in node.devices]
        self.spaces += [node.host_space, node.disk_space]
        capacities = dict(zip(self.spaces, capacities))
        self.manager = cls(node, resources, capacities=capacities,
                           chunk_tenants=tenants)
        if tenants is not None:
            for tenant in (0, 1):
                self.manager.set_tenant_quota(tenant, 0.4)
            # Both tenants have work throughout, so their quotas protect.
            self.manager.tenant_outstanding = {0: 1, 1: 1}
        self.attempts = _count_attempts(self.manager)
        self.fired = []
        self.outcomes = []

    def apply(self, op, *args):
        try:
            if op == "stage":
                task_id, requirements, background, writes = args
                self.manager.stage(task_id, requirements,
                                   lambda: self.fired.append(task_id), background,
                                   writes=lambda: writes)
            elif op == "run":
                self.engine.run()
            else:
                getattr(self.manager, op)(*args)
            self.outcomes.append(None)
        except OutOfMemoryError as exc:
            self.outcomes.append(str(exc))

    def observed(self):
        manager = self.manager
        return (
            list(self.fired), list(self.outcomes), self.engine.now,
            {cid: manager.residency(cid) for cid in manager._chunks},
            [manager.lru_order(space) for space in self.spaces],
            [manager.used_bytes(space) for space in self.spaces],
            [manager.pinned_bytes(space) for space in self.spaces],
            manager.disk_copies(),
            manager.stats,
            [pending.task_id for pending in manager._pending],
            manager._uses,
        )

    def assert_disk_bytes(self, where):
        """Disk-pool bytes are the disk-resident chunks plus the retained copies."""
        manager, disk = self.manager, self.spaces[-1]
        resident = manager.footprint([(cid, "any") for cid in manager.lru_order(disk)])
        copies = manager.footprint([(cid, "any") for cid in manager.disk_copies()])
        assert manager.used_bytes(disk) == resident + copies, where


def _random_program(seed):
    """Drive the skipping manager and the full-retry reference in lockstep;
    returns their attempt counts after asserting identical state, the
    disk-pool byte invariant and the next-use index at each step."""
    rng = random.Random(seed)
    tenants = ({}, {}) if seed % 2 else (None, None)
    # Half the seeds (2 and 3 mod 4: with and without tenants) run a small
    # host over a small disk, so chunks cycle through the disk tier and
    # retained disk copies fill its pool.
    capacities = (8 * MB, 8 * MB, 12 * MB, 256 * MB)
    if seed % 4 >= 2:
        capacities = (5 * MB, 5 * MB, 3 * MB, 8 * MB)
    # Half the seeds (4 to 7 mod 8) announce each task before staging it,
    # half of those a few steps ahead, so next uses rank the victims.
    announcing = seed % 8 >= 4
    fast = _Side(MemoryManager, tenants[0], capacities)
    full = _Side(_FullRetryManager, tenants[1], capacities)
    devices = [DeviceId(0, 0), DeviceId(0, 1)]
    chunk_ids, unstaged = [], set()
    #: announced tasks that have not committed, and stage ops held back
    announced, upcoming, committed = {}, [], set()
    next_task = next_chunk = 0
    for step in range(120):
        roll = rng.random()
        ops = []
        if roll < 0.15 or len(chunk_ids) < 4:
            next_chunk += 1
            cid = next_chunk
            elems = rng.randint(1, 4) * MB // 8  # 0.5 to 2 MB of float32
            meta = ChunkMeta(chunk_id=cid, region=Region((0,), (elems,)),
                             dtype=np.float32, home=rng.choice(devices), array_id=1)
            tenant = rng.randrange(2)
            for tags in tenants:
                if tags is not None:
                    tags[cid] = tenant
            chunk_ids.append(cid)
            ops.append(("register", meta))
        elif roll < 0.55:
            if upcoming and rng.random() < 0.5:
                ops.append(upcoming.pop(0))
            else:
                next_task += 1
                if rng.random() < 0.6:
                    picked = rng.sample(chunk_ids, rng.randint(1, 4))
                    requirements = [(cid, "gpu") for cid in picked]
                else:
                    requirements = [(rng.choice(chunk_ids), rng.choice(["host", "any"]))]
                staged = [cid for cid, _ in requirements]
                writes = tuple(rng.sample(staged, rng.randint(0, len(staged))))
                op = ("stage", next_task, requirements, rng.random() < 0.2, writes)
                if announcing:
                    announced[next_task] = requirements
                    ops.append(("announce", next_task, requirements))
                    if rng.random() < 0.5:
                        upcoming.append(op)
                        op = None
                if op is not None:
                    ops.append(op)
        elif roll < 0.8:
            ready = sorted(set(full.fired) - unstaged)
            if not ready:
                continue
            task_id = rng.choice(ready)
            unstaged.add(task_id)
            ops.append(("unstage", task_id))
        elif roll < 0.9:
            space = rng.choice(full.spaces[:3])
            keep = rng.sample(chunk_ids, rng.randint(0, 3))
            ops.append(("reserve", space, keep, rng.randint(0, 8) * MB))
        elif roll < 0.93:
            cid = rng.choice(chunk_ids)
            meta = full.manager._chunks[cid].meta
            ops.append(("retarget_home", cid, replace(meta, home=rng.choice(devices))))
        elif roll < 0.96:
            # Delete an unpinned chunk no queued or announced task still needs.
            needed = {cid for pending in full.manager._pending
                      for cid, _ in pending.requirements}
            needed.update(cid for requirements in announced.values()
                          for cid, _ in requirements)
            idle = [cid for cid in chunk_ids
                    if full.manager._chunks[cid].pins == 0 and cid not in needed]
            if not idle or len(chunk_ids) <= 4:
                continue
            cid = rng.choice(idle)
            chunk_ids.remove(cid)
            ops.append(("delete", cid))
        else:
            ops.append(("run",))
        for op in ops:
            where = f"seed {seed}, step {step}: {op}"
            fast.apply(*op)
            full.apply(*op)
            assert fast.observed() == full.observed(), where
            # Admission runs the eviction's own walk, so an admitted request
            # always finds its room.
            assert not (fast.outcomes[-1] or "").startswith("could not free"), where
            fast.assert_disk_bytes(where)
            # The index lists, in announcement order, each announced task
            # that has not committed its staging.
            committed.update(full.manager._staged)
            for task_id in committed.intersection(announced):
                del announced[task_id]
            index = {}
            for task_id, requirements in announced.items():
                for cid, _ in requirements:
                    index.setdefault(cid, []).append(task_id)
            assert fast.manager._uses == index, where
    return fast.attempts[0], full.attempts[0]


def test_skipped_retries_match_the_full_retry_loop():
    """Seeded differential: skipping retries whose block holds changes no
    callback, residency, LRU order, counter or queue, step by step; and no
    admitted request or reserve falls short of room."""
    fast_total = full_total = 0
    for seed in range(40):
        fast, full = _random_program(seed)
        fast_total += fast
        full_total += full
    assert fast_total < full_total  # the programs do exercise skipping


def test_blocked_request_is_not_retried_while_pinned_exceeds_its_limit():
    manager, engine = make_manager(gpu_capacity=4 * MB)
    for cid, mb in ((1, 2), (2, 1), (3, 1), (4, 3)):
        manager.register(chunk(cid, mb))
    for task in (1, 2, 3):
        assert stage(manager, engine, task, [(task, "gpu")])
    # 4 MB pinned: the 3 MB request fits only once pinned <= 4 - 3 = 1 MB
    assert not stage(manager, engine, 4, [(4, "gpu")])
    attempts = _count_attempts(manager)
    manager.unstage(3)  # 3 MB pinned
    manager.unstage(2)  # 2 MB pinned
    assert attempts[0] == 0
    assert manager.residency(4) is None
    manager.unstage(1)  # nothing pinned
    engine.run()
    assert attempts[0] == 1
    assert manager.residency(4).kind is MemoryKind.GPU


def _blocked_behind_own_chunk(b_kind):
    """Task 3 stages ``[(1, "gpu"), (2, b_kind)]`` on a full 4 MB GPU that
    holds chunk 2 unpinned and chunk 3 pinned by task 2, so it is blocked
    with limit 4 - 2 (own) - 2 (needed) = 0 MB and 2 MB pinned."""
    manager, engine = make_manager(gpu_capacity=4 * MB)
    for cid in (1, 2, 3):
        manager.register(chunk(cid, 2))
    stage(manager, engine, 1, [(2, "gpu")])
    manager.unstage(1)
    assert stage(manager, engine, 2, [(3, "gpu")])
    done = []
    manager.stage(3, [(1, "gpu"), (2, b_kind)], lambda: done.append(3))
    engine.run()
    assert not done
    return manager, engine, done


def test_blocked_request_is_retried_once_its_own_chunk_moves():
    """The limit alone would skip this retry: the GPU stays as pinned as
    before, but chunk 2 left the GPU, so the request no longer needs its room."""
    manager, engine, done = _blocked_behind_own_chunk("host")
    assert stage(manager, engine, 4, [(2, "host")])  # moves chunk 2 to host
    manager.unstage(4)
    engine.run()
    assert done == [3]
    assert manager.residency(1).kind is MemoryKind.GPU


def test_blocked_request_is_retried_once_its_own_chunk_is_pinned():
    """Task 4 pins chunk 2 in place, then task 2 unpins chunk 3: 2 MB stay
    pinned, above the limit, yet chunk 3 is now evictable room."""
    manager, engine, done = _blocked_behind_own_chunk("gpu")
    assert stage(manager, engine, 4, [(2, "gpu")])
    manager.unstage(2)
    engine.run()
    assert done == [3]
    assert manager.residency(1).kind is MemoryKind.GPU
    assert manager.residency(3).kind is MemoryKind.HOST
