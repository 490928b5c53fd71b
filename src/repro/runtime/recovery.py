"""Lineage-based recovery from permanent device failures.

When a GPU fails permanently, every chunk that was *resident only* in its
memory is gone.  Rather than checkpointing (which would cost bandwidth on
every iteration), the runtime records each chunk's **lineage**: which task
produced which version of which chunk, and which chunk versions that task
read.  On failure, the minimal producer subgraph of the lost chunks is
replayed on the host against surviving data — chunks whose bytes still exist
(spilled replicas, chunks on healthy devices) are leaves of the replay and are
promoted instead of recomputed.

The tracker observes every :class:`~repro.core.tasks.ExecutionPlan` the
driver submits (see :meth:`~repro.runtime.system.RuntimeSystem.submit_plan`).
Task ids are allocated in program order and every dependency edge points
backwards, so walking a plan's tasks in task-id order is a valid
topological order — both for building the version history and for replay.

Costs of this scheme, by design:

* lineage records hold references to their tasks, so kernel arguments and
  fill payloads (the program's *inputs*) stay reachable for the lifetime of
  the context — inputs must be durable for lineage recovery to be possible;
* replay is functional-mode only (it needs real buffers); in simulate mode
  recovery still rehomes chunks and charges costs but cannot rebuild bytes.

:func:`recover_device` is the one recovery path: the runtime calls it per
failed device at a quiescent point, whichever front-end — a single
:class:`~repro.core.context.Context` or a multi-tenant
:class:`~repro.runtime.serving.ServingSystem` — submitted the work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from dataclasses import replace as _dc_replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core import tasks as T
from ..core.chunk import ChunkId, ChunkMeta
from ..errors import FaultError
from ..hardware.topology import DeviceId
from ..perfmodel.costs import DEFAULT_OVERHEADS
from .storage import ChunkStorage

__all__ = ["LineageTracker", "recover_device"]


@dataclass
class _LineageRecord:
    """One producing task in the lineage graph.

    ``task`` is what replay applies (:meth:`~repro.core.tasks.Task.apply`):
    the observed task itself, or for a recv a copy of the received region
    from its matched send's source chunk.  ``reads`` are the *external*
    chunk versions the task consumed (a multi-segment launch's internal
    producer→consumer edges are not listed — the task rebuilds them itself
    when replayed).  ``writes`` maps every chunk the task wrote to the
    version it left behind.
    """

    task_id: int
    task: T.Task
    reads: List[Tuple[ChunkId, int]] = field(default_factory=list)
    writes: Dict[ChunkId, int] = field(default_factory=dict)


class LineageTracker:
    """Records chunk version history and replays lost chunks' producers."""

    def __init__(self) -> None:
        #: current version of every chunk ever created (0 = as created)
        self._version: Dict[ChunkId, int] = {}
        #: metadata of every chunk ever created (kept past deletion so old
        #: versions can still be replayed as intermediates)
        self._meta: Dict[ChunkId, ChunkMeta] = {}
        #: (chunk id, version) -> the record that produced that version
        self._producer: Dict[Tuple[ChunkId, int], _LineageRecord] = {}
        #: chunks not yet deleted — only these can serve as replay leaves
        self._live: set = set()
        #: send tag -> (src chunk, version read) for recv matching; sends
        #: always precede their recv in task-id order in this codebase
        self._send_by_tag: Dict[int, Tuple[ChunkId, int]] = {}
        #: (chunk id, version) -> zero-argument loader returning the chunk's
        #: bytes from durable storage.  ``Context.checkpoint`` registers one
        #: per captured chunk: a checkpointed version is a replay *leaf* —
        #: recovery reloads it from the checkpoint file instead of replaying
        #: its producers, so only non-checkpointed lineage is recomputed.
        self._durable: Dict[Tuple[ChunkId, int], object] = {}
        #: replay leaves satisfied from a checkpoint instead of recompute
        self.durable_chunks_loaded = 0

    # ------------------------------------------------------------------ #
    # observation (driver-side, every submitted plan)
    # ------------------------------------------------------------------ #
    def observe_plan(self, plan: T.ExecutionPlan) -> None:
        """Fold one execution plan into the lineage graph."""
        for task in sorted(plan.all_tasks(), key=lambda t: t.task_id):
            self._observe_task(task)

    def note_rehome(self, meta: ChunkMeta) -> None:
        """Track a chunk's new metadata after recovery retargeted its home."""
        self._meta[meta.chunk_id] = meta

    def note_durable(self, chunk_id: ChunkId, loader) -> None:
        """Mark the chunk's *current* version as durably checkpointed.

        ``loader()`` must return the chunk's bytes as a NumPy array (the
        checkpoint module reads and decompresses them from the file on
        demand).  A later write to the chunk bumps its version, so the
        durable mark pins exactly the version that was captured.
        """
        version = self._version.get(chunk_id)
        if version is None:
            return
        self._durable[(chunk_id, version)] = loader

    def _observe_task(self, task: T.Task) -> None:
        kind = task.kind
        if kind == "createchunk":
            chunk = task.chunk
            record = _LineageRecord(task_id=task.task_id, task=task)
            record.writes[chunk.chunk_id] = 0
            self._version[chunk.chunk_id] = 0
            self._meta[chunk.chunk_id] = chunk
            self._producer[(chunk.chunk_id, 0)] = record
            self._live.add(chunk.chunk_id)
            return
        if kind == "deletechunk":
            # Keep meta/versions: deleted chunks can still be replay
            # intermediates; they just cannot be leaves any more.
            self._live.discard(task.chunk_id)
            return
        if kind in (
            "download", "combine", "memoryreserve", "promotechunk",
        ):
            return

        record = _LineageRecord(task_id=task.task_id, task=task)
        internal: set = set()

        def read(chunk_id: ChunkId) -> None:
            if chunk_id not in internal:
                record.reads.append((chunk_id, self._version[chunk_id]))

        def write(chunk_id: ChunkId, full: bool) -> None:
            # A partial (or read-modify-write) update consumes the previous
            # version as an implicit input.
            if not full:
                read(chunk_id)
            version = self._version[chunk_id] + 1
            self._version[chunk_id] = version
            self._producer[(chunk_id, version)] = record
            record.writes[chunk_id] = version
            internal.add(chunk_id)

        if kind == "fill":
            write(task.chunk_id, full=True)
        elif kind == "launch":
            for segment, bindings in enumerate(task.array_args_list):
                for binding in bindings:
                    if not binding.writes:
                        read(binding.chunk_id)
                for binding in bindings:
                    if binding.writes:
                        full = (
                            binding.mode == "write"
                            and binding.access_region.contains_region(
                                self._meta[binding.chunk_id].region
                            )
                        )
                        write(binding.chunk_id, full=full)
                if task.reduce_epilogues:
                    for epilogue in task.reduce_epilogues[segment]:
                        read(epilogue.src_chunk)
                        write(epilogue.dst_chunk, full=False)
        elif kind == "copy":
            read(task.src_chunk)
            full = task.region.contains_region(self._meta[task.dst_chunk].region)
            write(task.dst_chunk, full=full)
        elif kind == "send":
            read(task.chunk_id)
            self._send_by_tag[task.tag] = (task.chunk_id, self._version[task.chunk_id])
        elif kind == "recv":
            matched = self._send_by_tag.pop(task.tag, None)
            if matched is None:
                raise FaultError(
                    f"lineage: recv tag {task.tag} has no matching send"
                )
            src_chunk, src_version = matched
            record.reads.append((src_chunk, src_version))
            record.task = T.CopyTask(
                task_id=task.task_id, worker=task.worker, src_chunk=src_chunk,
                dst_chunk=task.chunk_id, region=task.region, nbytes=task.nbytes,
            )
            full = task.region.contains_region(self._meta[task.chunk_id].region)
            write(task.chunk_id, full=full)
        elif kind == "reduce":
            read(task.src_chunk)
            write(task.dst_chunk, full=False)

    # ------------------------------------------------------------------ #
    # replay
    # ------------------------------------------------------------------ #
    def replay(
        self,
        lost: List[ChunkId],
        buffer_of,
        kernel_registry: Dict[str, object],
    ) -> int:
        """Rebuild the contents of ``lost`` chunks from surviving data.

        ``buffer_of(chunk_id)`` must return the live NumPy buffer of a chunk
        (on whichever worker holds it) or ``None`` in simulate mode.  The
        minimal producer closure of the lost chunks' final versions is
        computed backwards, then executed forwards in task-id order: each
        record's task applies its own effect (:meth:`~repro.core.tasks.Task.apply`,
        the executor's definition) to a scratch :class:`ChunkStorage`;
        finally each lost chunk's (poisoned) storage buffer is overwritten
        with the replayed bytes.

        Returns the number of lineage records replayed.
        """
        lost_set = set(lost)

        def is_leaf(chunk_id: ChunkId, version: int) -> bool:
            return (
                chunk_id in self._live
                and chunk_id not in lost_set
                and self._version[chunk_id] == version
            )

        # Backward closure from the lost chunks' final versions.
        needed: List[Tuple[ChunkId, int]] = [
            (chunk_id, self._version[chunk_id])
            for chunk_id in lost
            if chunk_id in self._version
        ]
        records: Dict[int, _LineageRecord] = {}
        seen: set = set()
        while needed:
            chunk_id, version = needed.pop()
            if (chunk_id, version) in seen:
                continue
            seen.add((chunk_id, version))
            if is_leaf(chunk_id, version):
                continue
            if (chunk_id, version) in self._durable:
                continue  # checkpointed: reload from the file, don't recompute
            record = self._producer.get((chunk_id, version))
            if record is None:
                raise FaultError(
                    f"lineage: no producer recorded for chunk {chunk_id} "
                    f"version {version}; cannot recover"
                )
            if record.task_id not in records:
                records[record.task_id] = record
                needed.extend(record.reads)

        # Forward pass.  One mutable scratch chunk per chunk id suffices:
        # task-id order is topological and the planner's conflict edges
        # guarantee every reader of version v precedes the writer of v+1.
        scratch = ChunkStorage()
        scratch_version: Dict[ChunkId, int] = {}

        def load(chunk_id: ChunkId, data: np.ndarray) -> None:
            scratch.delete(chunk_id)
            scratch.adopt(self._meta[chunk_id], data)

        def ensure(chunk_id: ChunkId, version: int) -> None:
            if scratch_version.get(chunk_id) == version:
                return
            if is_leaf(chunk_id, version):
                buffer = buffer_of(chunk_id)
                if buffer is None:
                    raise FaultError(
                        f"lineage: no buffer for surviving chunk {chunk_id}"
                    )
                load(chunk_id, np.array(buffer))
                scratch_version[chunk_id] = version
                return
            loader = self._durable.get((chunk_id, version))
            if loader is not None:
                load(chunk_id, np.asarray(loader()))
                scratch_version[chunk_id] = version
                self.durable_chunks_loaded += 1
                return
            raise FaultError(
                f"lineage: chunk {chunk_id} version {version} neither "
                f"survived nor was replayed"
            )

        for record in sorted(records.values(), key=lambda r: r.task_id):
            for chunk_id, version in record.reads:
                ensure(chunk_id, version)
            if record.task.kind != "createchunk":
                # A create is version 0 of its chunk: its own apply allocates
                # it, holding the value it was created with.
                for chunk_id in record.writes:
                    if chunk_id not in scratch:
                        scratch.create(self._meta[chunk_id])
            record.task.apply(scratch, kernel_registry)
            for chunk_id, version in record.writes.items():
                scratch_version[chunk_id] = version

        for chunk_id in lost:
            if chunk_id not in self._version:
                continue
            # A lost chunk whose final version was checkpointed has no replay
            # record at all — ensure() loads it from the durable store here.
            ensure(chunk_id, self._version[chunk_id])
            buffer = buffer_of(chunk_id)
            if buffer is not None:
                np.copyto(buffer, scratch.buffer(chunk_id))
        return len(records)


# --------------------------------------------------------------------------- #
# device recovery (the runtime calls this at a quiescent point)
# --------------------------------------------------------------------------- #
def recover_device(runtime, device: DeviceId) -> None:
    """Recover from one permanent device failure at a quiescent point.

    Phase A (driver-side, instantaneous in virtual time except for the lump
    costs charged at the end): shrink the topology, account for lost vs
    surviving chunks, replay the lost chunks' lineage, rehome every chunk of
    the dead device onto a survivor, and invalidate all cached plans.  Phase
    B: force-redistribute every affected array under its own distribution
    against the shrunken device list; the caller's run-until-idle loop
    drains those plans before returning.

    Worker-level recovery runs once; the array sweep and the forced
    redistribution run per context in ``runtime.contexts``, so under
    multi-tenant serving each affected tenant's arrays are rebuilt through
    its *own* planner/window (plans stay tenant-tagged) and untouched
    tenants see no new plans at all.
    """
    from .system import ExecutionMode

    cluster = runtime.cluster
    if cluster.is_failed(device):
        return
    cluster.mark_failed(device)
    survivors = cluster.device_ids()
    if not survivors:
        raise FaultError(
            f"device {device} failed and no devices survive; cannot recover"
        )
    runtime.counters.devices_failed += 1
    worker = runtime.workers[device.worker]
    worker.scheduler.blacklist.add(device)

    lost, surviving = worker.memory.mark_device_failed(device)
    runtime.counters.chunks_lost += len(lost)
    runtime.counters.replicas_promoted += len(surviving)
    for chunk_id in lost:
        worker.storage.poison(chunk_id)
    replayed = 0
    if (
        runtime.lineage is not None
        and lost
        and runtime.mode is ExecutionMode.FUNCTIONAL
    ):
        replayed = runtime.lineage.replay(
            lost, lambda chunk_id: _buffer_of(runtime, chunk_id),
            runtime.kernel_registry,
        )
    runtime.counters.tasks_replayed += replayed
    restored = sum(
        worker.storage.meta(cid).nbytes for cid in lost if cid in worker.storage
    )

    # Rehome every chunk whose home was the dead device: prefer a same-worker
    # survivor (metadata swap only), else adopt the host-resident bytes on
    # the first surviving worker.
    same_worker = [d for d in survivors if d.worker == device.worker]
    new_home = same_worker[0] if same_worker else survivors[0]
    affected = []
    for owner in runtime.contexts:
        for array in list(owner.arrays.values()):
            if not any(chunk.home == device for chunk in array.chunks):
                continue
            affected.append((owner, array))
            new_chunks: List[ChunkMeta] = []
            for chunk in array.chunks:
                if chunk.home != device:
                    new_chunks.append(chunk)
                    continue
                new_chunks.append(_rehome_chunk(runtime, chunk, new_home))
            array.chunks = new_chunks
            array.layout_epoch += 1
    # Leftovers (temporaries still alive at the quiescent point).
    for chunk_id in lost + surviving:
        if chunk_id in worker.storage and worker.storage.meta(chunk_id).home == device:
            _rehome_chunk(runtime, worker.storage.meta(chunk_id), new_home)

    # Cached recipes were planned against the pre-failure topology (cache
    # keys omit the device list) — drop everything, plain and fused.
    for owner in runtime.contexts:
        owner.planner.invalidate_all()

    # Make the recovery visible in virtual time as deterministic lump costs:
    # one fixed control charge per replayed lineage record, and the restored
    # bytes crossing PCIe back toward the devices.
    if replayed:
        worker.resources.cpu.request(
            replayed * DEFAULT_OVERHEADS.plan_per_task,
            lambda: None,
            label="lineage replay",
        )
    if restored:
        worker.resources.pcie.request(restored, lambda: None, label="recovery restore")

    # Phase B: re-chunk every affected array under its own distribution, now
    # evaluated against the shrunken healthy device list (each owner plans
    # through its own planner, so the plans carry its tenant tag).
    for owner, array in affected:
        owner.redistribute(array, array.distribution)
        array.rechunked = False  # the next cold launch may re-chunk it again
        runtime.counters.redistributes_forced += 1


def _buffer_of(runtime, chunk_id: ChunkId) -> Optional[np.ndarray]:
    """The live buffer of a chunk on whichever worker stores it."""
    for worker in runtime.workers:
        if chunk_id in worker.storage:
            return worker.storage.buffer(chunk_id)
    return None


def _rehome_chunk(runtime, chunk: ChunkMeta, new_home: DeviceId) -> ChunkMeta:
    """Retarget one chunk of a failed device onto ``new_home``."""
    old_worker = runtime.workers[chunk.worker]
    new_meta = _dc_replace(chunk, home=new_home)
    if new_home.worker == chunk.worker:
        # Same worker: swap metadata in place, bytes stay where they are
        # (host memory after mark_device_failed / lineage replay).
        old_worker.storage.replace_meta(new_meta)
        old_worker.memory.retarget_home(chunk.chunk_id, new_meta)
    else:
        dest = runtime.workers[new_home.worker]
        buffer = old_worker.storage.buffer(chunk.chunk_id)
        dest.storage.adopt(new_meta, buffer)
        dest.memory.adopt_resident(new_meta)
        old_worker.memory.delete(chunk.chunk_id)
        old_worker.storage.delete(chunk.chunk_id)
    if runtime.lineage is not None:
        runtime.lineage.note_rehome(new_meta)
    return new_meta
