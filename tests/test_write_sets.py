"""Task write sets (``Task.chunk_writes``) checked against real writes.

The memory manager keeps a chunk's disk copy until a task whose write set
names the chunk stages it, so a write set that misses a chunk the task
modifies would let a stale disk copy stand in for the new contents.  This
test runs every registered workload, one ``redistribute`` and one
cross-node transfer in functional mode, checksums each staged chunk's
buffer just before and just after each task's payload, and requires every
chunk whose bytes changed to be in the task's ``chunk_writes()``.

"Just before the payload" is the start of the last resource callback of the
task: every resource request made while a task runs is tagged with that
task, and each tagged callback re-snapshots the task's staged chunks.
"""

from collections import Counter

import numpy as np

import repro.apps  # noqa: F401  (registers the cgc and ensemble workloads)
from repro import BlockDist, Context, azure_nc24rsv2
from repro.core import tasks as T
from repro.hardware import DeviceId, MemoryKind, MemorySpace
from repro.kernels import WORKLOADS, create_workload
from repro.runtime.executors import TaskExecutor
from repro.runtime.network import NetworkFabric
from repro.simulator.resources import BandwidthResource, ChannelResource

KiB = 1024

#: one small functional instance per registered workload
CONFIGS = {
    "black_scholes": dict(n=600, chunk_elems=200),
    "cgc": dict(n=40 * 40, k_row=4, k_col=4, rows_per_chunk=10, iterations=2),
    "correlator": dict(n=10, antennas=6, channels_per_chunk=3),
    "ensemble": dict(n=20 * 20, nruns=2, k_row=3, k_col=3, rows_per_chunk=5),
    "expressions": dict(n=1024, chunk_elems=256),
    "gemm": dict(n=36 ** 3, chunk_elems=36 * 9),
    "hotspot": dict(n=40 * 40, chunk_elems=40 * 10, iterations=2),
    "hotspot2": dict(n=64 * 64, chunk_elems=64 * 16, iterations=2),
    "hotspot3": dict(n=64 * 64, chunk_elems=64 * 16, iterations=3),
    "kmeans": dict(n=400, chunk_elems=110, iterations=2, k=5),
    "kmeans2": dict(n=2048, chunk_elems=512, iterations=2, k=5, quantize=True),
    "md5": dict(n=4000),
    "nbody": dict(n=400, iterations=2),
    "spmv": dict(n=60 ** 2, chunk_elems=300, iterations=2),
}


def _kind(task):
    """The task's kind, with multi-segment (fused) launches told apart."""
    if isinstance(task, T.LaunchTask) and task.segment_count > 1:
        return "multi-segment launch"
    return task.kind


class WriteObserver:
    """Checks each finished task's changed chunks against its write set."""

    def __init__(self):
        self.current = None  # (task, storage) whose callbacks are running
        self.before = {}
        self.started = Counter()
        self.finished = Counter()
        self.wrote = Counter()
        self.violations = []

    @staticmethod
    def _digest(task, storage):
        digest = {}
        for chunk_id, _ in task.chunk_requirements():
            if chunk_id in storage:
                buffer = storage.buffer(chunk_id)
                if buffer is not None:
                    digest[chunk_id] = buffer.tobytes()
        return digest

    def _snapshot(self, tag):
        task, storage = tag
        self.before[task.task_id] = self._digest(task, storage)

    def _check(self, tag):
        task, storage = tag
        before = self.before.pop(task.task_id)
        after = self._digest(task, storage)
        changed = {cid for cid, data in after.items() if before.get(cid) != data}
        self.finished[_kind(task)] += 1
        if changed:
            self.wrote[_kind(task)] += 1
        missing = changed - set(task.chunk_writes())
        if missing:
            self.violations.append(
                f"{task} changed chunks {sorted(missing)} outside its chunk_writes() "
                f"{sorted(task.chunk_writes())}"
            )

    def _tagged(self, tag, callback):
        def run(*args):
            self._snapshot(tag)
            outer, self.current = self.current, tag
            try:
                callback(*args)
            finally:
                self.current = outer
        return run

    def install(self, monkeypatch):
        observer = self
        execute = TaskExecutor.execute

        def observed_execute(executor, task, on_complete):
            tag = (task, executor.storage)
            observer.started[_kind(task)] += 1

            def finished():
                observer._check(tag)
                outer, observer.current = observer.current, None
                try:
                    on_complete()
                finally:
                    observer.current = outer

            observer._tagged(tag, execute)(executor, task, finished)

        monkeypatch.setattr(TaskExecutor, "execute", observed_execute)
        for cls in (ChannelResource, BandwidthResource):
            monkeypatch.setattr(cls, "request", self._tagging_request(cls.request))
        expect = NetworkFabric.expect

        def observed_expect(fabric, src, dst, tag, callback):
            if observer.current is not None:
                callback = observer._tagged(observer.current, callback)
            expect(fabric, src, dst, tag, callback)

        monkeypatch.setattr(NetworkFabric, "expect", observed_expect)

    def _tagging_request(self, request):
        observer = self

        def observed_request(resource, amount, callback, label=""):
            if observer.current is not None:
                callback = observer._tagged(observer.current, callback)
            request(resource, amount, callback, label)

        return observed_request


def _cluster():
    # two nodes, so halo exchanges and the redistribute cross the network
    return azure_nc24rsv2(nodes=2, gpus_per_node=2)


def _capped_kmeans(host_kib=None):
    """K-Means with the disk tier on, over two 48 KiB GPU pools and a host
    pool of ``host_kib`` (the node's default when ``None``); returns the
    per-worker memory stats."""
    caps = {DeviceId(0, i).memory_space: 48 * KiB for i in range(2)}
    if host_kib is not None:
        caps[MemorySpace(0, MemoryKind.HOST)] = host_kib * KiB
    ctx = Context(azure_nc24rsv2(nodes=1, gpus_per_node=2), mode="functional",
                  memory_capacities=caps, disk=True, disk_seed=1)
    workload = create_workload("kmeans", ctx, 8192, chunk_elems=1024, iterations=3, seed=1)
    workload.run()
    assert workload.verify()
    return list(ctx.stats().memory.values())


def test_every_changed_chunk_is_in_the_tasks_write_set(monkeypatch):
    assert set(CONFIGS) == set(WORKLOADS), "give every registered workload a config"
    observer = WriteObserver()
    observer.install(monkeypatch)
    for name in sorted(CONFIGS):
        ctx = Context(_cluster(), mode="functional")
        workload = create_workload(name, ctx, **CONFIGS[name])
        workload.run()
        assert workload.verify(), name

    # Re-chunk a 2 x 2 array onto fewer, larger chunks: node 1's data moves
    # to node 0 through send/recv pairs, then the old chunks are deleted.
    ctx = Context(_cluster(), mode="functional")
    data = np.arange(4096, dtype=np.float32)
    array = ctx.from_numpy(data, BlockDist(1024), name="x")
    ctx.redistribute(array, BlockDist(2048))
    np.testing.assert_array_equal(ctx.gather(array), data)

    # K-Means streaming through a 64 KiB host pool to disk: promotions,
    # spills and retained disk copies in the same run.
    memory = _capped_kmeans(host_kib=64)
    assert sum(m.disk_writes_skipped for m in memory) > 0

    assert not observer.violations, "\n".join(observer.violations[:10])
    assert observer.started == observer.finished
    # The run must exercise every task kind that writes a staged chunk, and
    # the read-only kinds must have run too.
    for kind in ("fill", "launch", "multi-segment launch", "copy", "reduce", "recv"):
        assert observer.wrote[kind] > 0, f"no {kind} task changed a chunk"
    for kind in ("send", "download", "promotechunk"):
        assert observer.finished[kind] > 0, f"no {kind} task ran"
        assert observer.wrote[kind] == 0


def test_runs_that_never_reach_disk_compute_no_write_set(monkeypatch):
    """Write sets are only asked for while a staged chunk holds a disk copy,
    so a run that spills to host but never to disk computes none."""
    calls = []
    for cls in vars(T).values():
        if isinstance(cls, type) and issubclass(cls, T.Task) and "chunk_writes" in vars(cls):
            def counted(task, original=cls.chunk_writes):
                calls.append(task)
                return original(task)
            monkeypatch.setattr(cls, "chunk_writes", counted)
    memory = _capped_kmeans()
    assert sum(m.evictions_to_host for m in memory) > 0
    assert sum(m.evictions_to_disk for m in memory) == 0
    assert calls == []
