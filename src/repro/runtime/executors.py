"""Task execution: durations, resource selection and functional payloads.

Each worker owns one :class:`TaskExecutor`.  When the scheduler has staged a
task, the executor decides which simulated resource the task occupies and for
how long (kernel launches use the roofline cost model, copies and sends are
sized in bytes on shared-bandwidth resources), and — in ``functional``
execution mode — performs the task's actual effect on the chunk buffers so
results can be checked against NumPy references.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

import numpy as np

from ..core import tasks as T
from ..hardware.topology import Node
from ..perfmodel.costs import DEFAULT_OVERHEADS, kernel_time
from .memory import MemoryManager
from .network import Message, NetworkFabric
from .resources import WorkerResources
from .storage import ChunkStorage

__all__ = ["TaskExecutor"]

_TINY_TASK_DURATION = 1e-6


class TaskExecutor:
    """Executes staged tasks on one worker's simulated resources."""

    def __init__(
        self,
        node: Node,
        resources: WorkerResources,
        storage: ChunkStorage,
        fabric: NetworkFabric,
        kernel_registry: Dict[str, object],
        functional: bool,
        memory: MemoryManager,
    ):
        self.node = node
        self.worker = node.worker
        self.resources = resources
        self.storage = storage
        self.fabric = fabric
        self.kernel_registry = kernel_registry
        self.functional = functional
        self.memory = memory
        self.kernel_launches = 0
        #: task-kind -> bound handler, filled on first dispatch of each kind
        #: (one getattr per kind instead of an f-string + getattr per task)
        self._dispatch: Dict[str, Callable] = {}

    # ------------------------------------------------------------------ #
    # dispatch
    # ------------------------------------------------------------------ #
    def execute(self, task: T.Task, on_complete: Callable[[], None]) -> None:
        """Occupy the right resource for the task, run its payload, then complete."""
        kind = task.kind
        handler = self._dispatch.get(kind)
        if handler is None:
            handler = getattr(self, f"_exec_{kind}", None)
            if handler is None:
                raise NotImplementedError(f"no executor for task kind {kind!r}")
            self._dispatch[kind] = handler
        handler(task, on_complete)

    # ------------------------------------------------------------------ #
    # window-aware memory planning (reserve / promote)
    # ------------------------------------------------------------------ #
    def _exec_memoryreserve(self, task: T.MemoryReserveTask, done: Callable[[], None]) -> None:
        def payload() -> None:
            self.memory.reserve(task.space, list(task.chunk_ids), task.nbytes)
            done()

        self.resources.cpu.request(_TINY_TASK_DURATION, payload, label=task.label or "reserve")

    def _exec_promotechunk(self, task: T.PromoteChunkTask, done: Callable[[], None]) -> None:
        # The promotion itself happened during staging (the chunk was pulled
        # to its home GPU through the ordinary staging machinery); the task
        # body only accounts for it.
        def payload() -> None:
            self.memory.stats.prefetch_promotions += 1
            done()

        self.resources.cpu.request(_TINY_TASK_DURATION, payload, label=task.label or "promote")

    # ------------------------------------------------------------------ #
    # data initialisation / download
    # ------------------------------------------------------------------ #
    def _exec_fill(self, task: T.FillTask, done: Callable[[], None]) -> None:
        duration = task.nbytes / self.node.spec.cpu.mem_bandwidth

        def payload() -> None:
            if self.functional:
                task.apply(self.storage, self.kernel_registry)
            done()

        self.resources.cpu.request(duration, payload, label=task.label or "fill")

    def _exec_download(self, task: T.DownloadTask, done: Callable[[], None]) -> None:
        def to_driver() -> None:
            if self.worker == 0:
                duration = task.nbytes / self.node.spec.cpu.mem_bandwidth
                self.resources.cpu.request(duration, done, label=task.label or "download")
            else:
                self.resources.nic.request(task.nbytes, done, label=task.label or "download")

        # Chunk contents are brought to host memory over PCIe before going to the driver.
        self.resources.pcie.request(task.nbytes, to_driver, label="download d2h")

    # ------------------------------------------------------------------ #
    # kernel execution
    # ------------------------------------------------------------------ #
    def _exec_launch(self, task: T.LaunchTask, done: Callable[[], None]) -> None:
        """One superblock of one or more launches: the segments run back to
        back on the same compute resource (each with its own superblock when
        a chain fuses compatible-but-different work distributions) and pay
        the fixed launch overhead once — that, plus the elided intermediate
        transfers and the in-task reduction epilogues, is the fusion saving."""
        device_spec = self.node.spec.gpus[task.device.local_index]
        duration = DEFAULT_OVERHEADS.launch_fixed
        for segment, (name, scalars) in enumerate(
            zip(task.kernel_names, task.scalar_args_list)
        ):
            kernel = self.kernel_registry[name]
            threads = task.superblocks_list[segment].thread_count
            duration += kernel_time(device_spec, kernel.cost, threads, scalars)
        # Reduction-tail epilogues combine the superblock partial into the
        # device accumulator inside the task: bandwidth-bound like a
        # ReduceTask, minus the extra launch latency (the fusion saving).
        for epilogues in task.reduce_epilogues:
            for epilogue in epilogues:
                duration += epilogue.nbytes / device_spec.mem_bandwidth / 0.8
        self.kernel_launches += task.segment_count

        def payload() -> None:
            if self.functional:
                task.apply(self.storage, self.kernel_registry)
            done()

        resource = self.resources.compute_for(task.device)
        resource.request(duration, payload, label=task.label or "launch")

    # ------------------------------------------------------------------ #
    # data movement
    # ------------------------------------------------------------------ #
    def _exec_copy(self, task: T.CopyTask, done: Callable[[], None]) -> None:
        def payload() -> None:
            if self.functional:
                task.apply(self.storage, self.kernel_registry)
            done()

        if (
            task.src_device is not None
            and task.dst_device is not None
            and task.src_device == task.dst_device
        ):
            resource = self.resources.dtod_for(task.src_device)
        else:
            resource = self.resources.pcie
        resource.request(task.nbytes, payload, label=task.label or "copy")

    def _exec_reduce(self, task: T.ReduceTask, done: Callable[[], None]) -> None:
        dst_meta = self.storage.meta(task.dst_chunk)
        device = dst_meta.home
        device_spec = self.node.spec.gpus[device.local_index]
        duration = (
            task.nbytes / device_spec.mem_bandwidth / 0.8 + device_spec.launch_latency
        )

        def payload() -> None:
            if self.functional:
                task.apply(self.storage, self.kernel_registry)
            done()

        self.resources.compute_for(device).request(duration, payload, label=task.label or "reduce")

    def _exec_send(self, task: T.SendTask, done: Callable[[], None]) -> None:
        data: Optional[np.ndarray] = None
        if self.functional:
            data = self.storage.read_region(task.chunk_id, task.region)
        message = Message(
            src=self.worker,
            dst=task.dst_worker,
            tag=task.tag,
            nbytes=task.nbytes,
            data=data,
        )

        def delivered() -> None:
            self.fabric.deliver(message)
            done()

        def on_wire() -> None:
            self.resources.nic.request(task.nbytes, delivered, label=task.label or "send")

        # Inter-node transfers are staged through host memory (Sec. 3.2):
        # device -> host over PCIe, then host -> remote host over the network.
        self.resources.pcie.request(task.nbytes, on_wire, label="send d2h")

    def _exec_recv(self, task: T.RecvTask, done: Callable[[], None]) -> None:
        def on_message(message: Message) -> None:
            def into_device() -> None:
                if self.functional and message.data is not None:
                    self.storage.write_region(task.chunk_id, task.region, message.data)
                done()

            # Arrived in host memory; move into the chunk's GPU over PCIe.
            self.resources.pcie.request(task.nbytes, into_device, label="recv h2d")

        self.fabric.expect(task.src_worker, self.worker, task.tag, on_message)
