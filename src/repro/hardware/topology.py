"""Instantiated cluster topology: nodes, devices and memory spaces.

A :class:`~repro.hardware.specs.ClusterSpec` is a description; a
:class:`Cluster` is the instantiated topology the runtime operates on.  Every
worker node owns one host-memory space, one disk space and one GPU-memory
space per GPU.  Chunks always live in exactly one memory space at a time (plus
possibly stale spilled copies that the memory manager tracks separately).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterator, List, Tuple

from .specs import ClusterSpec, GPUSpec, NodeSpec

__all__ = [
    "MemoryKind",
    "MemorySpace",
    "DeviceId",
    "WorkerId",
    "Device",
    "Node",
    "Cluster",
]

WorkerId = int


class MemoryKind(enum.Enum):
    """Level of the memory hierarchy a chunk can be materialised in."""

    GPU = "gpu"
    HOST = "host"
    DISK = "disk"

    @property
    def level(self) -> int:
        """Spill level: lower is faster/closer to the GPU."""
        return {"gpu": 0, "host": 1, "disk": 2}[self.value]


@dataclass(frozen=True)
class MemorySpace:
    """One addressable memory pool: (worker, kind, device index within the worker)."""

    worker: WorkerId
    kind: MemoryKind
    device_index: int = 0

    def __post_init__(self) -> None:
        # Memory spaces key every per-space table in the memory manager, so
        # their hash sits on the staging hot path: precompute it once instead
        # of rebuilding a field tuple (and re-hashing the enum) per lookup.
        object.__setattr__(
            self, "_hash", hash((self.worker, self.kind, self.device_index))
        )

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        if self.kind is MemoryKind.GPU:
            return f"worker{self.worker}:gpu{self.device_index}"
        return f"worker{self.worker}:{self.kind.value}"


@dataclass(frozen=True)
class DeviceId:
    """Global identifier of one GPU in the cluster."""

    worker: WorkerId
    local_index: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.worker, self.local_index)))

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def memory_space(self) -> MemorySpace:
        """The GPU memory space of this device (memoised: spaces are interned
        per device id rather than reconstructed on every staging decision)."""
        return MemorySpace(self.worker, MemoryKind.GPU, self.local_index)

    def __str__(self) -> str:
        return f"gpu({self.worker}.{self.local_index})"


@dataclass(frozen=True)
class Device:
    """One simulated GPU with its spec and identifiers."""

    device_id: DeviceId
    spec: GPUSpec

    @property
    def worker(self) -> WorkerId:
        """The worker (node) owning this device."""
        return self.device_id.worker

    @property
    def memory_space(self) -> MemorySpace:
        """The GPU memory space of this device."""
        return self.device_id.memory_space


@dataclass(frozen=True)
class Node:
    """One worker node with its local devices."""

    worker: WorkerId
    spec: NodeSpec
    devices: Tuple[Device, ...]

    @property
    def host_space(self) -> MemorySpace:
        """This node's host-memory space."""
        return MemorySpace(self.worker, MemoryKind.HOST)

    @property
    def disk_space(self) -> MemorySpace:
        """This node's disk space."""
        return MemorySpace(self.worker, MemoryKind.DISK)


class Cluster:
    """The instantiated topology: workers, devices and lookup helpers."""

    def __init__(self, spec: ClusterSpec):
        self.spec = spec
        self.nodes: List[Node] = []
        for worker in range(spec.node_count):
            devices = tuple(
                Device(DeviceId(worker, i), gpu_spec)
                for i, gpu_spec in enumerate(spec.node.gpus)
            )
            self.nodes.append(Node(worker, spec.node, devices))
        self._device_by_id: Dict[DeviceId, Device] = {
            dev.device_id: dev for node in self.nodes for dev in node.devices
        }
        #: Permanently failed devices: excluded from ``devices()`` /
        #: ``device_ids()`` so planning and placement only see survivors.
        #: Direct lookups (``device()``) still resolve failed devices — the
        #: recovery machinery needs their specs and memory spaces.
        self._failed: set = set()

    # ------------------------------------------------------------------ #
    # device failure (fault tolerance)
    # ------------------------------------------------------------------ #
    def mark_failed(self, device_id: DeviceId) -> None:
        """Remove a GPU from the healthy topology (permanent device failure)."""
        if device_id not in self._device_by_id:
            raise KeyError(f"unknown device {device_id}")
        self._failed.add(device_id)

    def is_failed(self, device_id: DeviceId) -> bool:
        """True once ``mark_failed`` has been called for this device."""
        return device_id in self._failed

    # ------------------------------------------------------------------ #
    # lookups
    # ------------------------------------------------------------------ #
    @property
    def worker_count(self) -> int:
        """Number of worker nodes."""
        return len(self.nodes)

    def node(self, worker: WorkerId) -> Node:
        """The :class:`Node` of one worker id."""
        return self.nodes[worker]

    def device(self, device_id: DeviceId) -> Device:
        """The :class:`Device` of one device id."""
        return self._device_by_id[device_id]

    def devices(self) -> List[Device]:
        """All healthy GPUs in the cluster ordered (worker, local index)."""
        if not self._failed:
            return [dev for node in self.nodes for dev in node.devices]
        return [
            dev
            for node in self.nodes
            for dev in node.devices
            if dev.device_id not in self._failed
        ]

    def device_ids(self) -> List[DeviceId]:
        """Every healthy GPU in the cluster, in (worker, local index) order."""
        return [dev.device_id for dev in self.devices()]

    @property
    def device_count(self) -> int:
        """Total healthy GPUs in the cluster."""
        return len(self._device_by_id) - len(self._failed)

    def iter_memory_spaces(self) -> Iterator[MemorySpace]:
        """Every memory space of the cluster (GPU, host and disk per node)."""
        for node in self.nodes:
            for dev in node.devices:
                yield dev.memory_space
            yield node.host_space
            yield node.disk_space

    def capacity(self, space: MemorySpace) -> int:
        """Capacity in bytes of one memory space."""
        node = self.node(space.worker)
        if space.kind is MemoryKind.GPU:
            return node.spec.gpus[space.device_index].memory_bytes
        if space.kind is MemoryKind.HOST:
            return node.spec.host_memory_bytes
        return node.spec.disk.capacity_bytes

    def same_node(self, a: MemorySpace, b: MemorySpace) -> bool:
        """True when both devices live on the same worker node."""
        return a.worker == b.worker

    def describe(self) -> str:
        """One-line human-readable description of the topology."""
        return self.spec.describe()
