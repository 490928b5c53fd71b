"""One worker node: storage, memory manager, executors and scheduler.

In the paper a worker is a separate MPI process on its own node; here it is a
plain object bundling the per-node pieces of the runtime.  The interfaces
between driver and worker (the scheduler's ``submit`` of a DAG fragment,
the runtime's completion report) are the same ones an RPC layer would expose.
"""

from __future__ import annotations

from typing import Dict

from ..hardware.topology import Node
from ..perfmodel.costs import DEFAULT_OVERHEADS
from ..simulator.engine import Engine
from ..simulator.trace import Trace
from .executors import TaskExecutor
from .memory import MemoryManager
from .network import NetworkFabric
from .resources import WorkerResources
from .scheduler import Scheduler, DEFAULT_STAGE_THRESHOLD
from .storage import ChunkStorage

__all__ = ["Worker"]


class Worker:
    """All per-node runtime state for one worker."""

    def __init__(
        self,
        runtime: "object",
        node: Node,
        engine: Engine,
        trace: Trace,
        fabric: NetworkFabric,
        kernel_registry: Dict[str, object],
        functional: bool,
        stage_threshold: int = DEFAULT_STAGE_THRESHOLD,
        memory_capacities=None,
        scheduler_policy=None,
        chunk_tenants=None,
    ):
        self.node = node
        self.worker_id = node.worker
        self.resources = WorkerResources(engine, node, DEFAULT_OVERHEADS, trace)
        self.storage = ChunkStorage(materialize=functional)
        self.memory = MemoryManager(
            node,
            self.resources,
            capacities=memory_capacities,
            chunk_tenants=chunk_tenants,
        )
        self.executor = TaskExecutor(
            node=node,
            resources=self.resources,
            storage=self.storage,
            fabric=fabric,
            kernel_registry=kernel_registry,
            functional=functional,
            memory=self.memory,
        )
        self.scheduler = Scheduler(
            runtime=runtime,
            worker=self.worker_id,
            resources=self.resources,
            memory=self.memory,
            executor=self.executor,
            stage_threshold=stage_threshold,
            policy=scheduler_policy,
        )
