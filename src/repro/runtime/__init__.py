"""The distributed runtime system (Sec. 3).

One central **driver** coordinates a set of **workers** (one per node).  The
driver owns the bookkeeping of distributed arrays and runs the execution
planner; each worker owns a scheduler, a memory manager and a set of
executors (its GPUs, the PCIe bus, the NIC and the disk).  In the paper these
are separate processes connected by MPI; in this reproduction they are plain
Python objects sharing one discrete-event simulation engine, with an explicit
network layer between workers so communication cost and overlap behave the
same way.
"""

from .system import RuntimeSystem, ExecutionMode, OutOfMemoryError, RuntimeStats
from .memory import MemoryManager
from .scheduler import Scheduler
from .storage import ChunkStorage
from .network import NetworkFabric

__all__ = [
    "RuntimeSystem",
    "ExecutionMode",
    "OutOfMemoryError",
    "RuntimeStats",
    "MemoryManager",
    "Scheduler",
    "ChunkStorage",
    "NetworkFabric",
]
