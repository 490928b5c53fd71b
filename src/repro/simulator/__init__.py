"""Discrete-event simulation substrate.

The paper's measurements come from running on a real GPU cluster.  This
reproduction replaces the cluster with a discrete-event simulator: every task
produced by the execution planner occupies one or more simulated resources
(GPU compute engines, the per-node PCIe bus, NICs, disks, the per-worker
scheduler) for a duration given by the performance model, and virtual time
advances as resources drain.  The same mechanisms the paper relies on —
overlap of data movement with kernel execution, PCIe sharing between GPUs in
one node, network bandwidth limits — emerge from resource contention in the
simulator rather than from hard-coded formulas.
"""

from .engine import Engine, EventHandle
from .faults import DeviceFailure, Degradation, FaultInjector, FaultSpec, RetryPolicy
from .resources import BandwidthResource, ChannelResource, Resource
from .trace import Trace, TraceInterval

__all__ = [
    "Engine",
    "EventHandle",
    "FaultInjector",
    "FaultSpec",
    "RetryPolicy",
    "DeviceFailure",
    "Degradation",
    "Resource",
    "ChannelResource",
    "BandwidthResource",
    "Trace",
    "TraceInterval",
]
