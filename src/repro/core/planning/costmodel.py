"""Topology-aware transfer cost estimation for source-chunk selection.

When an access region can be satisfied from several chunks (replicated
distributions, stencil halos, overlapping custom distributions), the transfer
resolution pass ranks candidate sources by how expensive moving the data to
the consuming GPU would be.  The ranking is a lexicographic pair:

1. **locality class** — same GPU (0) < peer GPU on the same node (1) <
   remote node (2); and
2. **estimated seconds** from :func:`repro.perfmodel.costs.transfer_time`
   using the cluster's PCIe and interconnect figures, so that among equally
   local candidates the faster link wins.

Ties are broken by chunk size (smaller first, so halo replicas do not pull in
a full replica).  Callers sort candidates in their array's chunk order and
sorts are stable, so the remaining ties keep that order: a plan depends on
the chunk layout, never on chunk ids (what lets the plan-template cache
serve one recipe to every array of a layout).
"""

from __future__ import annotations

from typing import Tuple

from ...hardware.topology import Cluster, DeviceId
from ...perfmodel.costs import transfer_time
from ..chunk import ChunkMeta

__all__ = ["TransferCostModel"]

#: Locality classes, cheapest first.
SAME_DEVICE = 0
SAME_NODE = 1
REMOTE_NODE = 2


class TransferCostModel:
    """Ranks candidate source chunks for a transfer to a destination GPU."""

    def __init__(self, cluster: Cluster):
        self.cluster = cluster
        spec = cluster.spec
        self._net_bandwidth = spec.interconnect.bandwidth
        self._net_latency = spec.interconnect.latency
        node = spec.node
        self._p2p_bandwidth = getattr(node, "p2p_bandwidth", node.pcie_bandwidth)
        self._pcie_latency = getattr(node, "pcie_latency", 10e-6)

    def locality(self, src_device: DeviceId, dst_device: DeviceId) -> int:
        """Locality class of a transfer: same GPU < peer GPU < remote node."""
        if src_device == dst_device:
            return SAME_DEVICE
        if src_device.worker == dst_device.worker:
            return SAME_NODE
        return REMOTE_NODE

    def estimate_seconds(self, src_device: DeviceId, dst_device: DeviceId, nbytes: int) -> float:
        """Estimated un-contended time to move ``nbytes`` between two GPUs."""
        cls = self.locality(src_device, dst_device)
        if cls == SAME_DEVICE:
            return 0.0
        if cls == SAME_NODE:
            return transfer_time(nbytes, self._p2p_bandwidth, self._pcie_latency)
        return transfer_time(nbytes, self._net_bandwidth, self._net_latency)

    def rank_key(
        self, candidate: ChunkMeta, dst_device: DeviceId, nbytes: int
    ) -> Tuple[int, float, int]:
        """Sort key: cheaper sources sort first (a stable sort keeps ties in
        chunk order)."""
        return (
            self.locality(candidate.home, dst_device),
            self.estimate_seconds(candidate.home, dst_device, nbytes),
            candidate.size,
        )
