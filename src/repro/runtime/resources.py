"""Per-worker simulated resources.

Each worker node owns the resources the paper's executors map onto:

* one compute engine per GPU (kernel launches, reductions),
* one device-to-device copy engine per GPU (copies inside one GPU),
* one PCIe bus per node, **shared** by all of the node's GPUs — host↔device
  staging transfers and peer-to-peer copies both ride on it,
* one NIC per node for inter-node sends,
* one disk per node for the lowest spill tier,
* a host/CPU executor (chunk fills, downloads), and
* the worker's scheduler control path, which charges a fixed cost per task
  it stages and dispatches and therefore bounds how many tiny tasks per
  second one worker can manage (the left edge of Fig. 10).  Bookkeeping
  tasks (create, delete, combine) occupy no resource at all.
"""

from __future__ import annotations

from typing import Dict

from ..hardware.topology import DeviceId, Node
from ..perfmodel.costs import OverheadModel
from ..simulator.engine import Engine
from ..simulator.resources import BandwidthResource, ChannelResource, Resource
from ..simulator.trace import Trace

__all__ = ["WorkerResources"]


class WorkerResources:
    """Bundle of simulated resources belonging to one worker node."""

    def __init__(
        self,
        engine: Engine,
        node: Node,
        overheads: OverheadModel,
        trace: Trace,
    ):
        worker = node.worker
        spec = node.spec
        self.node = node
        prefix = f"w{worker}"

        self.gpu_compute: Dict[DeviceId, ChannelResource] = {}
        self.gpu_dtod: Dict[DeviceId, BandwidthResource] = {}
        for device in node.devices:
            name = f"{prefix}.gpu{device.device_id.local_index}"
            self.gpu_compute[device.device_id] = ChannelResource(
                engine, f"{name}.compute", channels=1, trace=trace
            )
            self.gpu_dtod[device.device_id] = BandwidthResource(
                engine, f"{name}.dtod", bandwidth=device.spec.mem_bandwidth, trace=trace
            )
            self.gpu_compute[device.device_id].fault_role = "compute"
            self.gpu_dtod[device.device_id].fault_role = "transfer"

        self.pcie = BandwidthResource(
            engine,
            f"{prefix}.pcie",
            bandwidth=spec.pcie_bandwidth,
            latency=spec.pcie_latency,
            trace=trace,
        )
        self.nic = BandwidthResource(
            engine,
            f"{prefix}.nic",
            bandwidth=1e9,  # replaced below: interconnect bandwidth comes from the cluster
            trace=trace,
        )
        self.disk = BandwidthResource(
            engine,
            f"{prefix}.disk",
            bandwidth=min(spec.disk.read_bandwidth, spec.disk.write_bandwidth),
            latency=spec.disk.latency,
            trace=trace,
        )
        # Per-direction disk lanes plus host-side (de)compression lanes: used
        # by the compressed disk tier (Context(disk=True)) and by
        # checkpoint/restore, which charge compressed bytes on the asymmetric
        # read/write bandwidths and raw bytes on the codec throughputs.  The
        # default spill path keeps using the symmetric ``disk`` link above, so
        # runs without the disk model are bit-identical with older baselines.
        self.disk_read = BandwidthResource(
            engine,
            f"{prefix}.disk_read",
            bandwidth=spec.disk.read_bandwidth,
            latency=spec.disk.latency,
            trace=trace,
        )
        self.disk_write = BandwidthResource(
            engine,
            f"{prefix}.disk_write",
            bandwidth=spec.disk.write_bandwidth,
            latency=spec.disk.latency,
            trace=trace,
        )
        self.compress = BandwidthResource(
            engine,
            f"{prefix}.compress",
            bandwidth=spec.disk.compress_throughput,
            trace=trace,
        )
        self.decompress = BandwidthResource(
            engine,
            f"{prefix}.decompress",
            bandwidth=spec.disk.decompress_throughput,
            trace=trace,
        )
        # Links that carry chunk data are fault-prone "transfer" resources:
        # the fault injector targets them for transient failures and retries.
        self.pcie.fault_role = "transfer"
        self.nic.fault_role = "transfer"
        self.disk.fault_role = "transfer"
        self.disk_read.fault_role = "transfer"
        self.disk_write.fault_role = "transfer"
        self.cpu = ChannelResource(engine, f"{prefix}.cpu", channels=spec.cpu.cores, trace=trace)
        self.scheduler = ChannelResource(
            engine,
            f"{prefix}.sched",
            channels=1,
            per_item_overhead=overheads.schedule_per_task,
            trace=trace,
        )

    def set_nic_bandwidth(self, bandwidth: float, latency: float) -> None:
        """Configure the NIC from the cluster's interconnect spec."""
        self.nic.bandwidth = bandwidth
        self.nic.latency = latency
        # keep degradation windows relative to the configured bandwidth
        self.nic.nominal_bandwidth = bandwidth

    def compute_for(self, device: DeviceId) -> ChannelResource:
        """The compute (SM) resource of one local GPU."""
        return self.gpu_compute[device]

    def dtod_for(self, device: DeviceId) -> BandwidthResource:
        """The on-device copy engine resource of one local GPU."""
        return self.gpu_dtod[device]

    def all_resources(self):
        """Every simulated resource of this worker (for stats collection)."""
        resources: list[Resource] = list(self.gpu_compute.values())
        resources += list(self.gpu_dtod.values())
        resources += [self.pcie, self.nic, self.disk, self.disk_read,
                      self.disk_write, self.compress, self.decompress,
                      self.cpu, self.scheduler]
        return resources
