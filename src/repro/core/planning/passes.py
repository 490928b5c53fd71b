"""The planning passes (Sec. 2.4, restructured as an explicit pipeline).

Planning one distributed kernel launch runs a sequence of passes over a
mutable :class:`LaunchState` IR:

1. :class:`AccessAnalysisPass` — split the launch into superblocks and
   evaluate every array parameter's access region per superblock.
2. :class:`TransferResolutionPass` — decide, per (superblock, parameter),
   whether the superblock can use a chunk in place, or needs a temporary
   assembled from source chunks; candidate sources are ranked by the
   topology-aware :class:`~.costmodel.TransferCostModel` (same GPU < peer GPU
   < remote node) instead of taking whatever ``chunks_overlapping`` returns.
3. :class:`ReductionPlanningPass` — plan hierarchical reductions
   (superblock partials → per-GPU accumulators → root → destination chunks).
4. :class:`RedundantTransferEliminationPass` — drop or trim gather pieces
   whose region is already covered by a cheaper source (overlapping halos of
   ``StencilDist``, full replicas of ``ReplicatedDist``).
5. Task emission (:func:`_emit_launches`) — lower the IR to a structural
   :class:`~.ir.PlanRecipe` (task protos with intra-plan dependencies only).

:func:`build_launch_recipe` plans one launch and :func:`build_fused_recipe`
a chain of them (the launch window's fusion pass); both run passes 1-4 over
each launch and then the one emitter, for which a plain launch is a
one-segment chain.

Cross-launch read/write/write conflict dependencies are *not* part of the
recipe: they are injected at stamp time by :class:`DependencyInjectionPass`,
which is also what allows a cached recipe to be re-stamped for a later launch
with fresh conflict edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ...hardware.topology import Cluster, DeviceId
from ..annotations import AccessMode
from ..array import DistributedArray
from ..chunk import ChunkId, ChunkMeta
from ..distributions import Superblock, WorkDistribution, match_superblocks
from ..geometry import Region, bounding_region, regions_cover
from ..kernel import CompiledKernel
from ..reductions import get_reduce_op
from .. import tasks as T
from .costmodel import TransferCostModel
from .ir import (
    ArgBindingProto,
    ChunkHandle,
    ChunkRef,
    PlanRecipe,
    RecipeBuilder,
    ReduceEpilogueProto,
    ScalarArgsRef,
    StampedPlan,
    TempChunkSpec,
    TransferStep,
    array_slots,
)

__all__ = [
    "PlanningError",
    "LaunchState",
    "PlanningPass",
    "AccessAnalysisPass",
    "TransferResolutionPass",
    "ReductionPlanningPass",
    "RedundantTransferEliminationPass",
    "DependencyInjectionPass",
    "build_launch_recipe",
    "chain_fusion_prescreen",
    "build_fused_recipe",
]


# Re-exported from the central error hierarchy (kept importable from here
# for backward compatibility with existing callers and tests).
from ...errors import PlanningError  # noqa: E402


# --------------------------------------------------------------------------- #
# the launch IR
# --------------------------------------------------------------------------- #
@dataclass
class ParamIR:
    """Planning state of one (superblock, array-parameter) pair."""

    param: str
    array: DistributedArray
    mode: AccessMode
    reduce_op: Optional[str]
    region: Region
    #: chunk used in place (home == superblock device), if any
    direct_chunk: Optional[ChunkMeta] = None
    #: temporary chunk blueprint (assembled input / scratch output / partial)
    temp_spec: Optional[TempChunkSpec] = None
    binding: Optional[ChunkHandle] = None
    #: the reduce operator's identity in the array's dtype (what the
    #: superblock partial is created holding)
    identity: Optional[np.generic] = None
    gather_steps: List[TransferStep] = field(default_factory=list)
    writeback_steps: List[TransferStep] = field(default_factory=list)
    #: producer ParamIR this consumer param was rebound to by the fusion pass
    #: (the consumer then reads the producer's binding in place: no temp, no
    #: gather transfers)
    fused_source: Optional["ParamIR"] = None


@dataclass
class SuperblockIR:
    """Planning state of one superblock: its parameter IRs."""
    sb: Superblock
    params: List[ParamIR] = field(default_factory=list)


@dataclass
class ReduceJobIR:
    """One superblock's contribution to a reduction."""

    sb_index: int  # index into LaunchState.superblocks
    partial: ChunkHandle
    partial_label: str
    region: Region


@dataclass
class ReductionIR:
    """Hierarchical reduction plan for one reduce parameter."""

    param: str
    array: DistributedArray
    op_name: str
    #: the operator's identity in the array's dtype, exact (what every
    #: accumulator is created holding)
    identity: np.generic
    total_region: Region
    #: insertion-ordered groups of jobs per device
    per_device: Dict[DeviceId, List[ReduceJobIR]] = field(default_factory=dict)
    acc_specs: Dict[DeviceId, TempChunkSpec] = field(default_factory=dict)
    root_device: DeviceId = None  # type: ignore[assignment]
    #: separate root accumulator when no partials live on the root device
    root_acc_spec: Optional[TempChunkSpec] = None
    staging_specs: Dict[DeviceId, TempChunkSpec] = field(default_factory=dict)
    move_steps: Dict[DeviceId, TransferStep] = field(default_factory=dict)
    scatter_steps: List[TransferStep] = field(default_factory=list)


@dataclass
class LaunchState:
    """Mutable IR threaded through the pass pipeline for one launch."""

    cluster: Cluster
    kernel: CompiledKernel
    grid: Tuple[int, ...]
    block: Tuple[int, ...]
    work_dist: WorkDistribution
    arrays: Dict[str, DistributedArray]
    builder: RecipeBuilder
    cost_model: TransferCostModel
    superblocks: List[SuperblockIR] = field(default_factory=list)
    reductions: List[ReductionIR] = field(default_factory=list)
    #: free-form per-pass statistics (bytes eliminated, ...)
    notes: Dict[str, float] = field(default_factory=dict)
    #: rotate the device list work superblocks round-robin over, so that under
    #: multi-tenant serving each tenant's compute starts on the same GPU its
    #: (equally rotated) data placement starts on; 0 = the single-tenant path
    rotation: int = 0


class PlanningPass:
    """Base class: a named transformation of the launch IR."""

    name = "pass"

    def run(self, state: LaunchState) -> None:
        """Transform the launch IR in place."""
        raise NotImplementedError


# --------------------------------------------------------------------------- #
# 1. access analysis
# --------------------------------------------------------------------------- #
class AccessAnalysisPass(PlanningPass):
    """Superblock split + per-parameter access regions (paper steps 1 and 2)."""

    name = "access-analysis"

    def run(self, state: LaunchState) -> None:
        """Split the launch into superblocks and evaluate access regions."""
        devices = state.cluster.device_ids()
        if state.rotation and devices:
            offset = state.rotation % len(devices)
            devices = devices[offset:] + devices[:offset]
        superblocks = state.work_dist.superblocks(state.grid, state.block, devices)
        if not superblocks:
            raise PlanningError(
                f"work distribution produced no superblocks for grid {state.grid}"
            )
        annotation = state.kernel.annotation
        for sb in superblocks:
            sbir = SuperblockIR(sb=sb)
            var_ranges = annotation.var_ranges(sb, state.block)
            for param in state.kernel.definition.array_params:
                array = state.arrays[param.name]
                access = annotation.access_for(param.name)
                region = access.access_region(var_ranges, array.shape)
                if region.is_empty:
                    raise PlanningError(
                        f"superblock {sb.index} of kernel {state.kernel.name!r} has an empty "
                        f"access region on {param.name!r}; check the annotation"
                    )
                sbir.params.append(
                    ParamIR(
                        param=param.name,
                        array=array,
                        mode=access.mode,
                        reduce_op=access.reduce_op,
                        region=region,
                    )
                )
            state.superblocks.append(sbir)


# --------------------------------------------------------------------------- #
# 2. transfer resolution (topology/cost-aware source selection)
# --------------------------------------------------------------------------- #
class TransferResolutionPass(PlanningPass):
    """Bind each (superblock, parameter) to a chunk, planning transfers.

    Gather sources are emitted cheapest-first (cost model ranking); the
    redundant-transfer elimination pass later drops the pieces that cheaper
    sources already cover, which is what makes the combination pick a local
    replica over a remote one.
    """

    name = "transfer-resolution"

    def run(self, state: LaunchState) -> None:
        """Bind every (superblock, parameter) pair, planning transfers."""
        for sbir in state.superblocks:
            for pir in sbir.params:
                self._resolve(state, sbir.sb, pir)

    def _resolve(self, state: LaunchState, sb: Superblock, pir: ParamIR) -> None:
        array, region = pir.array, pir.region
        builder = state.builder

        if pir.mode is AccessMode.REDUCE:
            op = get_reduce_op(pir.reduce_op)
            pir.identity = op.identity(array.dtype)
            pir.temp_spec = builder.temp(
                region, array.dtype, sb.device, label=f"partial {pir.param} sb{sb.index}"
            )
            pir.binding = ChunkHandle.of_temp(pir.temp_spec)
            return

        chunk = array.find_enclosing_chunk(region, prefer_device=sb.device)
        if chunk is not None and chunk.home == sb.device:
            # Common case: an enclosing chunk already lives on the right GPU.
            pir.direct_chunk = chunk
            pir.binding = builder.handle(chunk)
            if pir.mode.writes:
                for target in array.chunks_overlapping(region):
                    if target.chunk_id == chunk.chunk_id:
                        continue
                    overlap = target.region.intersect(region)
                    if overlap.is_empty:
                        continue
                    pir.writeback_steps.append(
                        TransferStep(
                            src=pir.binding,
                            dst=builder.handle(target),
                            region=overlap,
                            purpose="writeback",
                            label=f"writeback {pir.param}",
                        )
                    )
            return

        # A temporary chunk on the superblock's GPU is needed.
        pir.temp_spec = builder.temp(
            region, array.dtype, sb.device, label=f"tmp {pir.param} sb{sb.index}"
        )
        temp = ChunkHandle.of_temp(pir.temp_spec)
        pir.binding = temp

        if pir.mode.reads:
            candidates = array.chunks_overlapping(region)
            if not candidates:
                raise PlanningError(
                    f"no chunk of {array.name} overlaps access region {region} of {pir.param!r}"
                )
            itemsize = np.dtype(array.dtype).itemsize

            def rank(candidate: ChunkMeta):
                piece = candidate.region.intersect(region)
                return state.cost_model.rank_key(
                    candidate, sb.device, piece.size * itemsize
                )

            for src in sorted(candidates, key=rank):
                piece = src.region.intersect(region)
                if piece.is_empty:
                    continue
                pir.gather_steps.append(
                    TransferStep(
                        src=builder.handle(src),
                        dst=temp,
                        region=piece,
                        purpose="gather",
                        label=f"gather {pir.param}",
                    )
                )
        if pir.mode.writes:
            for target in array.chunks_overlapping(region):
                overlap = target.region.intersect(region)
                if overlap.is_empty:
                    continue
                pir.writeback_steps.append(
                    TransferStep(
                        src=temp,
                        dst=builder.handle(target),
                        region=overlap,
                        purpose="writeback",
                        label=f"writeback {pir.param}",
                    )
                )


# --------------------------------------------------------------------------- #
# 3. reduction planning
# --------------------------------------------------------------------------- #
class ReductionPlanningPass(PlanningPass):
    """Hierarchical reduction placement: partials → GPU accs → root → dests."""

    name = "reduction-planning"

    def run(self, state: LaunchState) -> None:
        """Collect reduce parameters and plan their hierarchical reductions."""
        #: param -> jobs in superblock order
        jobs_by_param: Dict[str, List[ReduceJobIR]] = {}
        for sb_index, sbir in enumerate(state.superblocks):
            for pir in sbir.params:
                if pir.mode is not AccessMode.REDUCE:
                    continue
                jobs_by_param.setdefault(pir.param, []).append(
                    ReduceJobIR(
                        sb_index=sb_index,
                        partial=pir.binding,
                        partial_label=pir.temp_spec.label,
                        region=pir.region,
                    )
                )
        for param, jobs in jobs_by_param.items():
            state.reductions.append(self._plan(state, param, jobs))

    def _plan(self, state: LaunchState, param: str, jobs: List[ReduceJobIR]) -> ReductionIR:
        array = state.arrays[param]
        access = state.kernel.annotation.access_for(param)
        op = get_reduce_op(access.reduce_op)
        identity = op.identity(array.dtype)
        total_region = bounding_region([job.region for job in jobs])

        rir = ReductionIR(
            param=param,
            array=array,
            op_name=access.reduce_op,
            identity=identity,
            total_region=total_region,
        )
        for job in jobs:
            device = state.superblocks[job.sb_index].sb.device
            rir.per_device.setdefault(device, []).append(job)

        dest_chunks = array.chunks_overlapping(total_region)
        if not dest_chunks:
            raise PlanningError(
                f"reduction target {array.name} has no chunk overlapping {total_region}"
            )
        root_chunk = array.find_enclosing_chunk(total_region) or dest_chunks[0]
        rir.root_device = root_chunk.home

        builder = state.builder
        for device in rir.per_device:
            rir.acc_specs[device] = builder.temp(
                total_region, array.dtype, device, label=f"acc {array.name} @{device}"
            )
        if rir.root_device not in rir.per_device:
            rir.root_acc_spec = builder.temp(
                total_region, array.dtype, rir.root_device, label=f"acc {array.name} root"
            )
        root_acc_spec = rir.root_acc_spec or rir.acc_specs[rir.root_device]
        root_acc = ChunkHandle.of_temp(root_acc_spec)

        for device in rir.per_device:
            if device == rir.root_device:
                continue
            staging = builder.temp(
                total_region, array.dtype, rir.root_device,
                label=f"acc {array.name} from {device}",
            )
            rir.staging_specs[device] = staging
            rir.move_steps[device] = TransferStep(
                src=ChunkHandle.of_temp(rir.acc_specs[device]),
                dst=ChunkHandle.of_temp(staging),
                region=total_region,
                purpose="move-acc",
                label=f"move acc {array.name}",
            )

        for dest in dest_chunks:
            overlap = dest.region.intersect(total_region)
            if overlap.is_empty:
                continue
            rir.scatter_steps.append(
                TransferStep(
                    src=root_acc,
                    dst=builder.handle(dest),
                    region=overlap,
                    purpose="scatter",
                    label=f"scatter {array.name}",
                )
            )
        return rir


# --------------------------------------------------------------------------- #
# 4. redundant-transfer elimination
# --------------------------------------------------------------------------- #
def _subtract_covered(region: Region, covered: Sequence[Region]) -> Region:
    """Shrink ``region`` by peeling off boundary slabs already covered.

    Only exact slab subtractions are applied (the result must stay a single
    rectangle); anything more complex is conservatively left untouched, which
    is always sound — it merely re-transfers coherent replicated data.
    """
    changed = True
    while changed and not region.is_empty:
        changed = False
        for cov in covered:
            inter = region.intersect(cov)
            if inter.is_empty:
                continue
            if cov.contains_region(region):
                return Region.empty(region.ndim)
            for d in range(region.ndim):
                spans_others = all(
                    inter.lo[k] == region.lo[k] and inter.hi[k] == region.hi[k]
                    for k in range(region.ndim)
                    if k != d
                )
                if not spans_others:
                    continue
                if inter.lo[d] == region.lo[d] and inter.hi[d] < region.hi[d]:
                    lo = tuple(inter.hi[d] if k == d else region.lo[k]
                               for k in range(region.ndim))
                    region = Region(lo, region.hi)
                    changed = True
                    break
                if inter.hi[d] == region.hi[d] and inter.lo[d] > region.lo[d]:
                    hi = tuple(inter.lo[d] if k == d else region.hi[k]
                               for k in range(region.ndim))
                    region = Region(region.lo, hi)
                    changed = True
                    break
            if changed:
                break
    return region


class RedundantTransferEliminationPass(PlanningPass):
    """Drop or trim gather pieces already covered by cheaper sources.

    Transfer resolution emits pieces cheapest-first, so keeping the first
    cover of every sub-region means expensive (peer-GPU, remote-node) pieces
    are the ones eliminated whenever a local replica covers the region.
    """

    name = "redundant-transfer-elimination"

    def run(self, state: LaunchState) -> None:
        """Drop or trim gather pieces already covered by cheaper sources."""
        saved = 0
        for sbir in state.superblocks:
            for pir in sbir.params:
                if not pir.gather_steps:
                    continue
                kept: List[TransferStep] = []
                covered: List[Region] = []
                for step in pir.gather_steps:
                    if covered and regions_cover(step.region, covered):
                        saved += step.nbytes
                        continue
                    trimmed = _subtract_covered(step.region, covered)
                    if trimmed.is_empty:
                        saved += step.nbytes
                        continue
                    saved += step.nbytes - trimmed.size * np.dtype(step.src.dtype).itemsize
                    step.region = trimmed
                    kept.append(step)
                    covered.append(trimmed)
                pir.gather_steps = kept
        state.notes["eliminated_bytes"] = state.notes.get("eliminated_bytes", 0) + saved


# --------------------------------------------------------------------------- #
# 5. task emission: IR -> structural PlanRecipe
# --------------------------------------------------------------------------- #
def _emit_param_inputs(
    builder: RecipeBuilder, pir: ParamIR
) -> Tuple[List[int], List[Tuple[str, ChunkRef]], List[Tuple[ChunkRef, int]], List[ChunkRef]]:
    """Emit the pre-launch protos of one parameter.

    Returns ``(launch deps, launch conflicts, (chunk, gather-read proto)
    pairs, directly-read chunks)``.
    """
    launch_deps: List[int] = []
    launch_conflicts: List[Tuple[str, ChunkRef]] = []
    gather_reads: List[Tuple[ChunkRef, int]] = []
    direct_reads: List[ChunkRef] = []
    if pir.mode is AccessMode.REDUCE:
        ready = builder.create_temp(pir.temp_spec, pir.identity)
        launch_deps.append(ready)
        return launch_deps, launch_conflicts, gather_reads, direct_reads
    if pir.direct_chunk is not None:
        chunk = pir.binding.ref
        builder.note_meta(pir.binding)
        if pir.mode.reads:
            launch_conflicts.append(("read", chunk))
            direct_reads.append(chunk)
        if pir.mode.writes:
            launch_conflicts.append(("write", chunk))
        return launch_deps, launch_conflicts, gather_reads, direct_reads
    ready = builder.create_temp(pir.temp_spec)
    launch_deps.append(ready)
    for step in pir.gather_steps:
        source = step.src.ref
        src_read, dst_write = builder.transfer(
            step, deps=(ready,), conflicts=(("read", source),)
        )
        gather_reads.append((source, src_read))
        launch_deps.append(dst_write)
    return launch_deps, launch_conflicts, gather_reads, direct_reads


def _emit_param_outputs(builder: RecipeBuilder, pir: ParamIR, launch_idx: int) -> None:
    """Emit the post-launch write-back / coherence traffic and temp cleanup
    of one parameter (reduce partials are combined separately)."""
    if pir.mode is AccessMode.REDUCE:
        return
    if not pir.mode.writes:
        if pir.temp_spec is not None:
            builder.delete_chunk(pir.binding, pir.temp_spec.label, deps=(launch_idx,))
        return
    if pir.direct_chunk is not None:
        builder.note_write(pir.binding.ref, launch_idx)
    last_uses = [launch_idx]
    for step in pir.writeback_steps:
        target = step.dst.ref
        src_read, dst_write = builder.transfer(
            step, deps=(launch_idx,), conflicts=(("write", target),)
        )
        builder.note_write(target, dst_write)
        last_uses.append(src_read)
    if pir.temp_spec is not None:
        builder.delete_chunk(pir.binding, pir.temp_spec.label, deps=last_uses)


def _emit_launches(states: Sequence[LaunchState], builder: RecipeBuilder) -> None:
    """Lower analysed launches to task protos: one launch task per
    superblock runs every segment back to back (a plain launch is the
    one-segment case), with its inputs before it and its write-backs and
    temp cleanup after it.

    Each GPU combines its superblocks' reduce partials in superblock order,
    which keeps floating-point results bit-identical.  The one branch is
    where it combines them (``in_task``):

    * by default one :class:`~repro.core.tasks.ReduceTask` per partial
      chains behind the launch tasks (:func:`_emit_reduce_chains`), so a
      GPU's launch tasks do not wait for one another;
    * a fused reduction tail in which no GPU runs more than one superblock
      combines each partial inside its launch task (``reduce_epilogues``)
      into its GPU's accumulator, created up front, saving a task per
      superblock.  On a GPU that ran several superblocks, epilogues would
      chain its launch tasks through the accumulator (``acc_ready``), one
      after another, so such tails take the default.

    Either way the cross-superblock merge (:func:`_emit_reduction_merge`)
    follows as separate tasks.
    """
    superblocks = states[0].superblocks
    devices = {sbir.sb.device for sbir in superblocks}
    in_task = len(states) > 1 and len(devices) == len(superblocks)

    #: (param, device) -> proto index after which the accumulator is current
    acc_ready: Dict[Tuple[str, DeviceId], int] = {}
    if in_task:
        for state in states:
            for rir in state.reductions:
                for device in rir.per_device:
                    acc_ready[(rir.param, device)] = builder.create_temp(
                        rir.acc_specs[device], rir.identity
                    )

    launch_of_sb: List[int] = []
    for s in range(len(superblocks)):
        sb = superblocks[s].sb
        launch_deps: List[int] = []
        launch_conflicts: List[Tuple[str, ChunkRef]] = []
        gather_reads: List[Tuple[ChunkRef, int]] = []
        direct_reads: List[ChunkRef] = []
        epilogues: List[Tuple[ReduceEpilogueProto, ...]] = []
        acc_keys: List[Tuple[str, DeviceId]] = []
        partials: List[ParamIR] = []
        for state in states:
            segment_epilogues: List[ReduceEpilogueProto] = []
            for pir in state.superblocks[s].params:
                if pir.fused_source is not None:
                    # Producer emits the binding; the fused task's read of a
                    # persistent producer chunk still registers as a reader.
                    source = pir.fused_source
                    if source.direct_chunk is not None:
                        direct_reads.append(source.binding.ref)
                    continue
                deps, conflicts, gathers, directs = _emit_param_inputs(builder, pir)
                launch_deps.extend(deps)
                launch_conflicts.extend(conflicts)
                gather_reads.extend(gathers)
                direct_reads.extend(directs)
                if in_task and pir.mode is AccessMode.REDUCE:
                    rir = next(r for r in state.reductions if r.param == pir.param)
                    acc_spec = rir.acc_specs[sb.device]
                    itemsize = np.dtype(rir.array.dtype).itemsize
                    segment_epilogues.append(
                        ReduceEpilogueProto(
                            src_ref=pir.binding.ref,
                            dst_ref=ChunkHandle.of_temp(acc_spec).ref,
                            region=pir.region,
                            op=rir.op_name,
                            nbytes=pir.region.size * itemsize,
                        )
                    )
                    key = (pir.param, sb.device)
                    launch_deps.append(acc_ready[key])
                    acc_keys.append(key)
                    partials.append(pir)
            epilogues.append(tuple(segment_epilogues))

        launch_idx = builder.add(
            T.LaunchTask,
            worker=sb.device.worker,
            label=f"{'+'.join(st.kernel.name for st in states)}[{sb.index}]",
            deps=launch_deps,
            conflicts=launch_conflicts,
            kernel_names=tuple(st.kernel.name for st in states),
            device=sb.device,
            superblocks_list=tuple(st.superblocks[s].sb for st in states),
            grid_dims_list=tuple(tuple(st.grid) for st in states),
            block_dims_list=tuple(tuple(st.block) for st in states),
            scalar_args_list=tuple(ScalarArgsRef(h) for h in range(len(states))),
            array_args_list=tuple(
                tuple(
                    ArgBindingProto(
                        param=pir.param,
                        chunk_ref=pir.binding.ref,
                        access_region=pir.region,
                        mode=pir.mode.value,
                        reduce_op=pir.reduce_op,
                    )
                    for pir in st.superblocks[s].params
                )
                for st in states
            ),
            array_shapes_list=tuple(
                {pir.param: pir.array.shape for pir in st.superblocks[s].params}
                for st in states
            ),
            reduce_epilogues=(
                tuple(epilogues) if any(epilogues) else ()
            ),
        )
        launch_of_sb.append(launch_idx)
        for key in acc_keys:
            acc_ready[key] = launch_idx
        for chunk, src_read in gather_reads:
            builder.note_read(chunk, src_read)
        for chunk in dict.fromkeys(direct_reads):
            builder.note_read(chunk, launch_idx)
        for state in states:
            for pir in state.superblocks[s].params:
                if pir.fused_source is not None:
                    continue
                _emit_param_outputs(builder, pir, launch_idx)
        for pir in partials:
            # The epilogue inside the fused task was the partial's last use.
            builder.delete_chunk(pir.binding, pir.temp_spec.label, deps=(launch_idx,))

    for state in states:
        for rir in state.reductions:
            if in_task:
                device_accs = {
                    device: (
                        ChunkHandle.of_temp(rir.acc_specs[device]),
                        acc_ready[(rir.param, device)],
                    )
                    for device in rir.per_device
                }
            else:
                device_accs = _emit_reduce_chains(builder, rir, launch_of_sb)
            _emit_reduction_merge(builder, rir, device_accs)


def _emit_reduce_chains(
    builder: RecipeBuilder, rir: ReductionIR, launch_of_sb: List[int]
) -> Dict[DeviceId, Tuple[ChunkHandle, int]]:
    """Combine each superblock partial into its GPU's accumulator with a
    :class:`~repro.core.tasks.ReduceTask` behind the superblock's launch
    task (``launch_of_sb``), chained per GPU in superblock order.  Returns
    each GPU's accumulator and the proto after which it holds every
    partial."""
    array = rir.array
    itemsize = np.dtype(array.dtype).itemsize
    device_accs: Dict[DeviceId, Tuple[ChunkHandle, int]] = {}
    for device, jobs in rir.per_device.items():
        acc_spec = rir.acc_specs[device]
        acc = ChunkHandle.of_temp(acc_spec)
        prev = builder.create_temp(acc_spec, rir.identity)
        for job in jobs:
            prev = builder.add(
                T.ReduceTask,
                worker=device.worker,
                label=f"reduce {array.name}",
                deps=(launch_of_sb[job.sb_index], prev),
                src_chunk=job.partial.ref,
                dst_chunk=acc.ref,
                region=job.region,
                op=rir.op_name,
                nbytes=job.region.size * itemsize,
            )
            builder.delete_chunk(job.partial, job.partial_label, deps=(prev,))
        device_accs[device] = (acc, prev)
    return device_accs


def _emit_reduction_merge(
    builder: RecipeBuilder,
    rir: ReductionIR,
    device_accs: Dict[DeviceId, Tuple[ChunkHandle, int]],
) -> None:
    """Emit the cross-superblock half of a reduction: move every device
    accumulator to the root device, combine, and scatter into the
    destination chunks.  ``device_accs`` maps each contributing device to
    its accumulator handle and the proto index after which the accumulator
    holds that device's combined partials."""
    array = rir.array
    itemsize = np.dtype(array.dtype).itemsize

    # Bring every device accumulator to the root device and combine.
    if rir.root_device in device_accs:
        root_acc, root_ready = device_accs[rir.root_device]
    else:
        root_acc = ChunkHandle.of_temp(rir.root_acc_spec)
        root_ready = builder.create_temp(rir.root_acc_spec, rir.identity)
    for device, (acc, ready) in device_accs.items():
        if device == rir.root_device:
            continue
        staging_spec = rir.staging_specs[device]
        staging = ChunkHandle.of_temp(staging_spec)
        staging_ready = builder.create_temp(staging_spec)
        src_read, arrived = builder.transfer(
            rir.move_steps[device], deps=(ready, staging_ready)
        )
        combine_idx = builder.add(
            T.ReduceTask,
            worker=rir.root_device.worker,
            label=f"combine {array.name}",
            deps=(arrived, root_ready),
            src_chunk=staging.ref,
            dst_chunk=root_acc.ref,
            region=rir.total_region,
            op=rir.op_name,
            nbytes=rir.total_region.size * itemsize,
        )
        root_ready = combine_idx
        builder.delete_chunk(acc, rir.acc_specs[device].label, deps=(src_read,))
        builder.delete_chunk(staging, staging_spec.label, deps=(combine_idx,))

    # Write the reduced result into the destination chunks (and replicas).
    final_uses = [root_ready]
    for step in rir.scatter_steps:
        dest = step.dst.ref
        src_read, dst_write = builder.transfer(
            step, deps=(root_ready,), conflicts=(("write", dest),)
        )
        builder.note_write(dest, dst_write)
        final_uses.append(src_read)
    root_spec = rir.root_acc_spec or rir.acc_specs[rir.root_device]
    builder.delete_chunk(root_acc, root_spec.label, deps=final_uses)


# --------------------------------------------------------------------------- #
# stamp-time pass: cross-launch dependency injection
# --------------------------------------------------------------------------- #
class DependencyInjectionPass:
    """Resolves conflict queries against the planner's reader/writer tables.

    This pass runs at *stamp* time — for cold launches and cached re-launches
    alike — because cross-launch conflict edges depend on what was planned
    before this launch, which is exactly the part of a plan that cannot be
    cached.
    """

    name = "dependency-injection"

    def __init__(self, writers: Dict[ChunkId, List[int]], readers: Dict[ChunkId, List[int]]):
        self._writers = writers
        self._readers = readers

    def resolve(self, kind: str, chunk_id: ChunkId) -> List[int]:
        """Task ids an operation with this conflict must wait for."""
        if kind == "read":
            return list(self._writers.get(chunk_id, []))
        return list(self._writers.get(chunk_id, [])) + list(self._readers.get(chunk_id, []))

    def apply_bookkeeping(self, stamped: StampedPlan) -> None:
        """Update the conflict tables with a stamped plan's reads and writes."""
        task_ids = stamped.task_ids
        new_writes: Dict[ChunkId, List[int]] = {}
        new_reads: Dict[ChunkId, List[int]] = {}
        for chunk_id, proto_index in stamped.writes:
            new_writes.setdefault(chunk_id, []).append(task_ids[proto_index])
        for chunk_id, proto_index in stamped.reads:
            new_reads.setdefault(chunk_id, []).append(task_ids[proto_index])
        for chunk_id, writers in new_writes.items():
            self._writers[chunk_id] = list(dict.fromkeys(writers))
            self._readers[chunk_id] = list(dict.fromkeys(new_reads.get(chunk_id, [])))
        for chunk_id, readers in new_reads.items():
            if chunk_id not in new_writes:
                self._readers.setdefault(chunk_id, []).extend(readers)


# --------------------------------------------------------------------------- #
# cross-launch kernel fusion (the launch window's first drain pass)
# --------------------------------------------------------------------------- #
def _access_modes(kernel: CompiledKernel) -> Dict[str, AccessMode]:
    annotation = kernel.annotation
    return {
        p.name: annotation.access_for(p.name).mode
        for p in kernel.definition.array_params
    }


def _arrays_by_id(launch) -> Optional[Dict[int, Tuple[str, AccessMode]]]:
    """Map array id -> (param, mode) for one launch; None if a launch binds
    the same array to several parameters (fusion then steps aside)."""
    modes = _access_modes(launch.kernel)
    out: Dict[int, Tuple[str, AccessMode]] = {}
    for name, array in launch.arrays.items():
        if array.array_id in out:
            return None
        out[array.array_id] = (name, modes[name])
    return out


def chain_fusion_prescreen(launches: Sequence[object]) -> bool:
    """Cheap structural legality screen for fusing a chain of launches.

    ``launches`` expose ``kernel``, ``grid``, ``block``, ``work_dist`` and
    ``arrays`` (the window's :class:`~.window.PendingLaunch` does).  The
    screen requires, without evaluating any access region:

    * equal grid dimensionality everywhere,
    * no array bound twice within one launch,
    * no array written (or reduced) by two different segments — WAW needs
      cross-plan ordering,
    * ``reduce`` parameters only on the *last* segment (the reduction tail),
      and the tail's reduce targets untouched by every earlier segment: the
      reduction's scatter back into the target array would otherwise race
      earlier segments' accesses within one plan,
    * every segment after the first reads at least one array an earlier
      segment wrote (the chain is a genuine producer/consumer run).
    """
    if len(launches) < 2:
        return False
    id_maps = [_arrays_by_id(launch) for launch in launches]
    if any(id_map is None for id_map in id_maps):
        return False
    ndim = len(launches[0].grid)
    last = len(launches) - 1
    writer_of: Dict[int, int] = {}
    touched: set = set()
    for segment, (launch, id_map) in enumerate(zip(launches, id_maps)):
        if len(launch.grid) != ndim:
            return False
        has_reduce = any(mode is AccessMode.REDUCE for _, mode in id_map.values())
        if has_reduce and segment != last:
            return False
        produced = False
        for array_id, (_, mode) in id_map.items():
            if mode is AccessMode.REDUCE and array_id in touched:
                return False
            if mode.writes and array_id in writer_of:
                return False
            if mode.reads and array_id in writer_of:
                produced = True
        if segment > 0 and not produced:
            return False
        for array_id, (_, mode) in id_map.items():
            if mode.writes:
                writer_of[array_id] = segment
            touched.add(array_id)
    return True


def _shared_param_pairs(state_a: LaunchState, state_b: LaunchState, s: int):
    """Yield (a_pir, b_pir) pairs of superblock ``s`` bound to the same array."""
    by_array = {pir.array.array_id: pir for pir in state_a.superblocks[s].params}
    for b_pir in state_b.superblocks[s].params:
        a_pir = by_array.get(b_pir.array.array_id)
        if a_pir is not None:
            yield a_pir, b_pir


def _check_chain_regions(states: Sequence[LaunchState]) -> bool:
    """Region-level legality of fusing a chain of launches (see ARCHITECTURE.md).

    With every launch aligned to the same superblock split (identical or
    compatible work distributions, already permutation-matched), executing the
    segments back to back *per superblock* is equivalent to executing the
    launches one after another iff, for every ordered pair of segments
    ``i < j``:

    * RAW: every region ``j`` reads of an ``i``-written array is contained in
      what ``i``'s *own* superblock wrote (no halo/neighbour reads), and
      ``i``'s writes are pairwise disjoint across superblocks;
    * WAR: every region ``j`` writes of an ``i``-read array is disjoint from
      what ``i`` reads on *every other* superblock.
    """
    count = len(states[0].superblocks)
    for state in states[1:]:
        if len(state.superblocks) != count:
            return False
        for s in range(count):
            if state.superblocks[s].sb.device != states[0].superblocks[s].sb.device:
                return False

    #: (producer segment, param) pairs needing the pairwise-disjoint check
    raw_checked: set = set()
    for i in range(len(states)):
        for j in range(i + 1, len(states)):
            state_i, state_j = states[i], states[j]
            for s in range(count):
                for a_pir, b_pir in _shared_param_pairs(state_i, state_j, s):
                    if (
                        a_pir.mode is AccessMode.REDUCE
                        or b_pir.mode is AccessMode.REDUCE
                    ):
                        # The prescreen keeps reduce targets chain-private.
                        return False
                    if a_pir.mode.writes and b_pir.mode.reads:
                        if not a_pir.region.contains_region(b_pir.region):
                            return False
                        raw_checked.add((i, a_pir.param))
                    if a_pir.mode.reads and b_pir.mode.writes:
                        # WAR: j's write on s must not touch i's read on any
                        # other superblock.
                        b_region = b_pir.region
                        b_array_id = b_pir.array.array_id
                        for other in range(count):
                            if other == s:
                                continue
                            for other_a in state_i.superblocks[other].params:
                                if other_a.array.array_id != b_array_id:
                                    continue
                                if b_region.overlaps(other_a.region):
                                    return False
    # RAW producers must write pairwise-disjoint regions: the consumer reads
    # its own superblock's values in place, which only equals the coherent
    # array contents when no other superblock wrote the same elements.
    for i, param in raw_checked:
        regions = [
            pir.region
            for sbir in states[i].superblocks
            for pir in sbir.params
            if pir.param == param
        ]
        for a in range(len(regions)):
            region_a = regions[a]
            for b in range(a + 1, len(regions)):
                if region_a.overlaps(regions[b]):
                    return False
    return True


def build_fused_recipe(
    cluster: Cluster,
    launches: Sequence[object],
    cost_model: Optional[TransferCostModel] = None,
    rotation: int = 0,
) -> Optional[PlanRecipe]:
    """Try to fuse a chain of back-to-back launches into one plan recipe.

    ``launches`` expose ``kernel``, ``grid``, ``block``, ``work_dist``,
    ``arrays`` (the window's ``PendingLaunch``).  Returns the fused
    :class:`~.ir.PlanRecipe` — one multi-segment
    :class:`~repro.core.tasks.LaunchTask` per superblock executing every
    segment back to back, consumer reads bound
    to their producer's output in place with the gather transfers elided — or
    ``None`` when fusion is not legal.  Any chain length >= 2 is accepted;
    segments may use *different* work distributions whose superblock maps are
    compatible (:func:`~repro.core.distributions.match_superblocks`), and the
    chain may end in a *reduction tail*, whose per-superblock partial
    combines :func:`_emit_launches` places (in-task epilogues where no GPU
    runs more than one superblock, reduce tasks elsewhere).
    """
    launches = list(launches)
    if not chain_fusion_prescreen(launches):
        return None

    cost_model = cost_model or TransferCostModel(cluster)
    names = "+".join(launch.kernel.name for launch in launches)
    builder = RecipeBuilder(
        description=f"fused launch {names} #{{launch_id}}",
        arrays=array_slots([launch.arrays for launch in launches])[0],
    )
    states = [
        _analyse(
            cluster, launch.kernel, launch.grid, launch.block, launch.work_dist,
            launch.arrays, builder, cost_model, rotation,
        )
        for launch in launches
    ]

    # Align every segment's superblocks with the first segment's split: the
    # per-axis offset/permutation check of `match_superblocks` is what makes
    # differing-but-compatible work distributions fusable.
    base = [sbir.sb for sbir in states[0].superblocks]
    identity = tuple(range(len(base)))
    for state in states[1:]:
        matched = match_superblocks(base, [sbir.sb for sbir in state.superblocks])
        if matched is None:
            return None
        permutation, offset = matched
        if state.reductions and (
            permutation != identity or any(o != 0 for o in offset)
        ):
            # A permuted reduction tail would reorder the per-device partial
            # combines and change the floating-point result; stay bit-exact.
            return None
        if permutation != identity:
            state.superblocks = [state.superblocks[p] for p in permutation]
    if not _check_chain_regions(states):
        return None

    # Rebind consumer parameters of produced arrays to the producer's binding
    # (direct chunk or scratch temp): the fused task reads the producer's
    # output in place, so the consumer's assembled temp and its gather
    # transfers disappear, and its slot is released so that neither the
    # access summary nor stamping counts a chunk no task creates.  The
    # prescreen guarantees a single writer per array, so "the producer" is
    # unambiguous.
    elided_bytes = 0
    elided_steps = 0
    for s in range(len(states[0].superblocks)):
        producers: Dict[int, ParamIR] = {}
        for state in states:
            for pir in state.superblocks[s].params:
                if pir.mode is AccessMode.REDUCE:
                    continue
                if pir.mode.reads and not pir.mode.writes:
                    source = producers.get(pir.array.array_id)
                    if source is not None:
                        elided_bytes += sum(step.nbytes for step in pir.gather_steps)
                        elided_steps += len(pir.gather_steps)
                        pir.gather_steps = []
                        if pir.temp_spec is not None:
                            builder.recipe.temps[pir.temp_spec.slot] = None
                        pir.temp_spec = None
                        pir.direct_chunk = None
                        pir.binding = source.binding
                        pir.fused_source = source
            for pir in state.superblocks[s].params:
                if pir.mode.writes and pir.mode is not AccessMode.REDUCE:
                    producers[pir.array.array_id] = pir

    _emit_launches(states, builder)
    recipe = builder.recipe
    # The member launches' own analysis notes (eliminated_bytes, ...) were
    # already accounted when each launch was prepared cold; only the
    # fusion-specific savings are new information.
    recipe.notes["fused_launches"] = len(launches) - 1
    recipe.notes["fused_segments"] = len(launches)
    recipe.notes["fusion_elided_bytes"] = elided_bytes
    recipe.notes["fusion_elided_steps"] = elided_steps
    recipe.notes["fused_reductions"] = sum(len(st.reductions) for st in states)
    return recipe


# --------------------------------------------------------------------------- #
# recipes: the analysis passes, then task emission
# --------------------------------------------------------------------------- #
#: the analysis passes every launch runs, in order, before task emission
_ANALYSIS: Tuple[PlanningPass, ...] = (
    AccessAnalysisPass(),
    TransferResolutionPass(),
    ReductionPlanningPass(),
    RedundantTransferEliminationPass(),
)


def _analyse(
    cluster: Cluster,
    kernel: CompiledKernel,
    grid: Tuple[int, ...],
    block: Tuple[int, ...],
    work_dist: WorkDistribution,
    arrays: Dict[str, DistributedArray],
    builder: RecipeBuilder,
    cost_model: TransferCostModel,
    rotation: int,
) -> LaunchState:
    """Run the analysis passes over one launch; its temp slots are
    allocated in ``builder``, the recipe its tasks will be emitted into."""
    state = LaunchState(
        cluster=cluster,
        kernel=kernel,
        grid=tuple(grid),
        block=tuple(block),
        work_dist=work_dist,
        arrays=dict(arrays),
        builder=builder,
        cost_model=cost_model,
        rotation=rotation,
    )
    for planning_pass in _ANALYSIS:
        planning_pass.run(state)
    return state


def build_launch_recipe(
    cluster: Cluster,
    kernel: CompiledKernel,
    grid: Tuple[int, ...],
    block: Tuple[int, ...],
    work_dist: WorkDistribution,
    arrays: Dict[str, DistributedArray],
    cost_model: Optional[TransferCostModel] = None,
    rotation: int = 0,
) -> PlanRecipe:
    """The structural plan recipe of one launch: a one-segment chain."""
    builder = RecipeBuilder(
        description=f"launch {kernel.name} #{{launch_id}}",
        arrays=array_slots([arrays])[0],
    )
    state = _analyse(
        cluster, kernel, grid, block, work_dist, arrays, builder,
        cost_model or TransferCostModel(cluster), rotation,
    )
    _emit_launches([state], builder)
    recipe = builder.recipe
    recipe.notes.update(state.notes)
    recipe.misaligned_writes = _misaligned_writes(state)
    return recipe


def _misaligned_writes(state: LaunchState) -> Dict[str, Tuple[Tuple[Region, DeviceId], ...]]:
    """The launch's :attr:`~.ir.PlanRecipe.misaligned_writes`: its plain
    ``write`` parameters, bound to no other parameter, that transfer
    resolution bound to a temporary on some superblock."""
    bound = [array.array_id for array in state.arrays.values()]
    misaligned: Dict[str, Tuple[Tuple[Region, DeviceId], ...]] = {}
    for sbir in state.superblocks:
        for pir in sbir.params:
            if (
                pir.mode is AccessMode.WRITE and pir.temp_spec is not None
                and pir.param not in misaligned
                and bound.count(pir.array.array_id) == 1
            ):
                misaligned[pir.param] = tuple(
                    (other.region, each.sb.device)
                    for each in state.superblocks
                    for other in each.params
                    if other.param == pir.param
                )
    return misaligned
