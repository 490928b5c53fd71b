"""The mutable plan IR the planning passes operate on.

Planning a kernel launch is split into two halves:

* **Recipe construction** — the pass pipeline (see :mod:`.passes`) analyses
  access regions, resolves transfers, plans reductions and optimises the
  result.  Everything it produces is *structural*: a :class:`PlanRecipe` holds
  an ordered list of :class:`TaskProto` records whose dependencies are indices
  into the same list, temporary chunks are symbolic :class:`TempRef` slots,
  send/recv tags are symbolic :class:`TagRef` slots and the launch's array
  chunks are symbolic :class:`ChunkRef` (array slot, chunk index) pairs.  A
  recipe contains no task ids, no chunk ids and no cross-launch
  dependencies, which is what makes it reusable across launches, and across
  arrays of the same chunk layout (the plan-template cache stores recipes).

* **Stamping** — :func:`stamp_recipe` turns a recipe into a concrete
  :class:`~repro.core.tasks.ExecutionPlan` for one launch's chunks
  (:data:`SlotChunks`): it resolves every :class:`ChunkRef` to the id of
  the chunk it names, allocates fresh task ids, chunk ids and tags,
  substitutes the launch's scalar arguments, and injects cross-launch
  conflict dependencies by querying the planner's reader/writer tables (the
  dependency-injection pass).  Stamping is a cheap linear walk, so cached
  re-launches skip all of the analysis work: what a proto resolves to on
  every stamp for one set of arrays, chunk ids included, is folded once
  (the proto's *stamp split*) and compiled again only when the recipe
  stamps for other arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Type,
)

import numpy as np

from ...hardware.topology import DeviceId, MemorySpace, WorkerId
from ..chunk import ChunkId, ChunkMeta
from ..geometry import Region
from .. import tasks as T

if TYPE_CHECKING:
    from ..array import DistributedArray

__all__ = [
    "ChunkRef",
    "SlotChunks",
    "slot_chunks",
    "array_slots",
    "TempRef",
    "TempMetaRef",
    "TagRef",
    "ScalarArgsRef",
    "LaunchIdRef",
    "TempChunkSpec",
    "ChunkHandle",
    "TransferStep",
    "ArgBindingProto",
    "ReduceEpilogueProto",
    "TaskProto",
    "AccessSummary",
    "PlanRecipe",
    "RecipeBuilder",
    "StampedPlan",
    "stamp_recipe",
]


# --------------------------------------------------------------------------- #
# persistent chunks: named by slot in the recipe, resolved through the
# launch's chunks at stamp time
# --------------------------------------------------------------------------- #
class ChunkRef(NamedTuple):
    """Placeholder for the *chunk id* of a persistent chunk: chunk ``index``
    of the recipe's array ``slot`` (see :func:`array_slots`).

    A named tuple, so the passes hash and compare it as cheaply as the
    chunk id it stands for.
    """

    slot: int
    index: int


def array_slots(
    bindings: Sequence[Dict[str, "DistributedArray"]],
) -> Tuple[List["DistributedArray"], Tuple[int, ...]]:
    """Number the distinct arrays of one or more launches' bindings.

    Walks each launch's parameters sorted by name, giving an array the next
    slot the first time it appears.  Returns the arrays in slot order and
    every parameter's slot in walk order; the second says which parameters
    share one array.
    """
    arrays: List["DistributedArray"] = []
    slot_of: Dict[int, int] = {}
    pattern: List[int] = []
    for binding in bindings:
        for name in sorted(binding):
            array = binding[name]
            slot = slot_of.get(array.array_id)
            if slot is None:
                slot = slot_of[array.array_id] = len(arrays)
                arrays.append(array)
            pattern.append(slot)
    return arrays, tuple(pattern)


#: What a recipe's :class:`ChunkRef` names resolve to for one launch or fused
#: chain: each array's chunk list, in slot order (:func:`slot_chunks`).  A
#: relayout replaces an array's list (and bumps its layout epoch), so equal
#: tuples name the same chunk ids: the tuple itself identifies the arrays a
#: recipe's stamp splits fold.
SlotChunks = Tuple[Sequence[ChunkMeta], ...]


def slot_chunks(arrays: Sequence["DistributedArray"]) -> SlotChunks:
    """The chunks ``arrays`` (in slot order) hold now."""
    return tuple([array.chunks for array in arrays])


# --------------------------------------------------------------------------- #
# symbolic references resolved at stamp time
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class TempRef:
    """Placeholder for the *chunk id* of a temporary chunk (fresh per stamp)."""

    slot: int


@dataclass(frozen=True)
class TempMetaRef:
    """Placeholder for the full :class:`ChunkMeta` of a temporary chunk."""

    slot: int


@dataclass(frozen=True)
class TagRef:
    """Placeholder for a send/recv matching tag (fresh per stamp)."""

    slot: int


@dataclass(frozen=True)
class ScalarArgsRef:
    """Placeholder for the scalar-argument dict of one launch segment."""

    segment: int


@dataclass(frozen=True)
class LaunchIdRef:
    """Placeholder for the launch id of one launch segment."""

    segment: int


@dataclass(frozen=True)
class TempChunkSpec:
    """Blueprint of one temporary chunk created by the plan."""

    slot: int
    region: Region
    dtype: np.dtype
    home: DeviceId
    label: str

    @property
    def worker(self) -> WorkerId:
        """Worker owning the temp chunk's home device."""
        return self.home.worker

    @property
    def nbytes(self) -> int:
        """Payload size of the temp chunk in bytes."""
        return self.region.size * np.dtype(self.dtype).itemsize


@dataclass(frozen=True)
class ChunkHandle:
    """Uniform view of a transfer endpoint: a persistent chunk or a temp slot.

    ``ref`` is a :class:`ChunkRef` (persistent array chunk) or a
    :class:`TempRef`.  ``meta`` is set for persistent chunks only.
    """

    ref: object
    home: DeviceId
    dtype: np.dtype
    meta: Optional[ChunkMeta] = None

    @classmethod
    def of_chunk(cls, chunk: ChunkMeta, ref: ChunkRef) -> "ChunkHandle":
        """Handle for a persistent array chunk, named ``ref`` in the recipe."""
        return cls(ref=ref, home=chunk.home, dtype=chunk.dtype, meta=chunk)

    @classmethod
    def of_temp(cls, spec: TempChunkSpec) -> "ChunkHandle":
        """Handle for a symbolic temp-chunk slot."""
        return cls(ref=TempRef(spec.slot), home=spec.home, dtype=np.dtype(spec.dtype))

    @property
    def worker(self) -> WorkerId:
        """Worker owning the endpoint's home device."""
        return self.home.worker


@dataclass
class TransferStep:
    """One planned data movement, before being lowered to copy/send+recv protos."""

    src: ChunkHandle
    dst: ChunkHandle
    region: Region
    purpose: str  # 'gather' | 'writeback' | 'scatter' | 'move-acc'
    label: str = ""

    @property
    def nbytes(self) -> int:
        """Bytes the transfer step moves."""
        return self.region.size * np.dtype(self.src.dtype).itemsize


@dataclass(frozen=True)
class ArgBindingProto:
    """Structural form of one :class:`~repro.core.tasks.ArrayArgBinding`."""

    param: str
    chunk_ref: object  # ChunkRef or TempRef
    access_region: Region
    mode: str
    reduce_op: Optional[str] = None


@dataclass(frozen=True)
class ReduceEpilogueProto:
    """Structural form of one :class:`~repro.core.tasks.ReduceEpilogue`.

    ``src_ref``/``dst_ref`` are :class:`ChunkRef` or :class:`TempRef` names
    (the chain-fusion pass combines a superblock partial temp into a
    per-device accumulator temp); both resolve at stamp time.
    """

    src_ref: object
    dst_ref: object
    region: Region
    op: str
    nbytes: int


@dataclass
class TaskProto:
    """One task of the recipe: a task class plus its structural fields.

    ``deps`` are indices of earlier protos in the recipe.  ``conflicts`` are
    ``(kind, chunk)`` queries against the planner's cross-launch conflict
    tables, resolved at stamp time (``kind`` is ``"read"`` or ``"write"``).
    """

    factory: Type[T.Task]
    worker: WorkerId
    label: str
    fields: Dict[str, object]
    deps: Tuple[int, ...] = ()
    conflicts: Tuple[Tuple[str, ChunkRef], ...] = ()
    #: True for a copy that gathers a persistent chunk into a temporary on
    #: the same worker: its source is a hierarchy-prefetch candidate
    gather: bool = False
    #: stamp-time memo (:func:`_compile_split`) for the arrays the recipe
    #: last stamped: the fields and conflict queries that resolve to the same
    #: value on every stamp for them, resolved once, and the items resolved
    #: per stamp.  Built lazily by :func:`stamp_recipe`, which drops it when
    #: the recipe stamps for other arrays if it folded any chunk id.
    _split: object = field(default=None, repr=False, compare=False)


@dataclass
class AccessSummary:
    """Per-memory-space footprint of one plan recipe (the template's *access
    summary*).

    Computed once per recipe by :meth:`PlanRecipe.access_summary` and cached
    with the template, so the launch window's memory-planning drain pass can
    combine the summaries of a whole drained group without re-walking any
    protos on the hot path.  It names persistent chunks by
    :class:`ChunkRef`, like the recipe; the pass maps them through each
    drain unit's own :data:`SlotChunks`.
    """

    #: persistent chunks each GPU space must hold, in first-use (proto)
    #: order, with their sizes in bytes
    chunks_by_space: Dict[MemorySpace, List[Tuple[ChunkRef, int]]] = field(
        default_factory=dict
    )
    #: total bytes of the temporary chunks the plan's tasks create, per GPU
    #: space (released slots, such as a fused consumer's elided input, are
    #: not counted); the sum ignores that the plan deletes some temps before
    #: it creates others
    temp_bytes_by_space: Dict[MemorySpace, int] = field(default_factory=dict)
    #: persistent chunks staged into GPU memory before the plan's launch
    #: tasks run (direct launch bindings and same-worker gather sources), in
    #: plan order — the candidates for hierarchy-aware prefetch promotion
    prefetch_chunks: List[ChunkRef] = field(default_factory=list)


@dataclass
class PlanRecipe:
    """A reusable structural execution-plan template for one driver operation.

    A recipe names persistent chunks by :class:`ChunkRef`; one recipe serves
    every set of arrays of its layout, and :func:`stamp_recipe` resolves the
    names through the :data:`SlotChunks` of the launch it stamps.
    """

    description: str = ""
    protos: List[TaskProto] = field(default_factory=list)
    #: temp slots by slot number; ``None`` marks a slot released before
    #: emission (a fused consumer's elided input), which no task creates
    temps: List[Optional[TempChunkSpec]] = field(default_factory=list)
    tag_slots: int = 0
    #: conflict-table bookkeeping applied after stamping: (chunk, proto idx)
    reads: List[Tuple[ChunkRef, int]] = field(default_factory=list)
    writes: List[Tuple[ChunkRef, int]] = field(default_factory=list)
    #: optimisation-pass statistics recorded while this recipe was built
    notes: Dict[str, float] = field(default_factory=dict)
    #: metadata of every persistent chunk the recipe references, as the
    #: arrays it was built for held them (collected by the builder; what
    #: lets :meth:`access_summary` size working sets)
    chunk_metas: Dict[ChunkRef, ChunkMeta] = field(default_factory=dict)
    #: write-only parameters (bound to no other parameter) that some
    #: superblock writes through a temporary -> every superblock's write
    #: region and GPU, in superblock order (what a re-chunk of the array
    #: would align it to; see ``Context.launch``)
    misaligned_writes: Dict[str, Tuple[Tuple[Region, DeviceId], ...]] = field(
        default_factory=dict
    )
    _summary: Optional[AccessSummary] = field(default=None, repr=False)
    #: stamp memo: the chunks (:data:`SlotChunks`) the protos' stamp splits
    #: were compiled for, and :attr:`reads` / :attr:`writes` with their ids
    _served: Optional[tuple] = field(default=None, repr=False, compare=False)

    @property
    def task_count(self) -> int:
        """Number of task protos in the recipe."""
        return len(self.protos)

    def access_summary(self) -> AccessSummary:
        """The recipe's per-space working set (memoised on first call)."""
        if self._summary is None:
            self._summary = self._build_summary()
        return self._summary

    def _build_summary(self) -> AccessSummary:
        summary = AccessSummary()
        noted: set = set()

        def note(chunk_ref: object, prefetch: bool) -> None:
            meta = self.chunk_metas.get(chunk_ref) if not isinstance(chunk_ref, TempRef) else None
            if meta is None:
                return
            if chunk_ref not in noted:
                noted.add(chunk_ref)
                summary.chunks_by_space.setdefault(meta.home.memory_space, []).append(
                    (chunk_ref, meta.nbytes)
                )
            if prefetch and chunk_ref not in summary.prefetch_chunks:
                summary.prefetch_chunks.append(chunk_ref)

        for proto in self.protos:
            if proto.factory is T.LaunchTask:
                for bindings in proto.fields.get("array_args_list", ()):
                    for binding in bindings:
                        note(binding.chunk_ref, prefetch=True)
            elif proto.factory is T.CopyTask:
                # Copies stage both endpoints in GPU memory; same-worker
                # gather sources are the hierarchy-prefetch candidates.
                note(proto.fields.get("src_chunk"), prefetch=proto.gather)
                note(proto.fields.get("dst_chunk"), prefetch=False)
            elif proto.factory is T.ReduceTask:
                note(proto.fields.get("src_chunk"), prefetch=False)
                note(proto.fields.get("dst_chunk"), prefetch=False)
            # Send/Recv/Download stage "any": no GPU footprint.
        for spec in self.temps:
            if spec is None:
                continue
            space = spec.home.memory_space
            summary.temp_bytes_by_space[space] = (
                summary.temp_bytes_by_space.get(space, 0) + spec.nbytes
            )
        return summary


class RecipeBuilder:
    """Incrementally assembles a :class:`PlanRecipe` (used by the passes).

    ``arrays`` are the launches' arrays in slot order (:func:`array_slots`):
    the recipe names their chunks by :class:`ChunkRef`.
    """

    def __init__(self, description: str = "", arrays: Sequence["DistributedArray"] = ()) -> None:
        self.recipe = PlanRecipe(description=description)
        self._refs: Dict[ChunkId, ChunkRef] = {
            chunk.chunk_id: ChunkRef(slot, index)
            for slot, array in enumerate(arrays)
            for index, chunk in enumerate(array.chunks)
        }

    # ------------------------------------------------------------------ #
    # symbolic allocation
    # ------------------------------------------------------------------ #
    def handle(self, chunk: ChunkMeta) -> ChunkHandle:
        """The handle naming one of the launches' array chunks."""
        return ChunkHandle.of_chunk(chunk, self._refs[chunk.chunk_id])

    def temp(self, region: Region, dtype, home: DeviceId, label: str) -> TempChunkSpec:
        """Allocate a symbolic temp-chunk slot (blueprint only)."""
        spec = TempChunkSpec(
            slot=len(self.recipe.temps),
            region=region,
            dtype=np.dtype(dtype),
            home=home,
            label=label,
        )
        self.recipe.temps.append(spec)
        return spec

    def tag(self) -> TagRef:
        """Allocate a symbolic send/recv tag slot."""
        ref = TagRef(self.recipe.tag_slots)
        self.recipe.tag_slots += 1
        return ref

    # ------------------------------------------------------------------ #
    # proto emission
    # ------------------------------------------------------------------ #
    def add(
        self,
        factory: Type[T.Task],
        worker: WorkerId,
        label: str = "",
        deps: Sequence[int] = (),
        conflicts: Sequence[Tuple[str, object]] = (),
        gather: bool = False,
        **fields,
    ) -> int:
        """Append a task proto; returns its index in the recipe."""
        index = len(self.recipe.protos)
        self.recipe.protos.append(
            TaskProto(
                factory=factory,
                worker=worker,
                label=label,
                fields=fields,
                deps=tuple(deps),
                conflicts=tuple(conflicts),
                gather=gather,
            )
        )
        return index

    def create_temp(
        self,
        spec: TempChunkSpec,
        value: Optional[np.generic] = None,
    ) -> int:
        """Create a temp chunk, holding ``value`` in every element when given
        (a reduction temp's identity); returns the create's proto index.

        The chunk is allocated where its first stager needs it: a reduction
        temp straight on its GPU, with nothing to upload.
        """
        return self.add(
            T.CreateChunkTask,
            worker=spec.worker,
            label=f"create {spec.label}",
            chunk=TempMetaRef(spec.slot),
            value=value,
        )

    def delete_chunk(self, handle: ChunkHandle, label: str, deps: Sequence[int]) -> int:
        """Emit a delete proto for a chunk once ``deps`` are done."""
        return self.add(
            T.DeleteChunkTask,
            worker=handle.worker,
            label=f"delete {label}",
            deps=deps,
            chunk_id=handle.ref,
        )

    def transfer(
        self,
        step: TransferStep,
        deps: Sequence[int],
        conflicts: Sequence[Tuple[str, object]] = (),
    ) -> Tuple[int, int]:
        """Lower one :class:`TransferStep` to copy or send+recv protos.

        Returns ``(src_read_idx, dst_write_idx)`` mirroring the semantics of
        the original planner: the proto that reads the source and the proto
        whose completion means the data arrived at the destination.
        """
        src, dst, region = step.src, step.dst, step.region
        for handle in (src, dst):
            if handle.meta is not None:
                self.note_meta(handle)
        nbytes = step.nbytes
        if src.worker == dst.worker:
            copy = self.add(
                T.CopyTask,
                worker=src.worker,
                label=step.label or f"copy {step.purpose}",
                deps=deps,
                conflicts=conflicts,
                gather=step.purpose == "gather",
                src_chunk=src.ref,
                dst_chunk=dst.ref,
                region=region,
                nbytes=nbytes,
                src_device=src.home,
                dst_device=dst.home,
            )
            return copy, copy
        tag = self.tag()
        send = self.add(
            T.SendTask,
            worker=src.worker,
            label=step.label or f"send {step.purpose}",
            deps=deps,
            conflicts=conflicts,
            chunk_id=src.ref,
            region=region,
            dst_worker=dst.worker,
            tag=tag,
            nbytes=nbytes,
        )
        recv = self.add(
            T.RecvTask,
            worker=dst.worker,
            label=step.label or f"recv {step.purpose}",
            deps=tuple(deps) + (send,),
            conflicts=conflicts,
            chunk_id=dst.ref,
            region=region,
            src_worker=src.worker,
            tag=tag,
            nbytes=nbytes,
        )
        return send, recv

    def note_meta(self, handle: ChunkHandle) -> None:
        """Record a persistent chunk's metadata for the access summary."""
        self.recipe.chunk_metas[handle.ref] = handle.meta

    # ------------------------------------------------------------------ #
    # conflict bookkeeping
    # ------------------------------------------------------------------ #
    def note_read(self, chunk: ChunkRef, proto_index: int) -> None:
        """Record that ``proto_index`` reads ``chunk`` (conflict bookkeeping)."""
        self.recipe.reads.append((chunk, proto_index))

    def note_write(self, chunk: ChunkRef, proto_index: int) -> None:
        """Record that ``proto_index`` writes ``chunk`` (conflict bookkeeping)."""
        self.recipe.writes.append((chunk, proto_index))


# --------------------------------------------------------------------------- #
# stamping: recipe -> concrete ExecutionPlan
# --------------------------------------------------------------------------- #
@dataclass
class StampedPlan:
    """A stamped plan plus the metadata the planner needs for bookkeeping."""

    plan: T.ExecutionPlan
    #: concrete task id of every proto, by recipe index
    task_ids: List[int]
    #: the recipe's reads / writes with the stamped arrays' chunk ids:
    #: (chunk id, proto index)
    reads: List[Tuple[ChunkId, int]]
    writes: List[Tuple[ChunkId, int]]


#: symbolic references that force per-stamp resolution
_REF_TYPES = (TempRef, TempMetaRef, TagRef, ScalarArgsRef, LaunchIdRef)


def _stamp_constant(
    value: object, chunk_id: Callable[[ChunkRef], ChunkId]
) -> Tuple[bool, object]:
    """Fold ``value`` into its stamp-time constant, if it has one.

    Returns ``(True, resolved)`` when ``value`` resolves to the *same* object
    on every stamp for one set of arrays (no per-stamp ref anywhere inside;
    ``chunk_id`` resolves each :class:`ChunkRef`), so the resolution can be
    done once and shared — the resolved bindings/epilogues are frozen
    dataclasses and tasks never mutate their field values.  Returns
    ``(False, None)`` when the value mentions a per-stamp ref.
    """
    if type(value) is ChunkRef:
        return True, chunk_id(value)
    if isinstance(value, _REF_TYPES):
        return False, None
    if isinstance(value, ArgBindingProto):
        const, chunk = _stamp_constant(value.chunk_ref, chunk_id)
        if not const:
            return False, None
        return True, T.ArrayArgBinding(
            param=value.param,
            chunk_id=chunk,
            access_region=value.access_region,
            mode=value.mode,
            reduce_op=value.reduce_op,
        )
    if isinstance(value, ReduceEpilogueProto):
        src_const, src = _stamp_constant(value.src_ref, chunk_id)
        dst_const, dst = _stamp_constant(value.dst_ref, chunk_id)
        if not (src_const and dst_const):
            return False, None
        return True, T.ReduceEpilogue(
            src_chunk=src, dst_chunk=dst,
            region=value.region, op=value.op, nbytes=value.nbytes,
        )
    if isinstance(value, tuple):
        out = []
        for item in value:
            const, resolved = _stamp_constant(item, chunk_id)
            if not const:
                return False, None
            out.append(resolved)
        return True, tuple(out)
    return True, value


class _Parts(tuple):
    """A compiled tuple field: one ``(constant, item)`` pair per element,
    where ``item`` is the element's stamp-time constant when ``constant`` is
    true and its compiled form otherwise."""


def _compile_stamper(value: object, chunk_id: Callable[[ChunkRef], ChunkId]) -> object:
    """Compile a non-constant field value into its per-stamp form.

    Fused recipes carry large nested tuples (one bindings tuple per segment)
    in which only a few elements are symbolic; the compiled form folds the
    constant elements once, so :func:`_stamp` re-resolves only the symbolic
    ones instead of walking the whole structure on every stamp.  A leaf
    compiles to itself.  The compiled form is plain data rather than a
    closure per field, since cached recipes keep it as long as they live.
    """
    if isinstance(value, tuple):
        parts = []
        for item in value:
            const, resolved = _stamp_constant(item, chunk_id)
            if const:
                parts.append((True, resolved))
            else:
                parts.append((False, _compile_stamper(item, chunk_id)))
        return _Parts(parts)
    return value


def _stamp(compiled: object, resolve: Callable) -> object:
    """Resolve one compiled field value (see :func:`_compile_stamper`)."""
    if type(compiled) is _Parts:
        return tuple([item if const else _stamp(item, resolve) for const, item in compiled])
    return resolve(compiled)


def _compile_split(proto: TaskProto, chunks: SlotChunks) -> tuple:
    """The proto's stamp split for ``chunks``: ``(static fields, dynamic
    items, conflict queries, folded)``.

    Static fields and the conflict queries resolve to the same values on
    every stamp for these arrays, chunk ids included, so they are resolved
    here once; only the dynamic items are resolved per stamp.  ``folded``
    says whether a chunk id was folded, i.e. whether the split holds only
    for these arrays.
    """
    folded = False

    def chunk_id(ref: ChunkRef) -> ChunkId:
        nonlocal folded
        folded = True
        return chunks[ref.slot][ref.index].chunk_id

    static: Dict[str, object] = {}
    dynamic: List[Tuple[str, object]] = []
    for name, value in proto.fields.items():
        const, resolved = _stamp_constant(value, chunk_id)
        if const:
            static[name] = resolved
        else:
            dynamic.append((name, _compile_stamper(value, chunk_id)))
    conflicts = tuple((kind, chunk_id(ref)) for kind, ref in proto.conflicts)
    return static, dynamic, conflicts, folded


def _serve(recipe: PlanRecipe, chunks: SlotChunks) -> tuple:
    """Point the recipe's stamp memo at ``chunks``' arrays: drop the splits
    that folded another set's chunk ids, and resolve the reads and writes."""
    if recipe._served is not None:
        for proto in recipe.protos:
            if proto._split is not None and proto._split[3]:
                proto._split = None
    recipe._served = (
        chunks,
        [(chunks[slot][index].chunk_id, at) for (slot, index), at in recipe.reads],
        [(chunks[slot][index].chunk_id, at) for (slot, index), at in recipe.writes],
    )
    return recipe._served


def stamp_recipe(
    recipe: PlanRecipe,
    chunks: SlotChunks,
    *,
    new_task_id: Callable[[], int],
    new_chunk_id: Callable[[], ChunkId],
    new_tag: Callable[[], int],
    resolve_conflicts: Callable[[str, ChunkId], List[int]],
    scalar_sets: Sequence[Dict[str, object]],
    launch_ids: Sequence[int],
    cache_status: Optional[str] = None,
) -> StampedPlan:
    """Materialise ``recipe`` for ``chunks`` into a concrete :class:`ExecutionPlan`.

    Every :class:`ChunkRef` resolves to the id of the chunk it names in
    ``chunks``.  Fresh task/chunk/tag identifiers come from the supplied
    allocators; ``resolve_conflicts`` is the dependency-injection hook that
    maps a ``(kind, chunk_id)`` conflict query to the task ids of earlier
    launches that must complete first.  ``scalar_sets``/``launch_ids`` hold
    one substitution per segment (the plan takes the first launch id).
    """
    served = recipe._served
    if served is None or served[0] != chunks:
        served = _serve(recipe, chunks)
    temp_chunks: List[Optional[ChunkMeta]] = [
        None if spec is None else ChunkMeta(
            chunk_id=new_chunk_id(),
            region=spec.region,
            dtype=spec.dtype,
            home=spec.home,
            array_id=None,
            temporary=True,
            label=spec.label,
        )
        for spec in recipe.temps
    ]
    tags: List[int] = [new_tag() for _ in range(recipe.tag_slots)]
    # One copy of each scalar-argument dict per stamp, shared by the stamped
    # tasks: they only read it.
    segment_scalars = [dict(segment) for segment in scalar_sets]

    def resolve(value: object) -> object:
        if isinstance(value, TempRef):
            return temp_chunks[value.slot].chunk_id
        if isinstance(value, TempMetaRef):
            return temp_chunks[value.slot]
        if isinstance(value, TagRef):
            return tags[value.slot]
        if isinstance(value, ScalarArgsRef):
            return segment_scalars[value.segment]
        if isinstance(value, LaunchIdRef):
            return launch_ids[value.segment]
        if type(value) is ChunkRef:
            return chunks[value.slot][value.index].chunk_id
        if isinstance(value, ArgBindingProto):
            return T.ArrayArgBinding(
                param=value.param,
                chunk_id=resolve(value.chunk_ref),
                access_region=value.access_region,
                mode=value.mode,
                reduce_op=value.reduce_op,
            )
        if isinstance(value, ReduceEpilogueProto):
            return T.ReduceEpilogue(
                src_chunk=resolve(value.src_ref),
                dst_chunk=resolve(value.dst_ref),
                region=value.region,
                op=value.op,
                nbytes=value.nbytes,
            )
        if isinstance(value, tuple):
            return tuple(resolve(v) for v in value)
        return value

    launch_id = launch_ids[0]
    # literal substitution: kernel names may contain arbitrary characters
    description = recipe.description.replace("{launch_id}", str(launch_id))
    plan = T.ExecutionPlan(launch_id=launch_id, description=description,
                           cache_status=cache_status)
    task_ids: List[int] = []
    for proto in recipe.protos:
        # Resolve only what varies per stamp; constant fields (regions,
        # labels, chunk-id bindings, ...) and the conflict queries are folded
        # once per set of arrays and shared by every later stamp for them.
        split = proto._split
        if split is None:
            split = proto._split = _compile_split(proto, chunks)
        static, dynamic, conflicts, _ = split
        deps: List[int] = [task_ids[i] for i in proto.deps]
        for kind, chunk_id in conflicts:
            deps.extend(resolve_conflicts(kind, chunk_id))
        if len(deps) > 1:
            deps = list(dict.fromkeys(deps))  # dedupe, preserving order
            if proto.factory is T.LaunchTask:
                deps = sorted(deps)
        if dynamic:
            fields = dict(static)
            for name, compiled in dynamic:
                fields[name] = _stamp(compiled, resolve)
        else:
            fields = static
        task = proto.factory(
            task_id=new_task_id(),
            worker=proto.worker,
            deps=tuple(deps),
            label=proto.label,
            **fields,
        )
        plan.add(task)
        task_ids.append(task.task_id)
    return StampedPlan(plan=plan, task_ids=task_ids, reads=served[1], writes=served[2])
