"""DAG lowering: fuse expression subgraphs into generated map kernels.

The :class:`ExprEngine` is the per-context owner of every pending expression
DAG.  Operator overloads hand it freshly built nodes (:meth:`ExprEngine.built`);
force points hand it roots to evaluate.  Lowering walks a root's DAG once and

* decides which nodes must **materialise** — the root itself, reductions
  (they change shape), nodes referenced more than once inside the DAG, and
  nodes user code still holds a reference to (refcount check, conservative);
* collects the pure-interior subtree feeding each materialisation point into
  one **group**, accumulating slice offsets into the leaf reads, so interior
  temporaries are *elided*: no array, no chunks, no fill tasks, no launches;
* compiles one generated map/reduce kernel per distinct group *structure*
  (:mod:`repro.core.expr.codegen`) and launches it into the launch window,
  inside a :meth:`~repro.core.planning.window.LaunchWindow.hold` so the whole
  DAG lands in a single drain and chain fusion sees it as one batch;
* reuses a **dead input buffer in place** as a group's output when it is
  provably safe (see :meth:`_inplace_candidate`), turning ``a = a + b`` into
  a single readwrite launch with no allocation at all.

Bit-identity between lazy and eager evaluation of the same DAG rests on two
invariants: every instruction casts to the dtype recorded on its node
(codegen), and the *distribution* of every materialised value is derived
structurally from the DAG (:meth:`_derive_dist`) rather than from whatever
an intermediate happened to be allocated with — so reduction superblock
splits, and therefore floating-point combination order, match exactly across
the two arms.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..distributions import (
    BlockDist,
    BlockWorkDist,
    ColumnDist,
    DataDistribution,
    ReplicatedDist,
    RowDist,
    TileDist,
)
from .codegen import MapKernelSpec, Ref, build_kernel_def
from .graph import (
    LazyExpr,
    LeafExpr,
    MapExpr,
    ReduceExpr,
    ScalarOperand,
    ShiftExpr,
    dag_references,
)
from .liveness import external_refs, refcounts_reliable

__all__ = ["ExprEngine"]

#: fused instructions per generated kernel before the subtree is split
#: (also bounds the collection recursion depth on degenerate op chains)
MAX_GROUP_INSTRS = 64

#: thread-block shapes per grid rank (matches the hand-written workloads)
_BLOCKS = {1: (256,), 2: (16, 16), 3: (8, 8, 4)}

#: distributions that lowering may copy from an aligned operand; anything
#: else (e.g. StencilDist halos) falls back to the synthesised layout
_ALIGN_DISTS = (BlockDist, RowDist, ColumnDist, TileDist, ReplicatedDist)


def _children(node: LazyExpr) -> List[LazyExpr]:
    if isinstance(node, MapExpr):
        return [o for o in node.operands if isinstance(o, LazyExpr)]
    if isinstance(node, (ShiftExpr, ReduceExpr)):
        return [node.child]
    return []


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


class _Slot:
    """One deduplicated input of a group: a terminal node read at an offset."""

    __slots__ = ("node", "offsets", "leaf")

    def __init__(self, node: LazyExpr, offsets: Tuple[int, ...], leaf: bool) -> None:
        self.node = node  # resolved to an array only at emission time
        self.offsets = offsets
        self.leaf = leaf


class _Group:
    """One materialisation point and the fused subtree feeding it."""

    __slots__ = (
        "node",
        "derive_node",
        "slots",
        "scalars",
        "instrs",
        "result_ref",
        "reduce_op",
        "grid_shape",
    )

    def __init__(self, node: LazyExpr) -> None:
        self.node = node
        self.derive_node = node  # distribution/work derivation root
        self.slots: List[_Slot] = []
        self.scalars: List[ScalarOperand] = []
        self.instrs: List[Tuple[str, Tuple[Ref, ...], str]] = []
        self.result_ref: Optional[Ref] = None
        self.reduce_op: Optional[str] = None
        self.grid_shape: Tuple[int, ...] = node.shape


class ExprEngine:
    """Records expression DAGs for one context and lowers them at force points."""

    def __init__(self, context, lazy: bool = True) -> None:
        self.context = context
        self.lazy = lazy
        #: pending roots in creation order (id -> node); a node leaves the
        #: registry when it is composed into a parent or evaluated
        self._roots: Dict[int, LazyExpr] = {}
        #: compiled kernels memoised by group structure
        self._kernels: Dict[MapKernelSpec, object] = {}
        self._kernel_counter = 0
        self._evaluating = False
        #: without CPython refcount semantics, treat everything as shared
        self._refcounts_ok = refcounts_reliable()
        #: the context's ``RuntimeStats`` counters
        self.counters = context.counters

    # ------------------------------------------------------------------ #
    # registration (called by the graph builders)
    # ------------------------------------------------------------------ #
    def built(self, node: LazyExpr):
        """Register a freshly composed node; evaluate immediately when eager.

        Returns what the operator overload should hand back to user code:
        the node itself in lazy mode, the concrete array in eager mode (this
        *is* the ``--no-lazy`` control arm — every operator launches one
        kernel immediately, exactly like hand-written per-op code).
        """
        if isinstance(node, LeafExpr):
            return node if self.lazy else node.array
        for child in _children(node):
            self._roots.pop(id(child), None)
        if not self.lazy:
            return self.evaluate(node)
        self._roots[id(node)] = node
        return node

    @property
    def pending_count(self) -> int:
        """Number of un-forced expression roots."""
        return len(self._roots)

    # ------------------------------------------------------------------ #
    # force points (called by Context)
    # ------------------------------------------------------------------ #
    def force_pending(self) -> None:
        """Evaluate every pending root, in creation order."""
        while self._roots:
            node = next(iter(self._roots.values()))
            self.evaluate(node)

    def force_pending_for(self, array_id: int) -> None:
        """Evaluate pending roots whose DAG reads ``array_id``.

        Called before an array is deleted, redistributed or written by an
        explicit kernel launch, so deferred readers observe its *current*
        contents — program order, same as eager evaluation.
        """
        if not self._roots or self._evaluating:
            return
        targets = [n for n in self._roots.values() if dag_references(n, array_id)]
        for node in targets:
            if node._result is None:
                self.evaluate(node)

    def force_before_launch(self, kernel, arrays) -> None:
        """Force DAGs that read any array the explicit launch writes."""
        if not self._roots or self._evaluating:
            return
        for name, array in arrays.items():
            access = kernel.annotation.access_for(name)
            if access is not None and access.mode.writes:
                self.force_pending_for(array.array_id)

    # ------------------------------------------------------------------ #
    # evaluation
    # ------------------------------------------------------------------ #
    def evaluate(self, root: LazyExpr):
        """Lower ``root``'s DAG and return its concrete :class:`DistributedArray`."""
        if root._result is not None:
            return root._result
        self._roots.pop(id(root), None)
        self._evaluating = True
        try:
            return self._lower(root)
        finally:
            self._evaluating = False

    def _lower(self, root: LazyExpr):
        postorder = self._postorder(root)
        parents, ref_occ = self._count_edges(postorder)
        materialize = self._materialization_set(root, postorder, parents)
        # stats: every interior map node that never materialises is a full
        # DistributedArray temporary the eager arm would have allocated
        for node in postorder:
            if isinstance(node, MapExpr) and id(node) not in materialize:
                self.counters.temporaries_elided += 1
                self.counters.temporaries_elided_bytes += node.nbytes
        groups = [
            self._collect_group(node, materialize)
            for node in postorder
            if id(node) in materialize
        ]
        # groups still pending a *leaf* read of each array (in-place safety)
        remaining: Dict[int, int] = {}
        for group in groups:
            for aid in {s.node.array.array_id for s in group.slots if s.leaf}:
                remaining[aid] = remaining.get(aid, 0) + 1
        self.counters.exprs_lowered += 1
        with self.context.window.hold():
            for group in groups:
                self._emit_group(group, remaining, ref_occ)
        return root._result

    # ------------------------------------------------------------------ #
    # analysis
    # ------------------------------------------------------------------ #
    @staticmethod
    def _postorder(root: LazyExpr) -> List[LazyExpr]:
        post: List[LazyExpr] = []
        seen = set()
        stack: List[Tuple[LazyExpr, bool]] = [(root, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                post.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            if node._result is None or node is root:
                for child in _children(node):
                    if id(child) not in seen:
                        stack.append((child, False))
        return post

    @staticmethod
    def _count_edges(postorder: List[LazyExpr]):
        """In-DAG parent edges per node and attribute references per array."""
        parents: Dict[int, int] = {}
        ref_occ: Dict[int, int] = {}
        in_dag = {id(n) for n in postorder}
        for node in postorder:
            if isinstance(node, LeafExpr):
                # .array and ._result both point at the wrapped array
                aid = node.array.array_id
                ref_occ[aid] = ref_occ.get(aid, 0) + 2
            elif node._result is not None:
                aid = node._result.array_id
                ref_occ[aid] = ref_occ.get(aid, 0) + 1
            if node._result is None:
                for child in _children(node):
                    if id(child) in in_dag:
                        parents[id(child)] = parents.get(id(child), 0) + 1
        return parents, ref_occ

    def _materialization_set(
        self, root: LazyExpr, postorder: List[LazyExpr], parents: Dict[int, int]
    ) -> set:
        materialize = {id(root)}
        for node in postorder:
            if node._result is not None:
                continue  # already concrete (leaves, previously forced nodes)
            if isinstance(node, ReduceExpr):
                materialize.add(id(node))
                continue
            if node is root:
                continue
            if parents.get(id(node), 0) > 1:
                materialize.add(id(node))
                continue
            if not self._refcounts_ok:
                materialize.add(id(node))
                continue
            # External sharing: user code (or another DAG) holds this node.
            # Accounted refs: parent operand tuples/attributes inside this
            # DAG, the postorder list, and the loop variable.  Any surplus —
            # a user variable, another root's subtree — forces materialisation
            # so the value survives for its other consumers.
            if external_refs(node, parents.get(id(node), 0) + 2) > 0:
                materialize.add(id(node))
        # keep fused subtrees (and collection recursion) bounded
        fused: Dict[int, int] = {}
        for node in postorder:
            if node._result is not None or not isinstance(node, (MapExpr, ShiftExpr)):
                continue
            count = 1 if isinstance(node, MapExpr) else 0
            for child in _children(node):
                if id(child) not in materialize and child._result is None:
                    count += fused.get(id(child), 0)
            if count > MAX_GROUP_INSTRS and id(node) not in materialize:
                materialize.add(id(node))
                count = 0
            fused[id(node)] = 0 if id(node) in materialize else count
        return materialize

    # ------------------------------------------------------------------ #
    # group collection
    # ------------------------------------------------------------------ #
    def _collect_group(self, node: LazyExpr, materialize: set) -> _Group:
        group = _Group(node)
        if isinstance(node, ReduceExpr):
            group.reduce_op = node.op
            group.derive_node = node.child
            group.grid_shape = node.child.shape
            group.result_ref = self._visit(
                node.child, (0,) * node.child.ndim, group, materialize
            )
        else:
            group.result_ref = self._visit(
                node, (0,) * node.ndim, group, materialize, root=True
            )
        if len(group.instrs) >= 2:
            self.counters.expr_nodes_fused += len(group.instrs)
        return group

    def _visit(
        self,
        node: LazyExpr,
        offsets: Tuple[int, ...],
        group: _Group,
        materialize: set,
        root: bool = False,
    ) -> Ref:
        if not root and (node._result is not None or id(node) in materialize):
            return self._slot_ref(node, offsets, group)
        if isinstance(node, ShiftExpr):
            shifted = tuple(a + b for a, b in zip(offsets, node.offsets))
            return self._visit(node.child, shifted, group, materialize)
        # MapExpr (a bare leaf/reduce can never reach here un-terminal)
        refs: List[Ref] = []
        for operand in node.operands:
            if isinstance(operand, ScalarOperand):
                group.scalars.append(operand)
                refs.append(("scalar", len(group.scalars) - 1))
            else:
                refs.append(self._visit(operand, offsets, group, materialize))
        group.instrs.append((node.op, tuple(refs), str(node.dtype)))
        return ("reg", len(group.instrs) - 1)

    @staticmethod
    def _slot_ref(node: LazyExpr, offsets: Tuple[int, ...], group: _Group) -> Ref:
        leaf = isinstance(node, LeafExpr)
        # dedup leaf slots by array identity so the aliasing pattern (the
        # same array read at two offsets vs. two different arrays) is part
        # of the kernel structure; interior results dedup by node
        key = (node.array.array_id if leaf else -id(node), offsets)
        for index, slot in enumerate(group.slots):
            slot_key = (
                slot.node.array.array_id if slot.leaf else -id(slot.node),
                slot.offsets,
            )
            if slot_key == key:
                return ("in", index)
        group.slots.append(_Slot(node, offsets, leaf))
        return ("in", len(group.slots) - 1)

    # ------------------------------------------------------------------ #
    # distribution derivation (must match across lazy/eager arms)
    # ------------------------------------------------------------------ #
    def _derive_dist(self, node: LazyExpr) -> Optional[DataDistribution]:
        """The distribution ``node``'s value has (or would have) materialised.

        Structural: a shifted value is *not* aligned with its source (its
        element ``i`` lives where the source's ``i+off`` lives), so shifts —
        and arrays recorded as shift outputs via ``_expr_align`` — derive to
        ``None`` and their consumers fall through to the next operand or to
        the synthesised layout.  Because the rule only looks at DAG shape,
        the eager arm (which materialises every node bottom-up) assigns the
        exact same distribution to every value as the lazy arm does to the
        few it materialises.
        """
        result = node._result
        if result is not None:
            dist = result.distribution
            if getattr(result, "_expr_align", True) and isinstance(dist, _ALIGN_DISTS):
                return dist
            return None
        if isinstance(node, ShiftExpr):
            return None
        if isinstance(node, ReduceExpr):
            return ReplicatedDist()
        for operand in _children(node):
            derived = self._derive_dist(operand)
            if derived is not None:
                return derived
        return self._synth_dist(node.shape)

    def _synth_dist(self, shape: Tuple[int, ...]) -> DataDistribution:
        block0 = _BLOCKS[min(len(shape), 3)][0]
        per_device = _ceil_div(shape[0], self.context.device_count)
        extent = max(block0, _ceil_div(per_device, block0) * block0)
        if len(shape) == 1:
            return BlockDist(extent)
        return RowDist(extent)

    def _dist_or_synth(self, node: LazyExpr) -> DataDistribution:
        return self._derive_dist(node) or self._synth_dist(node.shape)

    def _work_extent(self, dist: DataDistribution, shape: Tuple[int, ...]) -> int:
        if isinstance(dist, BlockDist):
            return dist.chunk_size
        if isinstance(dist, RowDist):
            return dist.rows_per_chunk
        if isinstance(dist, TileDist):
            return dist.tile_shape[0]
        synth = self._synth_dist(shape)
        return synth.chunk_size if isinstance(synth, BlockDist) else synth.rows_per_chunk

    # ------------------------------------------------------------------ #
    # emission
    # ------------------------------------------------------------------ #
    def _emit_group(
        self, group: _Group, remaining: Dict[int, int], ref_occ: Dict[int, int]
    ) -> None:
        context = self.context
        node = group.node
        grid = group.grid_shape
        block = _BLOCKS[min(len(grid), 3)]
        if group.reduce_op is not None:
            out_dist: DataDistribution = ReplicatedDist()
            work_dist = BlockWorkDist(
                self._work_extent(self._dist_or_synth(group.derive_node), grid)
            )
        else:
            out_dist = self._dist_or_synth(node)
            work_dist = BlockWorkDist(self._work_extent(out_dist, grid))
        inplace = (
            None
            if group.reduce_op is not None
            else self._inplace_candidate(group, out_dist, remaining, ref_occ)
        )
        spec = MapKernelSpec(
            kind="reduce" if group.reduce_op else "map",
            ndim=len(grid),
            scalar_kinds=tuple(s.kind for s in group.scalars),
            slots=tuple((s.offsets, str(s.node.dtype)) for s in group.slots),
            instrs=tuple(group.instrs),
            result_ref=group.result_ref,
            out_dtype=str(node.dtype),
            reduce_op=group.reduce_op,
            inplace_slot=inplace,
        )
        kernel = self._kernels.get(spec)
        if kernel is None:
            self._kernel_counter += 1
            kernel = context.compile(build_kernel_def(spec, f"expr{self._kernel_counter}"))
            self._kernels[spec] = kernel
        if inplace is not None:
            out = group.slots[inplace].node.array
            self.counters.buffers_reused_inplace += 1
        else:
            out = context.empty(node.shape, out_dist, dtype=node.dtype)
            out._expr_align = not isinstance(node, ShiftExpr)
            self.counters.expr_bytes_allocated += out.nbytes
        args: List[object] = [s.value for s in group.scalars]
        args += [
            slot.node.array if slot.leaf else slot.node._result
            for index, slot in enumerate(group.slots)
            if index != inplace
        ]
        args.append(out)
        kernel.launch(grid, block, work_dist, args)
        node._result = out
        for aid in {s.node.array.array_id for s in group.slots if s.leaf}:
            remaining[aid] -= 1

    def _inplace_candidate(
        self,
        group: _Group,
        out_dist: DataDistribution,
        remaining: Dict[int, int],
        ref_occ: Dict[int, int],
    ) -> Optional[int]:
        """Slot index whose dead buffer may double as the output, if any.

        Safe when the candidate array (1) is a leaf read at zero offset only
        — so every thread writes exactly the elements it read, and disjoint
        superblock regions stay disjoint; (2) matches the output's shape,
        dtype and chosen distribution — the write needs no re-chunking and
        the reuse is layout-invisible; (3) has no leaf reads left in later
        groups of this DAG; and (4) is reachable *only* through the context
        registry and this DAG's nodes (refcount check) — a handle user code
        still holds, or another pending DAG, must keep the old contents.
        Reads already in the launch window are ordered by stamp-time conflict
        edges (a write waits for prior readers), so pending groups that read
        the buffer are safe.
        """
        if not self.lazy or not self._refcounts_ok:
            # the eager arm evaluates mid-expression, while the Python
            # expression stack itself still references the operands — reuse
            # could never trigger anyway, and skipping it keeps the control
            # arm byte-for-byte equivalent to hand-written per-op launches
            return None
        node = group.node
        for index, slot in enumerate(group.slots):
            if not slot.leaf or any(slot.offsets):
                continue
            if any(
                other.leaf
                and other.node.array.array_id == slot.node.array.array_id
                and any(other.offsets)
                for other in group.slots
            ):
                continue
            if slot.node.array.deleted:
                continue
            if slot.node.array.shape != node.shape:
                continue
            if slot.node.array.dtype != node.dtype:
                continue
            if slot.node.array.distribution != out_dist:
                continue
            aid = slot.node.array.array_id
            if remaining.get(aid, 0) > 1:
                continue
            accounted = ref_occ.get(aid, 0)
            if self.context.arrays.get(aid) is slot.node.array:
                accounted += 1
            if external_refs(slot.node.array, accounted) > 0:
                continue
            return index
        return None
