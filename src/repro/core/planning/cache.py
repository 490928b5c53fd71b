"""The plan-template cache: reuse launch plans across iterations and jobs.

Iterative applications (K-Means, HotSpot, the CGC co-clustering app) replay
the *same* kernel launch hundreds of times, and a served tenant's jobs replay
the launches of its earlier jobs on fresh arrays of the same shapes.  The
structural part of such a launch's plan — superblocks, access regions,
transfers, reductions — depends only on the kernel, the grid/block
dimensions, the work distribution, the planner's device rotation and the
bound arrays' names, dtypes, shapes and chunk layouts.  Task ids, temporary
chunk ids, send/recv tags, scalar arguments and cross-launch conflict
dependencies differ per launch, and those are exactly what re-stamping a
cached :class:`~.ir.PlanRecipe` regenerates.

The cache key is ``(kernel name, grid, block, work distribution, rotation,
parameter slots, per-array layout signature)``: the parameter slots
(:func:`~.ir.array_slots`) say which parameters share one array, and each
array's :class:`~repro.core.array.LayoutSignature` holds its name (task and
temporary labels embed it; unnamed arrays are ``array{id}``), dtype, shape
and every chunk's region and home.  Scalar arguments are deliberately *not*
part of the key: access regions are functions of the superblock and the
array shape only, so scalars are pure payload stamped into the cached
skeleton.

A recipe names persistent chunks symbolically, as (array slot, chunk index)
:class:`~.ir.ChunkRef` pairs, so one entry serves every set of arrays of its
layout: :func:`~.ir.stamp_recipe` resolves the names through the chunks of
the launch it stamps.  An in-place
redistribution changes an array's layout and so its key; the entry of the
old layout stays valid for any array in that layout, and the LRU bound is
what retires it.  Keys do not name the surviving devices, so a device
failure drops every entry (:meth:`~.planner.Planner.invalidate_all`).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable, Optional, Sequence, Tuple

from ..array import DistributedArray
from ..distributions import WorkDistribution
from ..kernel import CompiledKernel
from .ir import PlanRecipe

__all__ = ["PlanTemplateCache"]


class PlanTemplateCache:
    """A bounded LRU cache of structural launch-plan recipes."""

    def __init__(self, maxsize: int = 256):
        self.maxsize = maxsize
        self._entries: "OrderedDict[Hashable, PlanRecipe]" = OrderedDict()
        #: launches served without planning anything cold / planned cold
        #: (:meth:`record`)
        self.hits = 0
        self.misses = 0
        #: entries dropped by :meth:`~.planner.Planner.invalidate_all`
        self.invalidations = 0

    # ------------------------------------------------------------------ #
    # keying
    # ------------------------------------------------------------------ #
    @staticmethod
    def key_for(
        kernel: CompiledKernel,
        grid: Tuple[int, ...],
        block: Tuple[int, ...],
        work_dist: WorkDistribution,
        rotation: int,
        arrays: Sequence[DistributedArray],
        pattern: Tuple[int, ...],
    ) -> Hashable:
        """Cache key for one launch whose ``arrays`` (in slot order) and
        parameter ``pattern`` come from :func:`~.ir.array_slots`."""
        layouts = tuple(array.layout_signature() for array in arrays)
        return (kernel.name, tuple(grid), tuple(block), work_dist, rotation, pattern, layouts)

    # ------------------------------------------------------------------ #
    # lookup / store
    # ------------------------------------------------------------------ #
    def lookup(self, key: Hashable) -> Optional[PlanRecipe]:
        """The cached recipe for ``key``, or ``None``."""
        recipe = self._entries.get(key)
        if recipe is not None:
            self._entries.move_to_end(key)
        return recipe

    def store(self, key: Hashable, recipe: PlanRecipe) -> None:
        """Insert a recipe, evicting the LRU entry beyond ``maxsize``."""
        self._entries[key] = recipe
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)

    def record(self, hit: bool) -> None:
        """Count one launch: a hit when no recipe was planned cold for it."""
        if hit:
            self.hits += 1
        else:
            self.misses += 1

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop every cached entry."""
        self._entries.clear()

    @property
    def hit_rate(self) -> float:
        """Hits over counted launches (0.0 when never consulted)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def describe(self) -> str:
        """One-line summary: entries, hits/misses and hit rate."""
        return (
            f"plan-template cache: {len(self._entries)} entries, "
            f"{self.hits} hits / {self.misses} misses ({self.hit_rate:.0%} hit rate)"
        )
