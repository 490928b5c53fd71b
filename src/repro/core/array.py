"""Distributed multi-dimensional arrays (Sec. 2.2).

A :class:`DistributedArray` is a driver-side handle: it records the array's
shape, element type, distribution policy and the chunk metadata produced by
that policy.  The actual bytes live on the workers.  Handles are created
through the :class:`~repro.core.context.Context` factory methods
(``zeros``/``ones``/``full``/``from_numpy``/``empty``) and can be gathered
back to a NumPy array, deleted, or passed as kernel arguments.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from typing import List, Optional, Tuple

import numpy as np

from ..hardware.topology import DeviceId
from .chunk import ChunkMeta
from .distributions import DataDistribution
from .geometry import Region

__all__ = ["DistributedArray", "ArrayIdAllocator", "LayoutSignature"]


class ArrayIdAllocator:
    """Monotonically increasing array identifiers."""

    def __init__(self) -> None:
        self._counter = itertools.count(1)

    def next_id(self) -> int:
        """A fresh, never-reused array id."""
        return next(self._counter)


class LayoutSignature:
    """What a launch plan depends on of one array: its name, dtype, shape and
    chunk layout (each chunk's region and home).

    Hashed once, so a plan-cache key holding one signature per array costs
    O(arrays) to hash however many chunks each has.
    """

    __slots__ = ("value", "_hash")

    def __init__(self, value: tuple) -> None:
        self.value = value
        self._hash = hash(value)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, LayoutSignature)
            and self._hash == other._hash
            and self.value == other.value
        )


class DistributedArray:
    """Driver-side handle to an array distributed over the cluster's GPUs."""

    def __init__(
        self,
        array_id: int,
        shape: Tuple[int, ...],
        dtype: np.dtype,
        distribution: DataDistribution,
        chunks: List[ChunkMeta],
        context: "object",
        name: str = "",
    ):
        if not 1 <= len(shape) <= 3:
            raise ValueError(f"arrays must have 1 to 3 dimensions, got shape {shape!r}")
        self.array_id = array_id
        self.shape = tuple(int(s) for s in shape)
        self.dtype = np.dtype(dtype)
        self.distribution = distribution
        self.chunks = chunks
        self.context = context
        self.name = name or f"array{array_id}"
        self.deleted = False
        #: bumped whenever the chunk layout changes (an in-place
        #: :meth:`redistribute`, a re-chunk or device recovery), which
        #: refreshes :meth:`layout_signature`
        self.layout_epoch = 0
        #: True once a launch that only writes the array re-chunked it to its
        #: superblock write regions (``Context.launch``; at most once, until
        #: device recovery redistributes it back to ``distribution``)
        self.rechunked = False
        #: lazily built axis-0 interval index over ``chunks`` (see
        #: :meth:`_chunk_interval_index`); invalidated by identity/epoch checks
        self._chunk_index: Optional[tuple] = None
        #: memo of :meth:`layout_signature`: (layout epoch, signature)
        self._signature: Optional[Tuple[int, LayoutSignature]] = None

    # ------------------------------------------------------------------ #
    # metadata
    # ------------------------------------------------------------------ #
    @property
    def ndim(self) -> int:
        """Number of array dimensions."""
        return len(self.shape)

    @property
    def size(self) -> int:
        """Total element count."""
        return int(np.prod(self.shape))

    @property
    def nbytes(self) -> int:
        """Logical payload size (replication not counted)."""
        return self.size * self.dtype.itemsize

    @property
    def allocated_bytes(self) -> int:
        """Bytes actually occupied by chunks, including replication and halos."""
        return sum(chunk.nbytes for chunk in self.chunks)

    @property
    def domain(self) -> Region:
        """The full index region ``[0, shape)``."""
        return Region.from_shape(self.shape)

    @property
    def chunk_count(self) -> int:
        """Number of chunks the distribution produced."""
        return len(self.chunks)

    def layout_signature(self) -> LayoutSignature:
        """This array's :class:`LayoutSignature`, memoised per layout epoch."""
        memo = self._signature
        if memo is None or memo[0] != self.layout_epoch:
            layout = tuple((chunk.region, chunk.home) for chunk in self.chunks)
            signature = LayoutSignature((self.name, self.dtype.str, self.shape, layout))
            memo = self._signature = (self.layout_epoch, signature)
        return memo[1]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"DistributedArray({self.name}, shape={self.shape}, dtype={self.dtype}, "
            f"{self.chunk_count} chunks)"
        )

    def __len__(self) -> int:
        return self.shape[0]

    #: make NumPy return NotImplemented from its ufuncs so mixed expressions
    #: (``np.float64(2) * array``) fall back to our reflected operators
    __array_ufunc__ = None

    def __array__(self, dtype=None, copy=None):
        raise TypeError(
            "implicit conversion of a DistributedArray to a NumPy array is "
            "not supported (it would silently synchronise the whole cluster); "
            "call .gather() explicitly"
        )

    # ------------------------------------------------------------------ #
    # expression operators (record a lazy DAG; see repro.core.expr)
    # ------------------------------------------------------------------ #
    def __add__(self, other):
        from .expr.graph import build_binary

        return build_binary("add", self, other)

    def __radd__(self, other):
        from .expr.graph import build_binary

        return build_binary("add", other, self)

    def __sub__(self, other):
        from .expr.graph import build_binary

        return build_binary("sub", self, other)

    def __rsub__(self, other):
        from .expr.graph import build_binary

        return build_binary("sub", other, self)

    def __mul__(self, other):
        from .expr.graph import build_binary

        return build_binary("mul", self, other)

    def __rmul__(self, other):
        from .expr.graph import build_binary

        return build_binary("mul", other, self)

    def __truediv__(self, other):
        from .expr.graph import build_binary

        return build_binary("truediv", self, other)

    def __rtruediv__(self, other):
        from .expr.graph import build_binary

        return build_binary("truediv", other, self)

    def __neg__(self):
        from .expr.graph import build_unary

        return build_unary("neg", self)

    def __abs__(self):
        from .expr.graph import build_unary

        return build_unary("abs", self)

    def __getitem__(self, key):
        from .expr.graph import build_slice

        return build_slice(self, key)

    def sum(self):
        """Full reduction to one element with ``+`` (lazy under ``Context(lazy=True)``)."""
        from .expr.graph import build_reduce

        return build_reduce("sum", self)

    def max(self):
        """Full reduction to one element with ``max``."""
        from .expr.graph import build_reduce

        return build_reduce("max", self)

    def min(self):
        """Full reduction to one element with ``min``."""
        from .expr.graph import build_reduce

        return build_reduce("min", self)

    def prod(self):
        """Full reduction to one element with ``*``."""
        from .expr.graph import build_reduce

        return build_reduce("prod", self)

    # ------------------------------------------------------------------ #
    # chunk queries used by the planner
    # ------------------------------------------------------------------ #
    #: below this many chunks a linear scan beats building/consulting the index
    _INDEX_THRESHOLD = 16

    def _chunk_interval_index(self) -> Optional[tuple]:
        """A sorted axis-0 interval index over ``self.chunks``, or ``None``.

        All stock distributions partition along one axis (or row-major tiles),
        so a chunk's axis-0 interval narrows overlap/enclosure queries from a
        full scan to a bisected slice.  The index is ``(chunks, epoch, order,
        los, his)`` with ``order`` sorted by ``lo[0]`` (stable, so equal-``lo``
        chunks keep distribution order); it is only usable when the matching
        ``hi[0]`` sequence is also non-decreasing — true for every stock
        layout — and rebuilt whenever ``chunks`` is replaced (redistribute
        bumps ``layout_epoch`` and swaps the list object).
        """
        chunks = self.chunks
        cached = self._chunk_index
        if cached is not None and cached[0] is chunks and cached[1] == self.layout_epoch:
            return cached if cached[2] is not None else None
        order = sorted(range(len(chunks)), key=lambda i: chunks[i].region.lo[0])
        los = [chunks[i].region.lo[0] for i in order]
        his = [chunks[i].region.hi[0] for i in order]
        if all(a <= b for a, b in zip(his, his[1:])):
            index = (chunks, self.layout_epoch, order, los, his)
        else:
            # Irregular (custom) layout: remember the negative result so the
            # sortedness check is not repeated per query.
            index = (chunks, self.layout_epoch, None, None, None)
        self._chunk_index = index
        return index if index[2] is not None else None

    def _candidate_chunks(self, region: Region) -> List[ChunkMeta]:
        """Chunks whose axis-0 interval overlaps ``region``'s, in chunk order.

        A superset of both the overlapping and the enclosing chunks of a
        non-empty ``region``; callers re-apply their exact predicate.
        """
        chunks = self.chunks
        if len(chunks) < self._INDEX_THRESHOLD:
            return chunks
        index = self._chunk_interval_index()
        if index is None:
            return chunks
        _, _, order, los, his = index
        qlo, qhi = region.lo[0], region.hi[0]
        start = bisect_right(his, qlo)  # first chunk with hi[0] > region.lo[0]
        end = bisect_left(los, qhi, lo=start)  # first with lo[0] >= region.hi[0]
        if start == 0 and end == len(chunks):
            return chunks
        return [chunks[i] for i in sorted(order[start:end])]

    def chunks_overlapping(self, region: Region) -> List[ChunkMeta]:
        """Chunks whose region intersects ``region``."""
        return [
            chunk
            for chunk in self._candidate_chunks(region)
            if chunk.region.overlaps(region)
        ]

    def chunks_enclosing(self, region: Region) -> List[ChunkMeta]:
        """Chunks whose region fully contains ``region``."""
        # An empty region is inside every chunk, but its axis-0 interval
        # overlaps none: only the non-empty case may use the candidate index.
        candidates = self.chunks if region.is_empty else self._candidate_chunks(region)
        return [
            chunk for chunk in candidates if chunk.region.contains_region(region)
        ]

    def find_enclosing_chunk(
        self, region: Region, prefer_device: Optional[DeviceId] = None
    ) -> Optional[ChunkMeta]:
        """The best chunk fully containing ``region``.

        Preference order: a chunk on ``prefer_device``, then a chunk on the
        same worker node, then any enclosing chunk (smallest first, so halos
        do not needlessly pull in a full replica).
        """
        candidates = self.chunks_enclosing(region)
        if not candidates:
            return None
        def rank(chunk: ChunkMeta) -> Tuple[int, int]:
            if prefer_device is None:
                return (2, chunk.size)
            if chunk.home == prefer_device:
                return (0, chunk.size)
            if chunk.home.worker == prefer_device.worker:
                return (1, chunk.size)
            return (2, chunk.size)
        return min(candidates, key=rank)

    def covering_chunks(self) -> List[Tuple[ChunkMeta, Region]]:
        """A set of (chunk, owned-region) pairs that covers the array exactly once.

        With overlapping distributions several chunks hold the same element;
        for gathering we attribute every element to the first chunk that
        contains it (chunk order is the distribution order, which keeps halo
        cells attributed to their owning chunk's neighbour consistently).
        """
        out: List[Tuple[ChunkMeta, Region]] = []
        # Greedy attribution along the first axis is exact for the 1-d-style
        # distributions used here; the general fallback assigns whole regions
        # and later entries simply re-write identical (coherent) data.
        for chunk in self.chunks:
            out.append((chunk, chunk.region))
        return out

    def validate_coverage(self) -> None:
        """Check the distribution covers the whole array (used by tests)."""
        from .geometry import regions_cover

        if not regions_cover(self.domain, [c.region for c in self.chunks]):
            raise ValueError(f"distribution of {self.name} does not cover the array domain")

    # ------------------------------------------------------------------ #
    # user-facing conveniences (delegate to the context)
    # ------------------------------------------------------------------ #
    def gather(self) -> np.ndarray:
        """Synchronise and return the full array contents as a NumPy array."""
        return self.context.gather(self)

    def delete(self) -> None:
        """Free the array's chunks on the workers."""
        self.context.delete_array(self)

    def redistribute(self, new_distribution: DataDistribution) -> "DistributedArray":
        """Re-chunk this array in place via a planned all-to-all.

        The contents are preserved (gather before == gather after); the chunk
        layout, the distribution and ``layout_epoch`` change, so the next
        launch on this array looks up the plans of the new layout.
        """
        return self.context.redistribute(self, new_distribution)
