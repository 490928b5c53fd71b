"""Per-worker chunk storage for functional execution.

Workers own the actual bytes of their chunks.  In ``functional`` execution
mode every chunk is backed by a NumPy buffer so kernels compute real results
(used by tests, examples and the correctness checks); in ``simulate`` mode no
buffers exist and only the metadata/bookkeeping paths run, which lets the
benchmark harness sweep the paper's large problem sizes.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..core.chunk import ChunkId, ChunkMeta
from ..core.geometry import Region

__all__ = ["ChunkStorage"]


class ChunkStorage:
    """Maps chunk ids to their metadata and (optionally) NumPy buffers."""

    def __init__(self, materialize: bool = True):
        self.materialize = materialize
        self._meta: Dict[ChunkId, ChunkMeta] = {}
        self._buffers: Dict[ChunkId, np.ndarray] = {}

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def create(self, chunk: ChunkMeta, value: Optional[np.generic] = None) -> None:
        """Allocate (functional mode) and register a chunk's buffer, holding
        ``value`` in every element (zeros when ``value`` is ``None``)."""
        if chunk.chunk_id in self._meta:
            raise ValueError(f"chunk {chunk.chunk_id} already exists on this worker")
        self._meta[chunk.chunk_id] = chunk
        if self.materialize:
            self._buffers[chunk.chunk_id] = (
                np.zeros(chunk.shape, dtype=chunk.dtype) if value is None
                else np.full(chunk.shape, value, dtype=chunk.dtype)
            )

    def delete(self, chunk_id: ChunkId) -> None:
        """Drop a chunk's buffer and metadata."""
        self._meta.pop(chunk_id, None)
        self._buffers.pop(chunk_id, None)

    def __contains__(self, chunk_id: ChunkId) -> bool:
        return chunk_id in self._meta

    # ------------------------------------------------------------------ #
    # fault recovery helpers
    # ------------------------------------------------------------------ #
    def poison(self, chunk_id: ChunkId) -> None:
        """Overwrite a chunk's buffer with garbage (its device was lost).

        Lineage replay is expected to rewrite the whole buffer; poisoning
        first guarantees that an incomplete replay surfaces as NaNs (or a
        sentinel for integer dtypes) instead of silently stale data.
        """
        if not self.materialize:
            return
        buffer = self._buffers.get(chunk_id)
        if buffer is None:
            return
        if np.issubdtype(buffer.dtype, np.floating) or np.issubdtype(
            buffer.dtype, np.complexfloating
        ):
            buffer.fill(np.nan)
        elif np.issubdtype(buffer.dtype, np.integer):
            buffer.fill(np.iinfo(buffer.dtype).max)

    def replace_meta(self, chunk: ChunkMeta) -> None:
        """Swap a chunk's metadata in place, keeping its buffer (rehoming)."""
        if chunk.chunk_id not in self._meta:
            raise KeyError(f"chunk {chunk.chunk_id} not stored on this worker")
        self._meta[chunk.chunk_id] = chunk

    def adopt(self, chunk: ChunkMeta, buffer: Optional[np.ndarray]) -> None:
        """Register a chunk arriving from another worker (recovery rehoming)."""
        if chunk.chunk_id in self._meta:
            raise ValueError(f"chunk {chunk.chunk_id} already exists on this worker")
        self._meta[chunk.chunk_id] = chunk
        if self.materialize:
            self._buffers[chunk.chunk_id] = (
                buffer if buffer is not None else np.zeros(chunk.shape, dtype=chunk.dtype)
            )

    def meta(self, chunk_id: ChunkId) -> ChunkMeta:
        """The :class:`ChunkMeta` registered for ``chunk_id``."""
        return self._meta[chunk_id]

    def buffer(self, chunk_id: ChunkId) -> Optional[np.ndarray]:
        """The chunk's backing buffer (``None`` in simulate-only mode)."""
        if not self.materialize:
            return None
        return self._buffers[chunk_id]

    # ------------------------------------------------------------------ #
    # data movement helpers (functional mode)
    # ------------------------------------------------------------------ #
    def fill(self, chunk_id: ChunkId, value: Optional[float], data: Optional[np.ndarray]) -> None:
        """Initialise a chunk with a constant or explicit data (functional mode)."""
        if not self.materialize:
            return
        buffer = self._buffers[chunk_id]
        if data is not None:
            buffer[...] = data
        elif value is not None:
            buffer.fill(value)

    def read_region(self, chunk_id: ChunkId, region: Region) -> Optional[np.ndarray]:
        """Copy of ``region`` (global coords) out of a chunk."""
        if not self.materialize:
            return None
        chunk = self._meta[chunk_id]
        if not chunk.region.contains_region(region):
            raise ValueError(f"region {region} outside chunk {chunk}")
        return np.array(self._buffers[chunk_id][region.as_local_slices(chunk.region)])

    def write_region(self, chunk_id: ChunkId, region: Region, data: Optional[np.ndarray]) -> None:
        """Write ``data`` into ``region`` (global coords) of a chunk."""
        if not self.materialize or data is None:
            return
        chunk = self._meta[chunk_id]
        if not chunk.region.contains_region(region):
            raise ValueError(f"region {region} outside chunk {chunk}")
        self._buffers[chunk_id][region.as_local_slices(chunk.region)] = data

    def copy_region(
        self,
        src: ChunkId,
        dst: ChunkId,
        region: Region,
        dst_storage: Optional["ChunkStorage"] = None,
    ) -> None:
        """Copy ``region`` from ``src`` into ``dst`` (possibly on another worker)."""
        dst_storage = dst_storage or self
        data = self.read_region(src, region)
        dst_storage.write_region(dst, region, data)

    def combine_region(self, src: ChunkId, dst: ChunkId, region: Region, combine) -> None:
        """dst[region] = combine(dst[region], src[region]) — used by reductions."""
        if not self.materialize:
            return
        src_meta = self._meta[src]
        dst_meta = self._meta[dst]
        src_view = self._buffers[src][region.as_local_slices(src_meta.region)]
        dst_slices = region.as_local_slices(dst_meta.region)
        dst_buf = self._buffers[dst]
        dst_buf[dst_slices] = combine(dst_buf[dst_slices], src_view)

    @property
    def chunk_count(self) -> int:
        """Number of chunks currently stored."""
        return len(self._meta)

    def total_bytes(self) -> int:
        """Combined nbytes of all stored chunks."""
        return sum(meta.nbytes for meta in self._meta.values())
