"""Per-chunk compression model for the simulated disk tier.

The compressed disk tier (``Context(disk=True)``) does not move real bytes —
like the rest of the performance model it only needs *sizes* and *rates* —
but the compression ratio a chunk achieves on a real machine depends on what
is in it.  The model captures that with two ingredients:

* a **dtype/content class** base ratio: wide floats barely compress
  (mantissa entropy), integers and masks compress well — the classes and
  their base ratios below follow the usual LZ4/blosc shuffle behaviour;
* a **deterministic per-chunk jitter**: the ratio of each chunk is drawn
  from ±20% around its class base, keyed by ``(seed, chunk id)`` through a
  cryptographic hash, so a given seed always yields the same ratio for the
  same chunk — runs are reproducible and the ``disk`` gate of
  ``benchmarks/gates.py`` can compare byte counters exactly.

The same model prices checkpoint files: :mod:`repro.runtime.checkpoint`
compresses real chunk payloads with :mod:`zlib` (stdlib; the bloscpack-style
format does not need blosc itself), but charges *virtual* time using the
throughputs of the node's :class:`~repro.hardware.specs.DiskSpec`.
"""

from __future__ import annotations

import hashlib
from typing import Optional

import numpy as np

__all__ = ["CompressionModel", "DEFAULT_DISK_SEED"]

#: default seed for the per-chunk ratio draw (CLI ``--disk-seed``)
DEFAULT_DISK_SEED = 0

#: dtype class -> base compression ratio (uncompressed / stored bytes)
_BASE_RATIOS = (
    ("bool", 8.0),
    ("uint8", 4.0),
    ("integer", 2.5),
    ("float16", 1.8),
    ("floating", 1.6),
    ("complex", 1.3),
)

#: relative jitter around the class base ratio (±20%)
_JITTER = 0.2


def _dtype_class(dtype: np.dtype) -> str:
    """The content class a dtype falls into (coarse, by information density)."""
    dtype = np.dtype(dtype)
    if dtype == np.bool_:
        return "bool"
    if dtype == np.uint8:
        return "uint8"
    if np.issubdtype(dtype, np.integer):
        return "integer"
    if dtype == np.float16:
        return "float16"
    if np.issubdtype(dtype, np.complexfloating):
        return "complex"
    if np.issubdtype(dtype, np.floating):
        return "floating"
    return "floating"  # conservative default for exotic dtypes


class CompressionModel:
    """Deterministic per-chunk compression ratios, sampled by dtype class.

    One instance serves a whole runtime; it is stateless apart from the seed,
    so two runs with the same seed (and the same chunk-id sequence) see
    bit-identical ratios, byte counters and virtual times.
    """

    def __init__(self, seed: int = DEFAULT_DISK_SEED):
        self.seed = int(seed)

    def _unit(self, chunk_id: int) -> float:
        """Deterministic uniform draw in [0, 1) keyed by (seed, chunk id)."""
        digest = hashlib.sha256(f"{self.seed}:{int(chunk_id)}".encode()).digest()
        return int.from_bytes(digest[:8], "big") / float(1 << 64)

    def ratio(self, chunk_id: int, dtype) -> float:
        """Compression ratio (uncompressed/stored) of one chunk, >= 1.0."""
        base = dict(_BASE_RATIOS)[_dtype_class(dtype)]
        jitter = 1.0 + _JITTER * (2.0 * self._unit(chunk_id) - 1.0)
        return max(1.0, base * jitter)

    def stored_bytes(self, chunk_id: int, dtype, nbytes: int) -> int:
        """Bytes a chunk occupies on disk after compression (at least 1)."""
        if nbytes <= 0:
            return 0
        return max(1, int(round(nbytes / self.ratio(chunk_id, dtype))))

    def describe(self, chunk_id: int, dtype, nbytes: int) -> Optional[dict]:
        """Diagnostic record of one chunk's modelled compression."""
        stored = self.stored_bytes(chunk_id, dtype, nbytes)
        return {
            "chunk_id": int(chunk_id),
            "class": _dtype_class(dtype),
            "ratio": self.ratio(chunk_id, dtype),
            "raw_bytes": int(nbytes),
            "stored_bytes": stored,
        }
