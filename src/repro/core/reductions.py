"""Reduction operators supported by ``reduce(f)`` data annotations.

The paper restricts ``f`` to ``+``, ``*``, ``min`` and ``max`` (Sec. 2.3).
For each operator we need the identity element (temporary partial-result
chunks are initialised to it) and a NumPy combine function used by the
hierarchical reduction tasks (superblock → GPU → node → cluster).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

import numpy as np

__all__ = ["ReduceOp", "REDUCE_OPS", "get_reduce_op"]


@dataclass(frozen=True)
class ReduceOp:
    """One associative, commutative reduction operator."""

    name: str
    combine: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def identity(self, dtype: np.dtype) -> np.generic:
        """The operator's identity element, exact, as a ``dtype`` scalar."""
        dtype = np.dtype(dtype)
        if self.name == "+":
            value = 0
        elif self.name == "*":
            value = 1
        elif self.name == "min":
            value = np.inf if dtype.kind == "f" else np.iinfo(dtype).max
        elif self.name == "max":
            value = -np.inf if dtype.kind == "f" else np.iinfo(dtype).min
        else:  # pragma: no cover - REDUCE_OPS is closed
            raise ValueError(f"unknown reduction {self.name!r}")
        return dtype.type(value)

    def __str__(self) -> str:
        return self.name


REDUCE_OPS: Dict[str, ReduceOp] = {
    "+": ReduceOp("+", np.add),
    "*": ReduceOp("*", np.multiply),
    "min": ReduceOp("min", np.minimum),
    "max": ReduceOp("max", np.maximum),
}


def get_reduce_op(name: str) -> ReduceOp:
    """Look up a reduction operator by its annotation spelling."""
    try:
        return REDUCE_OPS[name]
    except KeyError:
        valid = ", ".join(sorted(REDUCE_OPS))
        raise ValueError(f"unsupported reduction {name!r}; expected one of: {valid}") from None
