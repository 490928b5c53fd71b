"""Kernel definitions and compiled kernels (Sec. 3.5-3.6).

The host-side API mirrors the paper's Rust builder (Fig. 9)::

    stencil = (
        KernelDef("stencil", func=stencil_kernel)
        .param_value("n", "int32")
        .param_array("output", "float32")
        .param_array("input", "float32")
        .annotate("global i => read input[i-1:i+1], write output[i]")
        .compile(ctx)
    )
    stencil.launch(n, 256, work_dist, (n, output, input))

A *kernel function* in this reproduction is a Python callable executed once
per superblock: it receives a :class:`~repro.core.types.LaunchContext` and the
declared parameters (scalars and :class:`~repro.core.types.ArrayView` objects)
in declaration order, and performs the work of all the superblock's threads
with vectorised NumPy operations while indexing arrays with global indices —
the same programming model as the annotated CUDA kernels of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..perfmodel.costs import KernelCost
from .annotations import Annotation
from .distributions import WorkDistribution
from .types import ArrayView, LaunchContext

__all__ = ["Param", "KernelDef", "CompiledKernel"]


@dataclass(frozen=True)
class Param:
    """One kernel parameter: a scalar value or a distributed array."""

    name: str
    kind: str  # 'value' | 'array'
    dtype: np.dtype

    def __post_init__(self) -> None:
        if self.kind not in ("value", "array"):
            raise ValueError(f"parameter kind must be 'value' or 'array', got {self.kind!r}")
        object.__setattr__(self, "dtype", np.dtype(self.dtype))


@dataclass(frozen=True)
class KernelDef:
    """Immutable builder describing a kernel's signature, annotation and cost."""

    name: str
    func: Optional[Callable] = None
    params: Tuple[Param, ...] = ()
    annotation: Optional[Annotation] = None
    cost: KernelCost = field(default_factory=KernelCost)

    # ------------------------------------------------------------------ #
    # builder methods (each returns a new definition)
    # ------------------------------------------------------------------ #
    def param_value(self, name: str, dtype: Union[str, np.dtype] = "int64") -> "KernelDef":
        """Declare a scalar parameter."""
        return replace(self, params=self.params + (Param(name, "value", np.dtype(dtype)),))

    def param_array(self, name: str, dtype: Union[str, np.dtype] = "float32") -> "KernelDef":
        """Declare a distributed-array parameter."""
        return replace(self, params=self.params + (Param(name, "array", np.dtype(dtype)),))

    def annotate(self, text: str) -> "KernelDef":
        """Attach the data annotation describing each thread's accesses."""
        return replace(self, annotation=Annotation.parse(text))

    def with_cost(self, cost: KernelCost) -> "KernelDef":
        """Attach the per-thread cost descriptor used by the performance model."""
        return replace(self, cost=cost)

    def compile(self, context: "object") -> "CompiledKernel":
        """Register the kernel with a context's runtime (runtime compilation)."""
        return context.compile(self)

    # ------------------------------------------------------------------ #
    # validation helpers
    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        """Check parameter/annotation consistency; raise on mismatch."""
        if self.func is None:
            raise ValueError(f"kernel {self.name!r} has no function attached")
        if not self.params:
            raise ValueError(f"kernel {self.name!r} declares no parameters")
        names = [p.name for p in self.params]
        if len(names) != len(set(names)):
            raise ValueError(f"kernel {self.name!r} has duplicate parameter names")
        if self.annotation is None:
            raise ValueError(f"kernel {self.name!r} has no data annotation")
        array_names = {p.name for p in self.params if p.kind == "array"}
        annotated = set(self.annotation.array_names())
        missing = array_names - annotated
        if missing:
            raise ValueError(
                f"kernel {self.name!r}: array parameters {sorted(missing)} have no data annotation"
            )
        unknown = annotated - array_names
        if unknown:
            raise ValueError(
                f"kernel {self.name!r}: annotation references unknown arrays {sorted(unknown)}"
            )

    @property
    def array_params(self) -> Tuple[Param, ...]:
        """The array parameters, in declaration order."""
        return tuple(p for p in self.params if p.kind == "array")


class CompiledKernel:
    """A kernel registered with a context's runtime, ready to be launched."""

    def __init__(self, definition: KernelDef, context: "object", wrapper: Callable):
        definition.validate()
        self.definition = definition
        self.context = context
        self._wrapper = wrapper
        self.launches = 0

    # ------------------------------------------------------------------ #
    # metadata passthrough
    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        """The kernel's registered name."""
        return self.definition.name

    @property
    def params(self) -> Tuple[Param, ...]:
        """Every declared parameter, in order."""
        return self.definition.params

    @property
    def annotation(self) -> Annotation:
        """The parsed access annotation."""
        return self.definition.annotation  # type: ignore[return-value]

    @property
    def cost(self) -> KernelCost:
        """The roofline cost model of one kernel thread."""
        return self.definition.cost

    # ------------------------------------------------------------------ #
    # launching
    # ------------------------------------------------------------------ #
    def launch(
        self,
        grid: Union[int, Sequence[int]],
        block: Union[int, Sequence[int]],
        work_dist: WorkDistribution,
        args: Sequence[object],
    ) -> None:
        """Submit one distributed kernel launch (asynchronous to the driver)."""
        self.launches += 1
        self.context.launch(self, grid, block, work_dist, args)

    def bind_args(self, args: Sequence[object]) -> Tuple[Dict[str, object], Dict[str, object]]:
        """Split positional launch arguments into scalar and array bindings."""
        if len(args) != len(self.params):
            raise TypeError(
                f"kernel {self.name!r} expects {len(self.params)} arguments, got {len(args)}"
            )
        scalars: Dict[str, object] = {}
        arrays: Dict[str, object] = {}
        for param, value in zip(self.params, args):
            if param.kind == "value":
                if isinstance(value, (bool, int, float, np.integer, np.floating)):
                    scalars[param.name] = value
                else:
                    raise TypeError(
                        f"argument {param.name!r} of kernel {self.name!r} must be a scalar"
                    )
            else:
                arrays[param.name] = value
        return scalars, arrays

    # ------------------------------------------------------------------ #
    # execution of one superblock (called by the workers' executors)
    # ------------------------------------------------------------------ #
    def run_superblock(
        self,
        launch_ctx: LaunchContext,
        scalar_args: Mapping[str, object],
        views: Mapping[str, ArrayView],
    ) -> None:
        """Execute the kernel body for one superblock (functional mode)."""
        args: Dict[str, object] = {}
        for param in self.params:
            if param.kind == "value":
                args[param.name] = scalar_args[param.name]
            else:
                args[param.name] = views[param.name]
        self._wrapper(self.definition.func, launch_ctx, args)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CompiledKernel({self.name}, params={[p.name for p in self.params]})"
