"""repro — a pure-Python reproduction of *Lightning: Scaling the GPU
Programming Model Beyond a Single GPU* (Heldens et al., IPDPS 2022).

The package provides:

* ``repro.core`` — the Lightning programming model: distributed arrays,
  data annotations, distributed kernel launches and the execution planner;
* ``repro.hardware`` / ``repro.simulator`` / ``repro.perfmodel`` — the
  simulated GPU cluster the runtime executes on;
* ``repro.runtime`` — the driver/worker runtime with scheduling, memory
  management and spilling;
* ``repro.kernels`` — the paper's eight benchmark kernels;
* ``repro.baselines`` — NumPy and single-GPU baselines used by the evaluation;
* ``repro.apps`` — the CGC geospatial co-clustering application;
* ``repro.bench`` — run helpers shared by the CLI, the examples and the
  gates in ``benchmarks/gates.py``, which check the evaluation's figures.
"""

from .core import (
    AccessMode,
    Annotation,
    AnnotationError,
    ArrayView,
    BlockDist,
    BlockWorkDist,
    ColumnDist,
    CompiledKernel,
    Context,
    CustomDist,
    CustomWorkDist,
    DistributedArray,
    KernelDef,
    LaunchContext,
    Param,
    Region,
    ReplicatedDist,
    RowDist,
    StencilDist,
    TileDist,
    TileWorkDist,
    WeightedBlockWorkDist,
)
from .hardware import ClusterSpec, GPUSpec, NodeSpec, azure_nc24rsv2
from .perfmodel import KernelCost
from .runtime import ExecutionMode, OutOfMemoryError

__version__ = "0.1.0"

__all__ = [
    "AccessMode",
    "Annotation",
    "AnnotationError",
    "ArrayView",
    "BlockDist",
    "BlockWorkDist",
    "ClusterSpec",
    "ColumnDist",
    "CompiledKernel",
    "Context",
    "CustomDist",
    "CustomWorkDist",
    "DistributedArray",
    "ExecutionMode",
    "GPUSpec",
    "KernelCost",
    "KernelDef",
    "LaunchContext",
    "NodeSpec",
    "OutOfMemoryError",
    "Param",
    "Region",
    "ReplicatedDist",
    "RowDist",
    "StencilDist",
    "TileDist",
    "TileWorkDist",
    "WeightedBlockWorkDist",
    "azure_nc24rsv2",
    "__version__",
]
