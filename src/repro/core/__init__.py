"""Core library: Lightning's programming model.

Everything a user needs is re-exported here: the :class:`Context` driver, the
distribution policies, the kernel definition builder and the annotation DSL.
"""

from .annotations import AccessMode, Annotation, AnnotationError
from .array import DistributedArray
from .chunk import ChunkMeta
from .context import Context
from .distributions import (
    BlockDist,
    BlockWorkDist,
    ColumnDist,
    CustomDist,
    CustomWorkDist,
    ChunkPlacement,
    DataDistribution,
    ReplicatedDist,
    RowDist,
    StencilDist,
    Superblock,
    TileDist,
    TileWorkDist,
    WeightedBlockWorkDist,
    WorkDistribution,
)
from .geometry import Region
from .kernel import CompiledKernel, KernelDef, Param
from .planning import Planner, PlanningError
from .reductions import REDUCE_OPS, ReduceOp, get_reduce_op
from .types import ArrayView, LaunchContext, Matrix, Scalar, Tensor, Vector, AccessViolation
from .wrapper import WrapperCache

__all__ = [
    "AccessMode",
    "Annotation",
    "AnnotationError",
    "AccessViolation",
    "ArrayView",
    "BlockDist",
    "BlockWorkDist",
    "ChunkMeta",
    "ChunkPlacement",
    "ColumnDist",
    "CompiledKernel",
    "Context",
    "CustomDist",
    "CustomWorkDist",
    "DataDistribution",
    "DistributedArray",
    "KernelDef",
    "LaunchContext",
    "Matrix",
    "Param",
    "Planner",
    "PlanningError",
    "REDUCE_OPS",
    "ReduceOp",
    "Region",
    "ReplicatedDist",
    "RowDist",
    "Scalar",
    "StencilDist",
    "Superblock",
    "Tensor",
    "TileDist",
    "TileWorkDist",
    "WeightedBlockWorkDist",
    "Vector",
    "WorkDistribution",
    "WrapperCache",
    "get_reduce_op",
]
