"""Pass-based execution planning (Sec. 2.4, restructured).

The package splits the old monolithic planner into

* :mod:`.ir` — the plan IR: task protos, plan recipes and stamping;
* :mod:`.passes` — the analysis passes (access analysis, transfer
  resolution, reduction planning, redundant-transfer elimination), the one
  task emitter that plain launches (one-segment chains) and fused chains
  share, and the stamp-time dependency-injection pass;
* :mod:`.costmodel` — topology-aware transfer cost ranking;
* :mod:`.cache` — the plan-template cache for iterative launches;
* :mod:`.planner` — the :class:`Planner` facade the driver talks to;
* :mod:`.window` — the launch window: deferred submission with cross-launch
  kernel fusion over a bounded lookahead group;
* :mod:`.memplan` — window-aware memory planning: planned pre-eviction and
  hierarchy-aware prefetch promotion for the drained group.
"""

from .cache import PlanTemplateCache
from .costmodel import TransferCostModel
from .ir import AccessSummary, PlanRecipe, RecipeBuilder, TransferStep, stamp_recipe
from .memplan import GroupMemoryPlan, WindowMemoryPlanner
from .passes import (
    AccessAnalysisPass,
    DependencyInjectionPass,
    PlanningError,
    PlanningPass,
    RedundantTransferEliminationPass,
    ReductionPlanningPass,
    TransferResolutionPass,
    build_fused_recipe,
    build_launch_recipe,
    chain_fusion_prescreen,
)
from .planner import Planner, PreparedLaunch
from .window import DEFAULT_LOOKAHEAD, LaunchWindow, PendingLaunch

__all__ = [
    "Planner",
    "PlanningError",
    "PlanTemplateCache",
    "TransferCostModel",
    "PlanRecipe",
    "RecipeBuilder",
    "TransferStep",
    "stamp_recipe",
    "PlanningPass",
    "AccessAnalysisPass",
    "TransferResolutionPass",
    "ReductionPlanningPass",
    "RedundantTransferEliminationPass",
    "DependencyInjectionPass",
    "build_launch_recipe",
    "build_fused_recipe",
    "chain_fusion_prescreen",
    "PreparedLaunch",
    "LaunchWindow",
    "PendingLaunch",
    "DEFAULT_LOOKAHEAD",
    "AccessSummary",
    "GroupMemoryPlan",
    "WindowMemoryPlanner",
]
