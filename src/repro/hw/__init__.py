"""FPGA accelerator simulator: modules, timing, resources (§IV / Table IV)."""

from .accelerator import COMPUTE_STAGES, FPGAAccelerator, RunReport  # noqa: F401
from .config import BOARDS, U200_DESIGN, ZCU104_DESIGN, HardwareConfig  # noqa: F401
from .dse import (DesignPoint, SweepSpec, explore,  # noqa: F401
                  pareto_frontier)
from .eu import EU_STAGES, EmbeddingUnit  # noqa: F401
from .memory_model import DDRModel  # noqa: F401
from .multi_die import (plan_shard_dies,  # noqa: F401
                        plan_shard_dies_traffic_aware)
from .muu import MUU_STAGES, MemoryUpdateUnit  # noqa: F401
from .platforms import U200, ZCU104, FPGAPlatform  # noqa: F401
from .resources import ResourceEstimate, estimate_resources  # noqa: F401
from .schedule import PIPELINE, transfers  # noqa: F401
from .trace import pipeline_overlap, render_gantt, stage_utilization  # noqa: F401
from .updater import UpdaterCache, UpdaterReport  # noqa: F401

__all__ = [
    "FPGAAccelerator", "RunReport", "COMPUTE_STAGES", "PIPELINE", "transfers",
    "HardwareConfig", "U200_DESIGN", "ZCU104_DESIGN", "BOARDS",
    "FPGAPlatform", "U200", "ZCU104",
    "DDRModel",
    "MemoryUpdateUnit", "MUU_STAGES",
    "EmbeddingUnit", "EU_STAGES",
    "UpdaterCache", "UpdaterReport",
    "ResourceEstimate", "estimate_resources",
    "DesignPoint", "SweepSpec", "explore", "pareto_frontier",
    "plan_shard_dies",
    "plan_shard_dies_traffic_aware",
    "stage_utilization", "render_gantt", "pipeline_overlap",
]
