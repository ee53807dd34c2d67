"""Analytical performance models: §V equations, GPP baselines, validation."""

# hw.dse imports performance_model, which imports hw.config: load hw first
# so the cycle resolves when this package is the first one imported.
from .. import hw  # noqa: F401
from .gpp import CPU_32T, GPU, GPPCostModel  # noqa: F401
from .performance_model import PerformanceModel, PerfPrediction  # noqa: F401
from .validation import ValidationPoint, validate_performance_model  # noqa: F401

__all__ = [
    "PerformanceModel", "PerfPrediction",
    "GPPCostModel", "CPU_32T", "GPU",
    "ValidationPoint", "validate_performance_model",
]
