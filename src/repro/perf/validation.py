"""Predicted-vs-actual validation of the performance model (Fig. 6).

Sweeps batch size, runs both the analytical model (§V) and the cycle
simulator on the same design point, and reports relative errors.  The paper
reports 9.9-12.8 % average error, attributed to HLS pipeline flush cycles
and DRAM refresh — exactly the effects our simulator includes and our
analytical model omits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.temporal_graph import TemporalGraph
from ..hw.accelerator import FPGAAccelerator
from ..hw.config import HardwareConfig
from ..models.tgn import TGNN
from .performance_model import PerformanceModel

__all__ = ["ValidationPoint", "validate_performance_model"]


@dataclass(frozen=True)
class ValidationPoint:
    """One batch-size point of the Fig. 6 comparison."""

    batch_size: int
    predicted_latency_s: float
    actual_latency_s: float
    predicted_throughput_eps: float
    actual_throughput_eps: float

    @property
    def latency_error(self) -> float:
        return abs(self.predicted_latency_s - self.actual_latency_s) \
            / self.actual_latency_s

    @property
    def throughput_error(self) -> float:
        return abs(self.predicted_throughput_eps - self.actual_throughput_eps) \
            / self.actual_throughput_eps


def validate_performance_model(model: TGNN, hw: HardwareConfig,
                               graph: TemporalGraph,
                               batch_sizes: list[int],
                               warmup_edges: int = 0
                               ) -> list[ValidationPoint]:
    """Run the Fig. 6 sweep; returns one point per batch size.

    Each point prices edges ``[warmup_edges, warmup_edges + max(n, nb))``.
    """
    perf = PerformanceModel(model.cfg, hw)
    points = []
    for n in batch_sizes:
        end = min(warmup_edges + max(n, hw.nb), graph.num_edges)
        report = FPGAAccelerator(model, hw).run_stream(
            graph, n, start=warmup_edges, end=end)
        pred = perf.predict(n)
        points.append(ValidationPoint(
            batch_size=n,
            predicted_latency_s=pred.latency_s,
            actual_latency_s=report.mean_latency_s,
            predicted_throughput_eps=pred.throughput_eps,
            actual_throughput_eps=report.throughput_eps))
    return points
