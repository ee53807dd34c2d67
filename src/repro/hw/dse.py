"""Design-space exploration over accelerator configurations.

The reason the paper builds an analytical performance model (§V) is to pick
design points without synthesising each one.  This module packages that
workflow: enumerate configurations, price them with the closed-form model
and the resource estimator, filter by the platform budget, and return the
throughput/resource Pareto frontier.

Used by ``repro dse`` (:func:`repro.cli.cmd_dse`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from ..models.config import ModelConfig
from ..perf.performance_model import PerformanceModel
from .config import HardwareConfig
from .platforms import FPGAPlatform
from .resources import ResourceEstimate, estimate_resources

__all__ = ["DesignPoint", "SweepSpec", "explore", "pareto_frontier"]


@dataclass(frozen=True)
class DesignPoint:
    """One evaluated configuration."""

    hw: HardwareConfig
    resources: ResourceEstimate
    throughput_eps: float
    latency_s: float

    @property
    def dsp(self) -> int:
        return self.resources.dsp


@dataclass(frozen=True)
class SweepSpec:
    """Axes of the configuration sweep."""

    n_cu: tuple[int, ...] = (1, 2, 3)
    sg: tuple[int, ...] = (4, 8, 16)
    s_fam: tuple[int, ...] = (8, 16, 32)
    s_ftm: tuple[tuple[int, int], ...] = ((4, 4), (8, 8), (16, 8))
    nb: tuple[int, ...] = (16, 32, 64)
    freq_mhz: tuple[float, ...] = (250.0,)

    def configurations(self, platform: FPGAPlatform):
        for n_cu, sg, s_fam, s_ftm, nb, freq in itertools.product(
                self.n_cu, self.sg, self.s_fam, self.s_ftm, self.nb,
                self.freq_mhz):
            if nb % n_cu != 0:
                continue
            yield HardwareConfig(platform=platform, n_cu=n_cu, sg=sg,
                                 s_fam=s_fam, s_ftm=s_ftm, nb=nb,
                                 freq_mhz=freq)


def explore(model_cfg: ModelConfig, platform: FPGAPlatform,
            spec: SweepSpec | None = None, batch_size: int = 1000
            ) -> list[DesignPoint]:
    """Evaluate every feasible configuration analytically.

    Infeasible (over-budget) designs are dropped.  Returns points in sweep
    order; combine with :func:`pareto_frontier`.
    """
    spec = spec if spec is not None else SweepSpec()
    points = []
    for hw in spec.configurations(platform):
        res = estimate_resources(model_cfg, hw)
        if not res.fits:
            continue
        pred = PerformanceModel(model_cfg, hw).predict(batch_size)
        points.append(DesignPoint(hw=hw, resources=res,
                                  throughput_eps=pred.throughput_eps,
                                  latency_s=pred.latency_s))
    return points


def pareto_frontier(points: list[DesignPoint]) -> list[DesignPoint]:
    """Non-dominated set: no design with fewer DSPs has throughput >= this
    one's.

    Sorted by ascending DSP usage; throughput strictly increases along the
    returned list.
    """
    frontier: list[DesignPoint] = []
    for p in sorted(points, key=lambda p: (p.dsp, -p.throughput_eps)):
        if not frontier or p.throughput_eps > frontier[-1].throughput_eps:
            frontier.append(p)
    return frontier
