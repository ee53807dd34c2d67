"""Bottleneck characterization: the paper's §III "key points" as an API.

Section III derives three design observations from the case study:

1. on a serial processor the GNN computation dominates (>80 % of time,
   half of it attention-score computation);
2. the time-encoding matmuls are removable by reversing computation order;
3. on parallel machines the bottleneck moves to vertex-state traffic.

This module computes the same verdicts for *any* (model, platform) pair —
compute-bound vs. memory-bound, which pipeline stage dominates, and the
marginal benefit of each co-design lever — so a user targeting a different
board or model size can re-derive the co-design priorities instead of
trusting the paper's instance.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hw.config import HardwareConfig
from ..hw.schedule import compute_cycles
from ..models.config import ModelConfig
from ..profiling.op_counter import Convention, count_ops
from .performance_model import PerformanceModel

__all__ = ["Characterization", "characterize", "lever_analysis"]


@dataclass(frozen=True)
class Characterization:
    """Bottleneck verdict for one (model, hardware) pair."""

    bound: str                   # "compute" | "memory"
    dominant_stage: str          # slowest pipeline stage
    t_comp_s: float
    t_ls_s: float
    compute_margin: float        # t_comp / t_ls (>1 = compute-bound)
    gnn_share_of_macs: float     # §III key point 1
    time_encoding_share: float   # §III key point 2 (removable matmuls)
    state_traffic_share: float   # §III key point 3 (vertex-state words)


def characterize(model_cfg: ModelConfig, hw: HardwareConfig
                 ) -> Characterization:
    """Compute the §III verdicts for this design point."""
    pm = PerformanceModel(model_cfg, hw)
    pred = pm.pipeline_period()
    cycles = compute_cycles(model_cfg, hw, hw.nb)
    dominant = max(cycles, key=cycles.get)

    counts = count_ops(model_cfg, Convention.PAPER)
    # Removable time-encoding work: difference against the LUT variant.
    lut_counts = count_ops(model_cfg.with_(lut_time_encoder=True),
                           Convention.PAPER)
    te_share = 1.0 - lut_counts.total_macs / counts.total_macs \
        if not model_cfg.lut_time_encoder else 0.0
    state_words = counts.mems["memory"] + counts.mems["update"]
    return Characterization(
        bound="compute" if pred.t_comp_s >= pred.t_ls_s else "memory",
        dominant_stage=dominant,
        t_comp_s=pred.t_comp_s,
        t_ls_s=pred.t_ls_s,
        compute_margin=pred.t_comp_s / max(pred.t_ls_s, 1e-30),
        gnn_share_of_macs=counts.gnn_macs / counts.total_macs,
        time_encoding_share=te_share,
        state_traffic_share=state_words / counts.total_mems,
    )


def lever_analysis(base_cfg: ModelConfig, hw: HardwareConfig,
                   batch_size: int = 1000) -> list[dict]:
    """Marginal latency effect of each co-design lever, applied alone.

    Returns one row per lever with the predicted latency ratio vs. the
    given base config — a quantitative version of the §III design
    discussion, valid for any platform.
    """
    if not base_cfg.simplified_attention:
        # The performance model targets the co-designed datapath; start
        # from the SAT variant as the reference point.
        base_cfg = base_cfg.with_(simplified_attention=True)
    base = PerformanceModel(base_cfg, hw).predict(batch_size).latency_s
    levers = {
        "lut_encoder": base_cfg.with_(lut_time_encoder=True),
        "pruning_np_s": base_cfg.with_(pruning_budget=max(
            1, base_cfg.num_neighbors // 5)),
        "double_sg": None,      # hardware lever
        "double_bandwidth": None,
    }
    rows = []
    for name, cfg in levers.items():
        if cfg is not None:
            lat = PerformanceModel(cfg, hw).predict(batch_size).latency_s
        elif name == "double_sg":
            lat = PerformanceModel(base_cfg, hw.with_(sg=2 * hw.sg)) \
                .predict(batch_size).latency_s
        else:
            from ..hw.platforms import FPGAPlatform
            p = hw.platform
            fat = FPGAPlatform(name=p.name + "-2xbw", dies=p.dies,
                               luts_per_die=p.luts_per_die,
                               dsps_per_die=p.dsps_per_die,
                               brams_per_die=p.brams_per_die,
                               urams_per_die=p.urams_per_die,
                               ddr_bw_gbs=2 * p.ddr_bw_gbs,
                               memory_channels=p.memory_channels)
            lat = PerformanceModel(base_cfg, hw.with_(platform=fat)) \
                .predict(batch_size).latency_s
        rows.append({"lever": name, "latency_ratio": lat / base,
                     "helps": lat < base * 0.999})
    return rows
