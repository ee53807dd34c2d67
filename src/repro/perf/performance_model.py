"""Analytical performance model of the accelerator (§V, Eqs. 18-22).

Predicts pipeline period, throughput and latency from algorithm parameters
(model dimensions, neighbor budget), design configuration (``Sg``, ``SFAM``,
``SFTM``, ``Nb``, frequency) and memory characteristics (``alpha(l) * BW``).

Deliberately idealised, exactly as the paper's model is: no pipeline
fill/flush overhead, no DRAM refresh, no Updater stalls.  Those effects live
only in the cycle simulator, which is why predicted-vs-actual disagree by a
few-to-several percent (the Fig. 6 experiment, reproduced by
``repro.perf.validation``).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hw.config import HardwareConfig
from ..hw.memory_model import DDRModel
from ..hw.schedule import PIPELINE, compute_cycles, transfers
from ..models.config import ModelConfig

__all__ = ["PerformanceModel", "PerfPrediction"]


@dataclass(frozen=True)
class PerfPrediction:
    """Model outputs for one (design, batch-size) point."""

    tp_s: float             # pipeline period Tp (Eq. 18)
    t_comp_s: float         # T_comp^max (Eq. 19-20)
    t_ls_s: float           # T_LS (Eq. 21)
    throughput_eps: float   # Nb / Tp (Eq. 22)
    latency_s: float        # (beta - 1 + ceil(N / Nb)) * Tp (Eq. 22)
    batch_size: int


class PerformanceModel:
    """Closed-form predictor for a (model config, hardware config) pair."""

    def __init__(self, model_cfg: ModelConfig, hw: HardwareConfig):
        if not model_cfg.simplified_attention:
            raise ValueError("the performance model targets the co-designed "
                             "(simplified-attention) accelerator")
        self.cfg = model_cfg
        self.hw = hw
        self.ddr: DDRModel = hw.ddr(refresh=False)   # idealised memory
        self.beta = len(PIPELINE)       # pipeline depth: one per Fig. 4 row

    # ------------------------------------------------------------------ #
    def t_comp_max(self) -> float:
        """Eq. (19)-(20): the slowest compute stage's duration (seconds)."""
        cycles = compute_cycles(self.cfg, self.hw, self.hw.nb)
        return max(cycles.values()) * self.hw.clock_s

    def t_ls(self) -> float:
        """Eq. (21): total load/store time of one processing batch.

        The simulator's transfer inventory at idealised ``alpha(l) * BW``
        bandwidth with no fixed request latency and no refresh — the
        Section-V simplifications.
        """
        channels = max(1, self.hw.platform.memory_channels)
        bw = self.ddr.peak_bw_gbs * 1e9 / self.ddr.word_bytes  # words/s
        total = 0.0
        for x in transfers(self.cfg, self.hw.nb):
            t = x.rows * x.row_words / (bw * self.ddr.alpha(x.row_words))
            total += t / channels if x.striped else t
        return total

    def t_fill(self) -> float:
        """First-batch traversal time (pipeline fill).

        The paper's Eq. (22) charges ``(beta - 1) * Tp`` for the fill, which
        assumes all beta stages last a full period.  With the strongly
        unequal stage durations of this design (the GRU gates and the FTM
        dominate), that over-charges small batches badly, so we use the
        exact closed form instead: the serial traversal of one processing
        batch through loads, the compute chain, and the write-back.
        """
        cycles = compute_cycles(self.cfg, self.hw, self.hw.nb)
        return self.t_ls() + sum(cycles.values()) * self.hw.clock_s

    def pipeline_period(self) -> PerfPrediction:
        """Eq. (18): ``Tp = max(T_comp^max, T_LS)`` and derived steady rates."""
        t_comp = self.t_comp_max()
        t_ls = self.t_ls()
        tp = max(t_comp, t_ls)
        return PerfPrediction(tp_s=tp, t_comp_s=t_comp, t_ls_s=t_ls,
                              throughput_eps=self.hw.nb / tp,
                              latency_s=self.t_fill(),
                              batch_size=self.hw.nb)

    def predict(self, batch_size: int) -> PerfPrediction:
        """Eq. (22) with the refined fill: ``T_fill + (ceil(N/Nb) - 1) * Tp``."""
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        base = self.pipeline_period()
        n_pb = -(-batch_size // self.hw.nb)           # ceil(N / Nb)
        latency = self.t_fill() + (n_pb - 1) * base.tp_s
        # Throughput at batch size N saturates toward Nb/Tp as the fill
        # amortises — the shape of the Fig. 5/6 throughput curves.
        return PerfPrediction(tp_s=base.tp_s, t_comp_s=base.t_comp_s,
                              t_ls_s=base.t_ls_s,
                              throughput_eps=batch_size / latency,
                              latency_s=latency, batch_size=batch_size)
