"""Calibrated cost models for the CPU / GPU baselines.

This is the documented hardware substitution (DESIGN.md §1): we have neither
the dual Xeon Gold 5120 nor the Titan Xp, so cross-platform comparisons use
analytic cost models of the form

    latency(N) = T_batch + N * (2 * MACs_per_emb * t_mac
                                + 2 * MEMs_per_emb * t_word)

i.e. a fixed per-batch framework overhead (kernel-launch stack, Python
dispatch, synchronisation — the term that dominates small batches and gives
GPUs their flat low-batch latency curves) plus roofline-style marginal cost
proportional to the model's operation counts.

Calibration anchors come from the paper's own measurements (Fig. 5 / Fig. 7
operating points for the 32-thread CPU and the GPU): CPU ~64 ms and GPU
~8 ms at batch 200 on Wikipedia, saturating near ~6.5 kE/s and ~60 kE/s
respectively.  Because marginal cost scales with op counts, the same model
prices every TGNN variant (baseline, simplified, APAN) consistently.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..profiling.op_counter import OpCounts

__all__ = ["GPPCostModel", "CPU_32T", "GPU"]


@dataclass(frozen=True)
class GPPCostModel:
    """Batch-latency model of a general-purpose platform (its sustained
    throughput at batch ``n`` is ``n / latency_s(counts, n)``)."""

    name: str
    batch_overhead_s: float      # fixed per-batch framework cost
    per_mac_s: float             # marginal seconds per MAC
    per_word_s: float            # marginal seconds per memory word
    overhead_scale_no_sample: float = 0.6
    # APAN-style models launch fewer kernels (no sampler / neighbor fetch);
    # their fixed overhead shrinks by this factor.

    def marginal_edge_s(self, counts: OpCounts) -> float:
        """Marginal cost of one edge (two dynamic node embeddings)."""
        return 2.0 * (counts.total_macs * self.per_mac_s
                      + counts.total_mems * self.per_word_s)

    def latency_s(self, counts: OpCounts, batch_edges: int,
                  light_runtime: bool = False) -> float:
        """End-to-end latency of one batch of ``batch_edges`` new edges."""
        if batch_edges <= 0:
            raise ValueError("batch_edges must be positive")
        overhead = self.batch_overhead_s
        if light_runtime:
            overhead *= self.overhead_scale_no_sample
        return overhead + batch_edges * self.marginal_edge_s(counts)

    def part_times_s(self, counts: OpCounts, fixed_part_s: dict[str, float]
                     ) -> dict[str, float]:
        """Per-part times per embedding (Table I column structure).

        Compute-dominated parts follow the MAC rate, memory-dominated parts
        the word rate; ``fixed_part_s`` adds per-part dispatch floors (the
        sample/update parts are dominated by them on GPPs — the paper's
        "update is the bottleneck on parallel machines" observation).
        """
        out = {}
        for part in counts.macs:
            out[part] = (counts.macs[part] * self.per_mac_s
                         + counts.mems[part] * self.per_word_s
                         + fixed_part_s.get(part, 0.0))
        return out


def _calibrated(name: str, latency_at_200_s: float, plateau_keps: float,
                compute_fraction: float, macs_per_emb: float,
                words_per_emb: float) -> GPPCostModel:
    """Solve (T_batch, t_mac, t_word) from two published operating points.

    ``plateau_keps`` fixes the marginal per-edge cost; the batch-200 latency
    then fixes the overhead.  ``compute_fraction`` splits the marginal cost
    between the MAC and memory rails.
    """
    marginal = 1.0 / (plateau_keps * 1e3)            # s per edge at plateau
    per_mac = compute_fraction * marginal / (2.0 * macs_per_emb)
    per_word = (1.0 - compute_fraction) * marginal / (2.0 * words_per_emb)
    overhead = latency_at_200_s - 200.0 * marginal
    if overhead <= 0:
        raise ValueError(f"{name}: anchors imply non-positive overhead")
    return GPPCostModel(name=name, batch_overhead_s=overhead,
                        per_mac_s=per_mac, per_word_s=per_word)


# Baseline TGN-attn op counts on Wikipedia dims (the calibration workload).
_BASE_MACS = 835.5e3
_BASE_WORDS = 5.7e3

# Anchors from Fig. 5 / Fig. 7 (Wikipedia, baseline TGN):
#   CPU (32 threads): ~64 ms at batch 200, plateau ~6.5 kE/s.
#   GPU (Titan Xp):   ~8 ms at batch 200, plateau ~60 kE/s.
CPU_32T = _calibrated("cpu-32t", latency_at_200_s=64e-3, plateau_keps=6.5,
                      compute_fraction=0.6, macs_per_emb=_BASE_MACS,
                      words_per_emb=_BASE_WORDS)
GPU = _calibrated("gpu", latency_at_200_s=8e-3, plateau_keps=60.0,
                  compute_fraction=0.7, macs_per_emb=_BASE_MACS,
                  words_per_emb=_BASE_WORDS)
