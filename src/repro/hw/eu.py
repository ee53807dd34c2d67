"""Embedding Unit (EU): attention + aggregation + transform (§IV-B).

Three modules, pipelined:

* **AM** (Attention Module) — Eq. (16) logits from the Δt list, softmax over
  the top-``budget`` entries.  Crucially this runs *before* any neighbor
  state arrives, which is what licenses the prefetch of §IV-C.
* **FAM** (Feature Aggregation Module) — multiply-add tree with ``SFAM``
  lanes.  Because the value map is affine, the hardware aggregates the *raw*
  neighbor vectors first (``sum_j alpha_j [f_j || e_j || Phi_j]``) and
  applies the weight matrix once per node in the FTM — mathematically
  identical to per-neighbor values (linearity), linearly cheaper in MACs.
* **FTM** (Feature Transformation Module) — ``SFTM`` MAC array applying the
  value weights to the aggregate and the output transform to
  ``[h || f'_i]``.

Timing only; functional results come from the shared model kernels.
"""

from __future__ import annotations

from ..models.config import ModelConfig
from .config import HardwareConfig

__all__ = ["EmbeddingUnit", "EU_STAGES"]

EU_STAGES = ("eu_attention", "eu_time_enc", "eu_fam", "eu_ftm")


class EmbeddingUnit:
    """Timing model of one CU's EU."""

    def __init__(self, model_cfg: ModelConfig, hw: HardwareConfig):
        self.cfg = model_cfg
        self.hw = hw

    def stage_cycles(self, n_nodes: int) -> dict[str, int]:
        cfg, hw = self.cfg, self.hw
        m, tau, e = cfg.memory_dim, cfg.time_dim, cfg.embed_dim
        ef, nf = cfg.edge_dim, cfg.node_dim
        k = cfg.num_neighbors
        keff = cfg.effective_neighbors
        feat = m + ef + (0 if cfg.lut_time_encoder else tau) + (nf and m)
        # AM: one W_t row per cycle (k MAC lanes) + softmax/top-k scan.
        am = n_nodes * k + n_nodes * _ceil(k, hw.commit_scan)
        # Time encoding for the surviving neighbors.
        if cfg.lut_time_encoder:
            te = n_nodes * keff                    # 1 lookup per neighbor
        else:
            te = _ceil(n_nodes * keff * tau, hw.s_fam)
        # FAM: alpha-weighted aggregation of raw neighbor vectors.
        fam = _ceil(n_nodes * keff * (feat + (tau if cfg.lut_time_encoder else 0)),
                    hw.s_fam)
        # FTM: value weights on the aggregate + output transform.
        kv_in = m + ef + tau + (nf and m)
        ftm = _ceil(n_nodes * (kv_in * e + (e + m) * e), hw.sftm2)
        return {"eu_attention": int(am), "eu_time_enc": int(te),
                "eu_fam": int(fam), "eu_ftm": int(ftm)}


def _ceil(a: int, b: int) -> int:
    return -(-int(a) // int(b))
