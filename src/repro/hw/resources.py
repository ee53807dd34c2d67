"""FPGA resource estimator (Table IV reproduction).

Counts DSPs, BRAM36s, URAM288s and logic LUTs for a (model, design) pair
using the paper's stated cost basis: with IEEE float32, a multiplier costs
3 DSPs and an accumulator 2 DSPs (§VI-A); a BRAM is 36 Kb and a URAM 288 Kb.

Structural accounting:

* **DSP** — each CU instantiates dual endpoint lanes (Algorithm 1 updates
  ``u`` and ``v`` concurrently), each lane holding the three ``Sg x Sg`` MUU
  gate arrays, the ``SFAM``-lane aggregation tree, the ``SFTM`` transform
  array, and the small AM dot-product row.
* **BRAM/URAM** — pre-multiplied LUT time-encoder tables, inter-module
  FIFOs, the Updater's cache lines, double-buffered staging for a processing
  batch, and (when the platform has URAM) a hot-vertex cache sized to the
  available budget.
* **LUT** — affine model in DSPs and memory blocks calibrated on the two
  published design points (HLS float32 datapaths dominate logic usage).

The estimator is intentionally analytic — it exists to reproduce Table IV
and to drive design-space exploration, not to replace synthesis.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..models.config import ModelConfig
from .config import HardwareConfig

__all__ = ["ResourceEstimate", "estimate_resources"]

BRAM_BYTES = 36 * 1024 // 8       # one BRAM36 in bytes
URAM_BYTES = 288 * 1024 // 8      # one URAM288 in bytes
DSP_PER_MUL = 3                   # float32 multiplier (§VI-A)
DSP_PER_ACC = 2                   # float32 accumulator (§VI-A)

# Multi-die boards dedicate part of their on-chip memory to a hot-vertex
# cache (memory + mailbox rows); fractions calibrated on the published U200
# design point (1415 BRAM / 448 URAM).
CACHE_BRAM_FRAC = 0.55
CACHE_URAM_FRAC = 0.45

# Logic-LUT affine calibration (fit to the two Table IV design points).
LUT_PER_CU = 48_000
LUT_PER_DSP = 150
LUT_PER_MEMBLOCK = 24


@dataclass(frozen=True)
class ResourceEstimate:
    """Estimated utilization plus feasibility against the platform budget."""

    lut: int
    dsp: int
    bram: int
    uram: int
    fits: bool
    detail: dict[str, dict[str, int]]

    def utilization(self, hw: HardwareConfig) -> dict[str, float]:
        p = hw.platform
        return {"lut": self.lut / p.total_luts,
                "dsp": self.dsp / p.total_dsps,
                "bram": self.bram / p.total_brams,
                "uram": self.uram / p.total_urams if p.total_urams else 0.0}


def estimate_resources(model_cfg: ModelConfig,
                       hw: HardwareConfig) -> ResourceEstimate:
    """Estimate the accelerator's resource footprint.

    The on-chip hot-vertex cache takes ~70 % of the platform's URAM budget
    (zero rows on URAM-less parts).
    """
    m, tau, e = model_cfg.memory_dim, model_cfg.time_dim, model_cfg.embed_dim
    ef = model_cfg.edge_dim
    k = model_cfg.num_neighbors
    msg = model_cfg.raw_message_dim
    zd = hw.word_bytes

    # ---- DSP ------------------------------------------------------------- #
    mac = DSP_PER_MUL + DSP_PER_ACC
    muu = 3 * hw.sg2 * mac
    fam = hw.s_fam * DSP_PER_MUL + (hw.s_fam - 1) * DSP_PER_ACC
    ftm = hw.sftm2 * mac
    am = k * mac                                     # W_t row dot product
    dsp_per_cu = muu + fam + ftm + am
    dsp = hw.n_cu * dsp_per_cu

    # ---- on-chip memory --------------------------------------------------- #
    def brams(nbytes: float) -> int:
        return -(-int(nbytes) // BRAM_BYTES)

    lut_tables = 0
    if model_cfg.lut_time_encoder:
        # Pre-multiplied tables: GRU input-gate slice (3m) + value slice (e),
        # replicated per CU for single-cycle private access.
        lut_tables = hw.n_cu * brams(model_cfg.lut_bins * (3 * m + e) * zd)
    fifo_bram = hw.n_cu * 12 * 2                     # ~12 FIFOs x 2 BRAM
    updater_bram = brams(hw.updater_lines * (msg + m + 2) * zd)
    edge_buf = brams(2 * hw.nb * (3 + ef) * zd)      # double-buffered edges
    staging = 2 * hw.nb * 2 * model_cfg.effective_neighbors * (m + ef) * zd
    misc_bram = hw.n_cu * 8                          # control, width adapters

    uram = 0
    staging_bram = 0
    cache_bram = 0
    platform = hw.platform
    # Multi-die, URAM-rich boards (U200 class) bank a hot-vertex cache across
    # both memory types; embedded single-die parts keep the design URAM-free
    # (the published ZCU104 point uses 0 URAM).
    rich = platform.dies > 1 and platform.total_urams >= 300
    if rich:
        budget = (int(CACHE_BRAM_FRAC * platform.total_brams) * BRAM_BYTES
                  + int(CACHE_URAM_FRAC * platform.total_urams) * URAM_BYTES)
        vertex_cache_rows = budget // ((m + msg) * zd)
        cache_bytes = vertex_cache_rows * (m + msg) * zd
        uram_budget = int(CACHE_URAM_FRAC * platform.total_urams) * URAM_BYTES
        in_uram = min(cache_bytes, uram_budget)
        cache_bram = brams(cache_bytes - in_uram)
        uram = -(-int(in_uram + staging) // URAM_BYTES)
    else:
        vertex_cache_rows = 0
        staging_bram = brams(staging)

    bram = (lut_tables + fifo_bram + updater_bram + edge_buf + staging_bram
            + cache_bram + misc_bram)

    # ---- logic ------------------------------------------------------------ #
    lut = (LUT_PER_CU * hw.n_cu + LUT_PER_DSP * dsp
           + LUT_PER_MEMBLOCK * (bram + uram))

    detail = {
        "dsp": {"muu_per_lane": muu, "fam_per_lane": fam,
                "ftm_per_lane": ftm, "am_per_lane": am,
                "per_cu": dsp_per_cu},
        "bram": {"lut_tables": lut_tables, "fifos": fifo_bram,
                 "updater": updater_bram, "edge_buffer": edge_buf,
                 "staging": staging_bram, "vertex_cache": cache_bram,
                 "misc": misc_bram},
        "uram": {"vertex_cache_rows": vertex_cache_rows, "total": uram},
    }
    fits = platform.fits(lut, dsp, bram, uram)
    return ResourceEstimate(lut=int(lut), dsp=int(dsp), bram=int(bram),
                            uram=int(uram), fits=fits, detail=detail)
