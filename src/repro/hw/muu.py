"""Memory Update Unit (MUU): the GRU mapped onto Sg x Sg MAC arrays (§IV-B).

The MUU implements UPDT as four pipelined gates — Update, Reset, Memory,
Merging — connected by on-chip FIFOs.  Each of the three matrix gates owns an
``Sg x Sg`` multiply-accumulate array; the merging gate is element-wise.
The model has one updater, the GRU of :mod:`repro.models.memory_updater`,
so every memory update keeps all three gate arrays busy.

Timing only (cycles per pipeline stage for a given node count); functional
results come from the shared model kernels.
"""

from __future__ import annotations

from ..models.config import ModelConfig
from .config import HardwareConfig
from .eu import _ceil

__all__ = ["MemoryUpdateUnit", "MUU_STAGES"]

MUU_STAGES = ("muu_time_enc", "muu_update_gate", "muu_reset_gate",
              "muu_memory_gate", "muu_merge_gate")


class MemoryUpdateUnit:
    """Timing model of one CU's MUU."""

    def __init__(self, model_cfg: ModelConfig, hw: HardwareConfig):
        self.cfg = model_cfg
        self.hw = hw

    def stage_cycles(self, n_nodes: int) -> dict[str, int]:
        """Cycles per MUU pipeline stage to update ``n_nodes`` memories.

        Gate stages process ``Sg^2`` MACs per cycle over the input product
        (``msg x mem``) and hidden product (``mem x mem``).  With the LUT
        encoder, the time-feature slice of the input product is replaced by
        one table lookup per node (1 cycle each, fully pipelined) and the
        encoding stage itself disappears into that lookup.
        """
        cfg, hw = self.cfg, self.hw
        m, tau = cfg.memory_dim, cfg.time_dim
        msg = cfg.message_dim
        if cfg.lut_time_encoder:
            te = n_nodes                       # one premultiplied lookup/node
            gate_in = (msg - tau) * m          # time slice folded into LUT
        else:
            te = _ceil(n_nodes * tau, hw.sg2)  # omega*dt + phi, cos in LUT/DSP
            gate_in = msg * m
        gate = _ceil(n_nodes * (gate_in + m * m), hw.sg2)
        merge = _ceil(n_nodes * 4 * m, hw.sg)  # element-wise lanes
        return {
            "muu_time_enc": te,
            "muu_update_gate": gate,
            "muu_reset_gate": gate,
            "muu_memory_gate": gate,
            "muu_merge_gate": merge,
        }
