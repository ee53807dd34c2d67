"""The memory updater: the UPDT function of Eq. (1).

The paper's runtime has one updater, the GRU (gates per Eqs. 7-10), because
TGN-attn has "the highest accuracy to complexity ratio" among the memory
variants TGN benchmarks.  It consumes a vertex's cached raw message plus
the time encoding of the gap between the mail's timestamp and the vertex's
previous memory update, and maps onto the hardware MUU of §IV-B
(:mod:`repro.hw.muu`).

The updater has one ``forward``, which serves training and — under
``no_grad`` — deployment.  Only the input product ``W_i [m || Phi(dt)]``
is formed two ways (:meth:`GRUMemoryUpdater.input_product`): from the
encoder's output, or, given the ``premul`` tables of
``TGNN.prepare_inference``, with the time slice as one LUT read (§III-C).
"""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor
from ..autograd.module import GRUCell, Module
from .config import ModelConfig

__all__ = ["GRUMemoryUpdater"]


class GRUMemoryUpdater(Module):
    """``s' = GRU(m || Phi(dt), s)`` over a batch of vertices.

    The time encoder is shared with the attention aggregator (as in TGN) and
    injected by the parent model.
    """

    def __init__(self, cfg: ModelConfig, time_encoder: Module,
                 rng: np.random.Generator | None = None):
        super().__init__()
        self.cfg = cfg
        self.time_encoder = time_encoder
        self.gru = GRUCell(cfg.message_dim, cfg.memory_dim, rng=rng)

    def input_product(self, raw_messages: np.ndarray, dt: np.ndarray,
                      premul: dict | None = None) -> Tensor:
        """``W_i [m || Phi(dt)]`` for ``n`` vertices (no bias).

        ``raw_messages`` is ``(n, raw_message_dim)`` cached mail and ``dt``
        ``(n,)`` mail timestamp minus previous memory-update timestamp
        (clipped at zero by the caller).  With ``premul`` the time slice of
        the product is the premultiplied LUT row ``premul["updt"][bin]`` and
        the raw slice multiplies the packed ``premul["updt_raw"]``.
        """
        raw = Tensor(raw_messages)
        if premul is None:
            return Tensor.concat([raw, self.time_encoder(dt)],
                                 axis=-1) @ self.gru.weight_ih.T
        return (raw @ premul["updt_raw"].T
                + premul["updt"][self.time_encoder.bin_index(dt)])

    def input_time_weight(self) -> np.ndarray:
        """Time-encoding slice of the input weights (for premultiplication)."""
        return self.gru.weight_ih.data[:, -self.cfg.time_dim:]

    def input_raw_weight(self) -> np.ndarray:
        """Contiguous copy of the raw-message slice (packed once at prepare)."""
        return np.ascontiguousarray(
            self.gru.weight_ih.data[:, :-self.cfg.time_dim])

    def forward(self, raw_messages: np.ndarray, dt: np.ndarray,
                memory: np.ndarray, premul: dict | None = None) -> Tensor:
        """Update ``(n, memory_dim)`` previous memory ``s``."""
        gi = self.input_product(raw_messages, dt, premul) + self.gru.bias_ih
        return self.gru.gates(gi, Tensor(memory))
