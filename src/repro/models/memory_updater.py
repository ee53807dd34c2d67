"""Memory updaters: the UPDT function of Eq. (1).

The paper's chosen variant is the GRU (gates per Eqs. 7-10) because
TGN-attn has "the highest accuracy to complexity ratio" among the memory
variants TGN benchmarks; we also provide the plain-RNN updater from that
benchmark family.  Both consume a vertex's cached raw message plus the time
encoding of the gap between the mail's timestamp and the vertex's previous
memory update, and both map onto the hardware MUU of §IV-B (the RNN uses a
single gate array).

Each updater has one ``forward``, which serves training and — under
``no_grad`` — deployment.  The two differ only in how the input product
``W_i [m || Phi(dt)]`` is formed (:meth:`_Updater.input_product`): from the
encoder's output, or, given the ``premul`` tables of
``TGNN.prepare_inference``, with the time slice as one LUT read (§III-C).
"""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor, init
from ..autograd.module import GRUCell, Module, Parameter
from .config import ModelConfig

__all__ = ["GRUMemoryUpdater", "RNNMemoryUpdater"]


class _Updater(Module):
    """What the updaters share: the input weights ``w_ih`` and their product
    with ``[m || Phi(dt)]``.

    The time encoder is shared with the attention aggregator (as in TGN) and
    injected by the parent model.
    """

    w_ih: Parameter

    def __init__(self, cfg: ModelConfig, time_encoder: Module):
        super().__init__()
        self.cfg = cfg
        self.time_encoder = time_encoder

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
                                 axis=-1) @ self.w_ih.T
        return (raw @ premul["updt_raw"].T
                + premul["updt"][self.time_encoder.bin_index(dt)])

    def input_time_weight(self) -> np.ndarray:
        """Time-encoding slice of the input weights (for premultiplication)."""
        return self.w_ih.data[:, -self.cfg.time_dim:]

    def input_raw_weight(self) -> np.ndarray:
        """Contiguous copy of the raw-message slice (packed once at prepare)."""
        return np.ascontiguousarray(self.w_ih.data[:, :-self.cfg.time_dim])


class GRUMemoryUpdater(_Updater):
    """``s' = GRU(m || Phi(dt), s)`` over a batch of vertices."""

    def __init__(self, cfg: ModelConfig, time_encoder: Module,
                 rng: np.random.Generator | None = None):
        super().__init__(cfg, time_encoder)
        self.gru = GRUCell(cfg.message_dim, cfg.memory_dim, rng=rng)

    @property
    def w_ih(self) -> Parameter:
        return self.gru.weight_ih

    def forward(self, raw_messages: np.ndarray, dt: np.ndarray,
                memory: np.ndarray, premul: dict | None = None) -> Tensor:
        """Update ``(n, memory_dim)`` previous memory ``s``."""
        gi = self.input_product(raw_messages, dt, premul) + self.gru.bias_ih
        return self.gru.gates(gi, Tensor(memory))


class RNNMemoryUpdater(_Updater):
    """Vanilla-RNN updater: ``s' = tanh(W_i [m || Phi(dt)] + W_h s + b)``.

    One third of the GRU's gate compute; the TGN paper reports slightly
    lower accuracy.  Shares the input product, and with it the LUT
    premultiplication, with the GRU so every co-design optimization applies
    unchanged.
    """

    def __init__(self, cfg: ModelConfig, time_encoder: Module,
                 rng: np.random.Generator | None = None):
        super().__init__(cfg, time_encoder)
        self.w_ih = Parameter(init.glorot_uniform(cfg.memory_dim,
                                                  cfg.message_dim, rng=rng))
        self.w_hh = Parameter(init.glorot_uniform(cfg.memory_dim,
                                                  cfg.memory_dim, rng=rng))
        self.bias = Parameter(np.zeros(cfg.memory_dim))

    def forward(self, raw_messages: np.ndarray, dt: np.ndarray,
                memory: np.ndarray, premul: dict | None = None) -> Tensor:
        return (self.input_product(raw_messages, dt, premul)
                + Tensor(memory) @ self.w_hh.T + self.bias).tanh()
