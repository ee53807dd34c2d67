"""Memory updaters: the UPDT function of Eq. (1).

The paper's chosen variant is the GRU (gates per Eqs. 7-10) because
TGN-attn has "the highest accuracy to complexity ratio" among the memory
variants TGN benchmarks; we also provide the plain-RNN updater from that
benchmark family.  Both consume a vertex's cached raw message plus the time
encoding of the gap between the mail's timestamp and the vertex's previous
memory update, and both map onto the hardware MUU of §IV-B (the RNN uses a
single gate array).
"""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor, init
from ..autograd.module import GRUCell, Linear, Module, Parameter
from .config import ModelConfig

__all__ = ["GRUMemoryUpdater", "RNNMemoryUpdater"]


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

    def forward(self, raw_messages: np.ndarray, dt: np.ndarray,
                memory: np.ndarray) -> Tensor:
        """Update memory for ``n`` vertices.

        Parameters
        ----------
        raw_messages: ``(n, raw_message_dim)`` cached mail payloads.
        dt: ``(n,)`` mail timestamp minus previous memory-update timestamp
            (clipped at zero by the caller).
        memory: ``(n, memory_dim)`` previous memory ``s``.
        """
        phi = self.time_encoder(np.asarray(dt, dtype=np.float64))
        m = Tensor.concat([Tensor(np.asarray(raw_messages, dtype=np.float64)),
                           phi], axis=-1)
        return self.gru(m, Tensor(np.asarray(memory, dtype=np.float64)))

    # ------------------------------------------------------------------ #
    def forward_numpy(self, raw_messages: np.ndarray, dt: np.ndarray,
                      memory: np.ndarray,
                      time_features: np.ndarray | None = None) -> np.ndarray:
        """Graph-free inference path, bit-compatible with :meth:`forward`.

        ``time_features`` lets a caller supply pre-computed (e.g. LUT)
        encodings; otherwise the shared encoder is invoked.
        """
        if time_features is None:
            time_features = self.time_encoder.encode_numpy(
                np.asarray(dt, dtype=np.float64))
        m = np.concatenate([raw_messages, time_features], axis=1)
        gi = m @ self.gru.weight_ih.data.T + self.gru.bias_ih.data
        return self._gates(gi, memory)

    def forward_numpy_premul(self, raw_messages: np.ndarray,
                             bins: np.ndarray, premul_table: np.ndarray,
                             w_raw: np.ndarray,
                             memory: np.ndarray) -> np.ndarray:
        """LUT fast path: the time slice of ``W_ih @ input`` is one lookup
        and ``w_raw`` is the packed :meth:`input_raw_weight`."""
        gi = raw_messages @ w_raw.T + premul_table[bins] + self.gru.bias_ih.data
        return self._gates(gi, memory)

    def input_time_weight(self) -> np.ndarray:
        """Time-encoding slice of the stacked input weights (for premult)."""
        return self.gru.weight_ih.data[:, -self.cfg.time_dim:]

    def input_raw_weight(self) -> np.ndarray:
        """Contiguous copy of the raw-message slice (packed once at prepare)."""
        return np.ascontiguousarray(
            self.gru.weight_ih.data[:, :-self.cfg.time_dim])

    def _gates(self, gi: np.ndarray, memory: np.ndarray) -> np.ndarray:
        h = self.cfg.memory_dim
        gh = memory @ self.gru.weight_hh.data.T + self.gru.bias_hh.data
        r = _sigmoid(gi[:, 0:h] + gh[:, 0:h])
        z = _sigmoid(gi[:, h:2 * h] + gh[:, h:2 * h])
        n = np.tanh(gi[:, 2 * h:3 * h] + r * gh[:, 2 * h:3 * h])
        return (1.0 - z) * n + z * memory


class RNNMemoryUpdater(Module):
    """Vanilla-RNN updater: ``s' = tanh(W_i [m || Phi(dt)] + W_h s + b)``.

    One third of the GRU's gate compute; the TGN paper reports slightly
    lower accuracy.  Shares the LUT premultiplication interface with the
    GRU so every co-design optimization applies unchanged.
    """

    def __init__(self, cfg: ModelConfig, time_encoder: Module,
                 rng: np.random.Generator | None = None):
        super().__init__()
        self.cfg = cfg
        self.time_encoder = time_encoder
        self.w_ih = Parameter(init.glorot_uniform(cfg.memory_dim,
                                                  cfg.message_dim, rng=rng))
        self.w_hh = Parameter(init.glorot_uniform(cfg.memory_dim,
                                                  cfg.memory_dim, rng=rng))
        self.bias = Parameter(np.zeros(cfg.memory_dim))

    def forward(self, raw_messages: np.ndarray, dt: np.ndarray,
                memory: np.ndarray) -> Tensor:
        phi = self.time_encoder(np.asarray(dt, dtype=np.float64))
        m = Tensor.concat([Tensor(np.asarray(raw_messages, dtype=np.float64)),
                           phi], axis=-1)
        s = Tensor(np.asarray(memory, dtype=np.float64))
        return (m @ self.w_ih.T + s @ self.w_hh.T + self.bias).tanh()

    def forward_numpy(self, raw_messages: np.ndarray, dt: np.ndarray,
                      memory: np.ndarray,
                      time_features: np.ndarray | None = None) -> np.ndarray:
        if time_features is None:
            time_features = self.time_encoder.encode_numpy(
                np.asarray(dt, dtype=np.float64))
        m = np.concatenate([raw_messages, time_features], axis=1)
        return np.tanh(m @ self.w_ih.data.T + memory @ self.w_hh.data.T
                       + self.bias.data)

    def forward_numpy_premul(self, raw_messages: np.ndarray,
                             bins: np.ndarray, premul_table: np.ndarray,
                             w_raw: np.ndarray,
                             memory: np.ndarray) -> np.ndarray:
        return np.tanh(raw_messages @ w_raw.T + premul_table[bins]
                       + memory @ self.w_hh.data.T + self.bias.data)

    def input_time_weight(self) -> np.ndarray:
        return self.w_ih.data[:, -self.cfg.time_dim:]

    def input_raw_weight(self) -> np.ndarray:
        return np.ascontiguousarray(self.w_ih.data[:, :-self.cfg.time_dim])


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Stable logistic matching Tensor.sigmoid exactly."""
    ax = np.abs(x)
    e = np.exp(-ax)
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
