"""Temporal attention aggregators: vanilla (Eqs. 11-15) and simplified (Eq. 16).

Both consume a batch of query vertices with ``k`` timestamp-sorted temporal
neighbors and produce (aggregated hidden state, per-neighbor attention
logits).  The logits are exposed because knowledge distillation (Eq. 17)
aligns the student's Eq.-(16) logits with the teacher's qK logits.

Scaling note: Eq. (16)'s ``W_t`` acts on raw Δt.  We feed Δt in **days**
(``DT_SCALE``); this is an exact reparameterisation (absorb the constant into
``W_t``) that keeps optimisation well-conditioned for second-resolution
streams.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..autograd import Tensor
from ..autograd import functional as F
from ..autograd.module import Linear, Module, Parameter
from .config import ModelConfig

__all__ = ["AttentionOutput", "VanillaTemporalAttention",
           "SimplifiedTemporalAttention", "DT_SCALE"]

DT_SCALE = 1.0 / 86_400.0  # seconds -> days


@dataclass
class AttentionOutput:
    """Result of one attention aggregation over a node batch."""

    hidden: Tensor            # (n, embed_dim) aggregated neighborhood state
    logits: Tensor            # (n, k) pre-softmax attention logits (full list)
    mask: np.ndarray          # (n, k) valid-neighbor mask
    selected: np.ndarray      # (n, k) post-pruning mask (== mask when no NP)


class VanillaTemporalAttention(Module):
    """Transformer-style temporal attention of TGN-attn (Eqs. 11-15).

    ``q = W_q [f'_i || Phi(0)]``, ``K/V = W_{k/v} [f'_j || e_ij || Phi(dt)]``,
    ``h = softmax(q K^T / sqrt(k)) V``.  The query/key computation is the
    half of the GNN compute that the simplified mechanism eliminates.
    """

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator | None = None):
        super().__init__()
        self.cfg = cfg
        kv_in = cfg.memory_dim + cfg.edge_dim + cfg.time_dim
        q_in = cfg.memory_dim + cfg.time_dim
        self.w_q = Linear(q_in, cfg.embed_dim, rng=rng)
        self.w_k = Linear(kv_in, cfg.embed_dim, rng=rng)
        self.w_v = Linear(kv_in, cfg.embed_dim, rng=rng)

    def forward(self, query_feat: Tensor, nbr_feat: Tensor,
                edge_feat: np.ndarray, time_enc: Tensor,
                time_enc_zero: Tensor, mask: np.ndarray) -> AttentionOutput:
        """Aggregate ``k`` neighbors for ``n`` query vertices.

        Shapes: ``query_feat (n, d_mem)``, ``nbr_feat (n, k, d_mem)``,
        ``edge_feat (n, k, d_ef)``, ``time_enc (n, k, d_time)``,
        ``time_enc_zero (n, d_time)``, ``mask (n, k)`` bool.
        """
        n, k = mask.shape
        q = self.w_q(Tensor.concat([query_feat, time_enc_zero], axis=-1))
        kv_in = Tensor.concat([nbr_feat, Tensor(edge_feat), time_enc], axis=-1)
        keys = self.w_k(kv_in)                        # (n, k, E)
        values = self.w_v(kv_in)                      # (n, k, E)
        logits = (keys * q.reshape(n, 1, self.cfg.embed_dim)).sum(axis=-1)
        logits = logits * (1.0 / np.sqrt(k))
        alpha = F.masked_softmax(logits, mask, axis=-1)
        hidden = (alpha.reshape(n, k, 1) * values).sum(axis=1)
        return AttentionOutput(hidden=hidden, logits=logits, mask=mask,
                               selected=mask.copy())


class SimplifiedTemporalAttention(Module):
    """The co-designed light-weight attention of Eq. (16).

    ``alpha' = Softmax(a + W_t . dt)`` with a shared learnable logit vector
    ``a`` (length k) and a learnable ``(k, k)`` map ``W_t`` from the node's
    Δt list to logit offsets.  No queries, no keys: logits depend on
    timestamps only, which (a) halves GNN compute and (b) lets hardware
    resolve *which* neighbors matter before fetching any of their state —
    enabling both pruning and prefetching.
    """

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator | None = None):
        super().__init__()
        self.cfg = cfg
        k = cfg.num_neighbors
        kv_in = cfg.memory_dim + cfg.edge_dim + cfg.time_dim
        self.attn_bias = Parameter(np.zeros(k))             # `a` in Eq. (16)
        self.w_t = Linear(k, k, rng=rng)                    # `W_t` in Eq. (16)
        self.w_v = Linear(kv_in, cfg.embed_dim, rng=rng)

    def logits_from_dt(self, dt_scaled: np.ndarray | Tensor) -> Tensor:
        """Eq. (16) logits from the Δt list alone (pre-fetch decision)."""
        dt = dt_scaled if isinstance(dt_scaled, Tensor) else Tensor(dt_scaled)
        return self.w_t(dt) + self.attn_bias

    @staticmethod
    def aggregate(alpha: Tensor, feat: Tensor) -> Tensor:
        """FAM: ``sum_j alpha_j feat_j`` — ``(n, p)``, ``(n, p, d) -> (n, d)``.

        ``feat`` is already gathered down to the pruning budget ``p`` columns
        (see :func:`repro.models.pruning.prune`).  Padded slots
        need no zeroing: ``alpha`` is exactly 0 there.
        """
        n, p = alpha.shape
        return (alpha.reshape(n, 1, p) @ feat).reshape(n, feat.shape[-1])

    def transform(self, alpha: Tensor, nbr: Tensor, edge: Tensor,
                  time: Tensor, premul: dict | None = None) -> Tensor:
        """FTM: ``W_v`` once per node, on the :meth:`aggregate` sums.

        The value map is affine and ``alpha`` depends on Δt only, so
        aggregating the raw neighbor vectors first and transforming the
        aggregate is exact — the Embedding Unit's own order
        (:mod:`repro.hw.eu`), ``keff`` times fewer MACs than per-neighbor
        values.  What pruning saves is gathers plus aggregation, as in the
        paper's MEM column; the ``W_v`` product does not depend on the
        budget.

        ``time`` aggregates ``Phi(dt)``, width ``time_dim``.  With ``premul``
        (the tables of ``TGNN.prepare_inference``) it aggregates the
        premultiplied LUT rows ``premul["attn_v"]`` instead, which are
        already in value space, and the raw features multiply the packed
        ``premul["attn_raw"]``.  The bias is scaled by ``sum(alpha)``: 0 for
        a row with no valid neighbor, whose hidden state is therefore
        exactly 0.
        """
        bias = alpha.sum(axis=1, keepdims=True) * self.w_v.bias
        if premul is None:
            return (Tensor.concat([nbr, edge, time], axis=1)
                    @ self.w_v.weight.T + bias)
        return (Tensor.concat([nbr, edge], axis=1) @ premul["attn_raw"].T
                + time + bias)
