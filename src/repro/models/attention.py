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
from .pruning import top_k_mask

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
                time_enc_zero: Tensor, mask: np.ndarray,
                dt_scaled: np.ndarray | None = None) -> AttentionOutput:
        """Aggregate ``k`` neighbors for ``n`` query vertices.

        Shapes: ``query_feat (n, d_mem)``, ``nbr_feat (n, k, d_mem)``,
        ``edge_feat (n, k, d_ef)``, ``time_enc (n, k, d_time)``,
        ``time_enc_zero (n, d_time)``, ``mask (n, k)`` bool.
        ``dt_scaled`` is accepted (and ignored) for interface parity.
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

    # -- fast inference ---------------------------------------------------- #
    def forward_numpy(self, query_feat: np.ndarray, nbr_feat: np.ndarray,
                      edge_feat: np.ndarray, time_enc: np.ndarray,
                      time_enc_zero: np.ndarray, mask: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
        """Graph-free path returning ``(hidden, logits)``."""
        n, k = mask.shape
        q = (np.concatenate([query_feat, time_enc_zero], axis=1)
             @ self.w_q.weight.data.T + self.w_q.bias.data)
        kv_in = np.concatenate([nbr_feat, edge_feat, time_enc], axis=2)
        keys = kv_in @ self.w_k.weight.data.T + self.w_k.bias.data
        values = kv_in @ self.w_v.weight.data.T + self.w_v.bias.data
        logits = np.einsum("nke,ne->nk", keys, q) / np.sqrt(k)
        alpha = _masked_softmax_np(logits, mask)
        hidden = np.einsum("nk,nke->ne", alpha, values)
        return hidden, logits


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

    def forward(self, query_feat: Tensor, nbr_feat: Tensor,
                edge_feat: np.ndarray, time_enc: Tensor,
                time_enc_zero: Tensor, mask: np.ndarray,
                dt_scaled: np.ndarray | None = None) -> AttentionOutput:
        """Same interface as the vanilla aggregator; ``dt_scaled`` required.

        ``query_feat``/``time_enc_zero`` are unused by the math (no query
        path) but kept for signature parity so the model can swap aggregators
        behind one call site.
        """
        if dt_scaled is None:
            raise ValueError("simplified attention requires dt_scaled")
        n, k = mask.shape
        logits = self.logits_from_dt(dt_scaled)
        selected = mask
        if self.cfg.pruning_budget is not None:
            selected = top_k_mask(logits.data, mask, self.cfg.pruning_budget)
        kv_in = Tensor.concat([nbr_feat, Tensor(edge_feat), time_enc], axis=-1)
        values = self.w_v(kv_in)
        alpha = F.masked_softmax(logits, selected, axis=-1)
        hidden = (alpha.reshape(n, k, 1) * values).sum(axis=1)
        return AttentionOutput(hidden=hidden, logits=logits, mask=mask,
                               selected=selected)

    # -- fast inference ---------------------------------------------------- #
    def logits_numpy(self, dt_scaled: np.ndarray) -> np.ndarray:
        return dt_scaled @ self.w_t.weight.data.T + self.w_t.bias.data \
            + self.attn_bias.data

    @staticmethod
    def aggregate_numpy(alpha: np.ndarray, feat: np.ndarray) -> np.ndarray:
        """FAM: ``sum_j alpha_j feat_j`` — ``(n, p)``, ``(n, p, d) -> (n, d)``.

        ``feat`` is already gathered down to the pruning budget ``p`` columns
        (see :func:`repro.models.pruning.compact_selection`).  Padded slots
        need no zeroing: ``alpha`` is exactly 0 there.
        """
        return (alpha[:, None, :] @ feat)[:, 0]

    def forward_numpy(self, alpha: np.ndarray, nbr: np.ndarray,
                      edge: np.ndarray, time: np.ndarray,
                      w_raw: np.ndarray | None = None) -> np.ndarray:
        """FTM: ``W_v`` once per node, on the :meth:`aggregate_numpy` sums.

        The value map is affine and ``alpha`` depends on Δt only, so
        aggregating the raw neighbor vectors first and transforming the
        aggregate is exact — the Embedding Unit's own order
        (:mod:`repro.hw.eu`), ``keff`` times fewer MACs than per-neighbor
        values.  What pruning saves on this path is gathers plus
        aggregation, as in the paper's MEM column; the ``W_v`` product no
        longer depends on the budget.

        ``time`` aggregates ``Phi(dt)``, width ``time_dim``.  With ``w_raw``
        (the packed ``W_v[:, :-time_dim]`` of ``TGNN.prepare_inference``) it
        aggregates the premultiplied LUT rows instead, which are already in
        value space.  The bias is scaled by ``sum(alpha)``: 0 for a row with
        no valid neighbor, whose hidden state is therefore exactly 0.
        """
        bias = alpha.sum(axis=1, keepdims=True) * self.w_v.bias.data
        if w_raw is None:
            return (np.concatenate([nbr, edge, time], axis=1)
                    @ self.w_v.weight.data.T + bias)
        return np.concatenate([nbr, edge], axis=1) @ w_raw.T + time + bias


def _masked_softmax_np(logits: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """NumPy twin of functional.masked_softmax (all-masked rows -> zeros)."""
    neg = np.where(mask, logits, -np.inf)
    mx = np.max(neg, axis=-1, keepdims=True)
    mx = np.where(np.isfinite(mx), mx, 0.0)
    e = np.exp(np.where(mask, logits - mx, -np.inf))
    e = np.where(mask, e, 0.0)
    denom = e.sum(axis=-1, keepdims=True)
    return e / np.where(denom == 0.0, 1.0, denom)
