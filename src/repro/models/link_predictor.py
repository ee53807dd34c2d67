"""Downstream temporal link prediction head.

The paper's evaluation task (§VI): given the dynamic embeddings of two
vertices at time t, predict whether an edge occurs.  TGNN inference proper
ends at the embeddings; this MLP is the external edge classifier used for
self-supervised training and the Average Precision numbers in Table II.
"""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor
from ..autograd.module import MLP, Module

__all__ = ["LinkPredictor"]


class LinkPredictor(Module):
    """``logit = MLP([h_u || h_v])`` with one hidden ReLU layer."""

    def __init__(self, embed_dim: int, hidden: int | None = None,
                 rng: np.random.Generator | None = None):
        super().__init__()
        hidden = hidden if hidden is not None else embed_dim
        self.mlp = MLP(2 * embed_dim, hidden, 1, rng=rng)

    def forward(self, h_src: Tensor, h_dst: Tensor) -> Tensor:
        """Score vertex pairs; returns ``(n,)`` logits."""
        pair = Tensor.concat([h_src, h_dst], axis=-1)
        return self.mlp(pair).reshape(-1)
