"""APAN-style baseline: asynchronous propagation attention network.

APAN [Wang et al., SIGMOD'21] is the latency-targeted TGNN the paper compares
against in Fig. 7.  Its key idea: move message passing *off* the inference
critical path.  Each vertex keeps a small mailbox of the most recent messages
pushed to it; at query time the embedding is computed by attending over the
vertex's **own mailbox only** — no neighbor-state fetches — while new
messages are propagated to neighbor mailboxes asynchronously after the
response is returned.

This buys low latency at an accuracy cost (the mailbox is a lossy, delayed
view of the neighborhood) and a memory cost (mailboxes cache k messages per
vertex — the "exponential extra memory" scaling the paper critiques in §I).

Our implementation mirrors that structure on the shared substrates so its
accuracy is measured under the identical protocol as TGN-attn and the
co-designed models.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..autograd import Tensor
from ..autograd.module import GRUCell, Linear, Module
from ..graph.neighbor_table import ring_append
from ..graph.state import last_occurrence
from ..graph.temporal_graph import EdgeBatch, TemporalGraph
from .attention import VanillaTemporalAttention
from .config import ModelConfig
from .time_encoding import CosineTimeEncoder

__all__ = ["APAN", "APANRuntime"]


@dataclass
class APANRuntime:
    """Per-stream APAN state: vertex state + message mailboxes (ring)."""

    state: np.ndarray        # (N, d_mem) vertex state
    mailbox: np.ndarray      # (N, K, d_mail) most recent K messages
    mail_time: np.ndarray    # (N, K) message timestamps (-inf = empty)
    head: np.ndarray         # (N,) ring write position

    @classmethod
    def create(cls, num_nodes: int, memory_dim: int, mail_dim: int,
               mailbox_size: int) -> "APANRuntime":
        return cls(state=np.zeros((num_nodes, memory_dim)),
                   mailbox=np.zeros((num_nodes, mailbox_size, mail_dim)),
                   mail_time=np.full((num_nodes, mailbox_size), -np.inf),
                   head=np.zeros(num_nodes, dtype=np.int64))


class APAN(Module):
    """Mailbox-attention TGNN baseline.

    Query path (latency-critical): attention of the vertex state over its K
    cached messages, then an output transform.  Update path (asynchronous):
    GRU state update from the attention summary, then message delivery to the
    counterpart's mailbox.
    """

    def __init__(self, cfg: ModelConfig, mailbox_size: int = 10,
                 rng: np.random.Generator | None = None):
        super().__init__()
        self.cfg = cfg
        self.mailbox_size = mailbox_size
        # A delivered message carries the sender state and the edge feature:
        # exactly the key/value input of the Eqs. 11-15 aggregator, which
        # therefore attends over the mailbox as it would over neighbors.
        self.mail_dim = cfg.memory_dim + cfg.edge_dim
        self.time_encoder = CosineTimeEncoder(cfg.time_dim, rng=rng)
        self.attention = VanillaTemporalAttention(cfg, rng=rng)
        self.out_transform = Linear(cfg.embed_dim + cfg.memory_dim,
                                    cfg.embed_dim, rng=rng)
        self.updater = GRUCell(cfg.embed_dim, cfg.memory_dim, rng=rng)
        self.node_proj = (Linear(cfg.node_dim, cfg.memory_dim, rng=rng)
                          if cfg.node_dim > 0 else None)

    def new_runtime(self, graph: TemporalGraph) -> APANRuntime:
        return APANRuntime.create(graph.num_nodes, self.cfg.memory_dim,
                                  self.mail_dim, self.mailbox_size)

    # ------------------------------------------------------------------ #
    def _query(self, nodes: np.ndarray, t: np.ndarray, rt: APANRuntime,
               graph: TemporalGraph) -> tuple[Tensor, Tensor]:
        """The latency-critical path: ``(embeddings, attention summary)`` of
        the ``(node, time)`` queries over their own mailboxes.  Reads ``rt``,
        writes nothing."""
        d_mem = self.cfg.memory_dim
        state = Tensor(rt.state[nodes])
        if self.node_proj is not None:
            state = state + self.node_proj(Tensor(graph.node_feat[nodes]))
        mail = rt.mailbox[nodes]                       # (n, K, d_mail)
        mail_t = rt.mail_time[nodes]                   # (n, K)
        mask = mail_t > -np.inf
        dt = np.where(mask, np.maximum(t[:, None] - mail_t, 0.0), 0.0)
        hidden = self.attention(
            state, mail[..., :d_mem], mail[..., d_mem:],
            self.time_encoder(dt), self.time_encoder(np.zeros(len(nodes))),
            mask).hidden
        emb = self.out_transform(Tensor.concat([hidden, state], axis=-1))
        return emb.relu(), hidden

    def process_batch(self, batch: EdgeBatch, rt: APANRuntime,
                      graph: TemporalGraph) -> Tensor:
        """Process one batch; returns ``(2B, embed_dim)`` embeddings.

        Mirrors the deployment split: the returned embeddings only depend on
        state available *before* this batch's propagation (async delivery),
        exactly like APAN's decoupled inference.
        """
        nodes = batch.nodes
        t_nodes = np.repeat(batch.t, 2)
        emb, hidden = self._query(nodes, t_nodes, rt, graph)

        # --- async path: state update + message delivery ----------------- #
        new_state = self.updater(hidden, Tensor(rt.state[nodes]))
        _write_last_wins(rt.state, nodes, new_state.data)
        # Deliver messages to the counterpart endpoint's mailbox ring.
        counterpart = np.empty_like(nodes)
        counterpart[0::2] = batch.dst
        counterpart[1::2] = batch.src
        payload = np.concatenate(
            [rt.state[nodes], np.repeat(batch.edge_feat, 2, axis=0)], axis=1)
        pick, rows, slots = ring_append(counterpart, self.mailbox_size,
                                        rt.head)
        rt.mailbox[rows, slots] = payload[pick]
        rt.mail_time[rows, slots] = t_nodes[pick]
        return emb

    def embed_nodes(self, nodes: np.ndarray, t: np.ndarray, rt: APANRuntime,
                    graph: TemporalGraph) -> Tensor:
        """Query-only path: embeddings for arbitrary (node, time) pairs.

        The mailbox attention of :meth:`process_batch` with no state update
        and no message delivery.  Used for negative-sample scoring so
        positives and negatives go through the same computation.
        """
        return self._query(np.asarray(nodes, dtype=np.int64),
                           np.asarray(t, dtype=np.float64), rt, graph)[0]


def _write_last_wins(target: np.ndarray, indices: np.ndarray,
                     values: np.ndarray) -> None:
    """Row write where the last occurrence of a duplicate index wins."""
    last = last_occurrence(np.asarray(indices, dtype=np.int64))
    target[indices[last]] = values[last]

