"""Chronological edge-stream container for dynamic graphs.

A temporal graph here is exactly what the paper's Algorithm 1 consumes: a
stream of edges ``e(src, dst, f_e, t_e)`` in non-decreasing timestamp order,
plus optional static node features.  Storage is struct-of-arrays (contiguous
NumPy columns) so batch slicing is a view, not a copy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["TemporalGraph", "EdgeBatch"]


@dataclass(frozen=True)
class EdgeBatch:
    """A contiguous chronological slice of the edge stream (views, no copies)."""

    src: np.ndarray          # (B,) int64 source vertex ids
    dst: np.ndarray          # (B,) int64 destination vertex ids
    t: np.ndarray            # (B,) float64 timestamps, non-decreasing
    eid: np.ndarray          # (B,) int64 global edge ids
    edge_feat: np.ndarray    # (B, d_ef) float64; d_ef may be 0

    def __len__(self) -> int:
        return len(self.src)

    @property
    def nodes(self) -> np.ndarray:
        """All endpoint vertex ids in interleaved (src, dst) order.

        Order matters: Algorithm 1 processes sources and destinations of the
        same edge together, and the Updater's chronology guarantee is defined
        over this order.
        """
        out = np.empty(2 * len(self.src), dtype=np.int64)
        out[0::2] = self.src
        out[1::2] = self.dst
        return out


class TemporalGraph:
    """Immutable chronological edge stream with optional features.

    Parameters
    ----------
    src, dst, t:
        Edge endpoint ids and timestamps.  ``t`` must be non-decreasing —
        this is validated at construction because every downstream component
        (memory updates, the Updater's commit order, the FIFO sampler)
        assumes chronological arrival.
    edge_feat:
        Optional ``(E, d_ef)`` edge features (Wikipedia/Reddit-style).
    node_feat:
        Optional ``(N, d_nf)`` static node features (GDELT-style).
    num_nodes:
        Total vertex count; inferred from the ids when omitted.
    """

    def __init__(self, src, dst, t, edge_feat: np.ndarray | None = None,
                 node_feat: np.ndarray | None = None,
                 num_nodes: int | None = None):
        self.src = np.ascontiguousarray(src, dtype=np.int64)
        self.dst = np.ascontiguousarray(dst, dtype=np.int64)
        self.t = np.ascontiguousarray(t, dtype=np.float64)
        if not (len(self.src) == len(self.dst) == len(self.t)):
            raise ValueError("src/dst/t length mismatch")
        if not np.all(np.isfinite(self.t)):
            raise ValueError("edge timestamps must be finite")
        if len(self.t) > 1 and np.any(np.diff(self.t) < 0):
            raise ValueError("edge timestamps must be non-decreasing")
        if np.any(self.src < 0) or np.any(self.dst < 0):
            raise ValueError("vertex ids must be non-negative")

        n_edges = len(self.src)
        if edge_feat is None:
            edge_feat = np.zeros((n_edges, 0), dtype=np.float64)
        self.edge_feat = np.ascontiguousarray(edge_feat, dtype=np.float64)
        if self.edge_feat.shape[0] != n_edges:
            raise ValueError("edge_feat row count must equal number of edges")

        inferred = int(max(self.src.max(initial=-1), self.dst.max(initial=-1)) + 1)
        self.num_nodes = int(num_nodes) if num_nodes is not None else inferred
        if self.num_nodes < inferred:
            raise ValueError("num_nodes smaller than max vertex id + 1")

        if node_feat is None:
            node_feat = np.zeros((self.num_nodes, 0), dtype=np.float64)
        self.node_feat = np.ascontiguousarray(node_feat, dtype=np.float64)
        if self.node_feat.shape[0] != self.num_nodes:
            raise ValueError("node_feat row count must equal num_nodes")

    # ------------------------------------------------------------------ #
    @property
    def num_edges(self) -> int:
        return len(self.src)

    @property
    def edge_dim(self) -> int:
        return self.edge_feat.shape[1]

    @property
    def node_dim(self) -> int:
        return self.node_feat.shape[1]

    @property
    def duration(self) -> float:
        """Time span of the stream in its native units."""
        if self.num_edges == 0:
            return 0.0
        return float(self.t[-1] - self.t[0])

    def __len__(self) -> int:
        return self.num_edges

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"TemporalGraph(nodes={self.num_nodes}, edges={self.num_edges}, "
                f"d_ef={self.edge_dim}, d_nf={self.node_dim})")

    # ------------------------------------------------------------------ #
    def slice(self, lo: int, hi: int) -> EdgeBatch:
        """Return edges ``[lo, hi)`` as a zero-copy batch."""
        return EdgeBatch(src=self.src[lo:hi], dst=self.dst[lo:hi],
                         t=self.t[lo:hi], eid=np.arange(lo, hi, dtype=np.int64),
                         edge_feat=self.edge_feat[lo:hi])

    def split(self, train_frac: float = 0.70, val_frac: float = 0.15
              ) -> tuple["TemporalGraph", tuple[int, int, int]]:
        """Chronological train/val/test boundaries (TGN evaluation protocol).

        Returns the graph itself plus the ``(train_end, val_end, test_end)``
        edge indices, because temporal models must keep one global stream —
        splitting into separate graphs would lose cross-boundary neighbors.
        """
        if not 0.0 < train_frac < 1.0 or train_frac + val_frac >= 1.0:
            raise ValueError("invalid split fractions")
        train_end = int(self.num_edges * train_frac)
        val_end = int(self.num_edges * (train_frac + val_frac))
        return self, (train_end, val_end, self.num_edges)
