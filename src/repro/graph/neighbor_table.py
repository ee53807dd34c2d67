"""Most-recent temporal neighbor table (the paper's Vertex Neighbor Table).

The paper replaces TGN's software temporal sampler — which scans a vertex's
full interaction history — with an on-chip FIFO that simply keeps the ``mr``
most recent neighbors per vertex.  This module is that structure: a rolling
ring buffer per vertex, with fully vectorised batch insertion and gathering.

Invariants (property-tested in ``tests/property/test_neighbor_table.py``):

* after any insertion sequence, a vertex's valid slots hold exactly its
  ``min(history, mr)`` most recent interactions;
* gathered neighbor lists are timestamp-sorted (ascending), as required by
  the simplified attention of Eq. (16);
* vertices with no history gather an all-masked row (no garbage reads).
"""

from __future__ import annotations

import numpy as np

from .state import VertexRows

__all__ = ["NeighborTable", "GatheredNeighbors"]


class GatheredNeighbors:
    """Timestamp-sorted neighbor rows for a batch of query vertices.

    Attributes
    ----------
    nbrs, eids: ``(B, k)`` int64 — neighbor vertex / edge ids (arbitrary
        values where masked).
    times: ``(B, k)`` float64 — interaction timestamps, ascending within each
        valid prefix.
    mask: ``(B, k)`` bool — True for valid slots.  Valid slots always form a
        prefix after sorting.
    """

    __slots__ = ("nbrs", "eids", "times", "mask")

    def __init__(self, nbrs: np.ndarray, eids: np.ndarray,
                 times: np.ndarray, mask: np.ndarray):
        self.nbrs = nbrs
        self.eids = eids
        self.times = times
        self.mask = mask

    @property
    def k(self) -> int:
        return self.nbrs.shape[1]

    def __len__(self) -> int:
        return self.nbrs.shape[0]


class NeighborTable(VertexRows):
    """Per-vertex ring buffer of the ``mr`` most recent interactions."""

    # The ring row: slots, then the next write slot and the valid count.
    _ROW = {"nbrs": 0, "eids": 0, "times": -np.inf, "head": 0, "count": 0}

    def __init__(self, num_nodes: int, mr: int):
        if mr <= 0:
            raise ValueError("mr must be positive")
        self.num_nodes = int(num_nodes)
        self.mr = int(mr)
        self._nbrs = np.zeros((num_nodes, mr), dtype=np.int64)
        self._eids = np.zeros((num_nodes, mr), dtype=np.int64)
        self._times = np.full((num_nodes, mr), -np.inf, dtype=np.float64)
        self._head = np.zeros(num_nodes, dtype=np.int64)   # next write slot
        self._count = np.zeros(num_nodes, dtype=np.int64)  # valid entries

    def _arrays(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, "_" + name) for name in self._ROW}

    # ------------------------------------------------------------------ #
    def insert_edges(self, src: np.ndarray, dst: np.ndarray,
                     eid: np.ndarray, t: np.ndarray) -> None:
        """Record a chronological batch of edges (both directions).

        Equivalent to Algorithm 1 lines 12-14: ``dst`` joins ``src``'s list
        and vice versa.  Vectorised over the whole batch; per-vertex insert
        order follows stream order even when a vertex appears many times in
        one batch.
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        eid = np.asarray(eid, dtype=np.int64)
        t = np.asarray(t, dtype=np.float64)
        # Interleave (src->dst) and (dst->src) insertions in edge order so a
        # vertex appearing as both endpoints keeps chronological slots.
        n = len(src)
        vertices = np.empty(2 * n, dtype=np.int64)
        partners = np.empty(2 * n, dtype=np.int64)
        edge_ids = np.empty(2 * n, dtype=np.int64)
        times = np.empty(2 * n, dtype=np.float64)
        vertices[0::2], vertices[1::2] = src, dst
        partners[0::2], partners[1::2] = dst, src
        edge_ids[0::2], edge_ids[1::2] = eid, eid
        times[0::2], times[1::2] = t, t
        self._insert(vertices, partners, edge_ids, times)

    def _insert(self, vertices: np.ndarray, partners: np.ndarray,
                eids: np.ndarray, times: np.ndarray) -> None:
        if len(vertices) == 0:
            return
        # Group insertions by vertex, preserving arrival order inside groups.
        order = np.argsort(vertices, kind="stable")
        v_sorted = vertices[order]
        # cumcount: position of each insertion within its vertex group.
        group_start = np.empty(len(v_sorted), dtype=bool)
        group_start[0] = True
        group_start[1:] = v_sorted[1:] != v_sorted[:-1]
        idx = np.arange(len(v_sorted))
        start_idx = np.maximum.accumulate(np.where(group_start, idx, 0))
        cumcount = idx - start_idx
        # Per-vertex totals (to advance heads and cap counts).
        uniq, counts = np.unique(v_sorted, return_counts=True)
        totals = np.repeat(counts, counts)
        # Only the last `mr` insertions of a group can survive the ring.
        keep = (totals - cumcount) <= self.mr
        slots = (self._head[v_sorted] + cumcount) % self.mr
        kv, ks = v_sorted[keep], slots[keep]
        self._nbrs[kv, ks] = partners[order][keep]
        self._eids[kv, ks] = eids[order][keep]
        self._times[kv, ks] = times[order][keep]
        self._head[uniq] = (self._head[uniq] + counts) % self.mr
        self._count[uniq] = np.minimum(self._count[uniq] + counts, self.mr)

    # ------------------------------------------------------------------ #
    def gather(self, vertices: np.ndarray, k: int | None = None
               ) -> GatheredNeighbors:
        """Fetch the most recent ``k`` (default ``mr``) neighbors per vertex.

        Rows are sorted by timestamp ascending with valid entries first —
        the "fixed-length timestamp-sorted list" the simplified attention
        operates on.  When ``k < mr`` the *most recent* ``k`` are kept.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        k = self.mr if k is None else int(k)
        if not 0 < k <= self.mr:
            raise ValueError(f"k must be in [1, {self.mr}]")
        nbrs = self._nbrs[vertices]
        eids = self._eids[vertices]
        times = self._times[vertices].copy()
        valid = times > -np.inf
        # Sort ascending; invalid slots (-inf) land first, so flip the key to
        # push them last: use +inf for invalid, then take the earliest k of
        # the most recent k... Simpler: sort descending by time (invalid
        # last), truncate to k most recent, then reverse to ascending.
        desc = np.argsort(-times, axis=1, kind="stable")
        rows = np.arange(len(vertices))[:, None]
        nbrs = nbrs[rows, desc][:, :k][:, ::-1]
        eids = eids[rows, desc][:, :k][:, ::-1]
        times = times[rows, desc][:, :k][:, ::-1]
        mask = valid[rows, desc][:, :k][:, ::-1]
        # Shift valid entries to the front (ascending order, mask suffix).
        # After the flip, invalid entries sit at the *front*; roll each row
        # left by its number of invalid slots.
        n_invalid = (~mask).sum(axis=1)
        if n_invalid.any():
            cols = (np.arange(k)[None, :] + n_invalid[:, None]) % k
            nbrs = nbrs[rows, cols]
            eids = eids[rows, cols]
            times = times[rows, cols]
            mask = mask[rows, cols]
        return GatheredNeighbors(np.ascontiguousarray(nbrs),
                                 np.ascontiguousarray(eids),
                                 np.ascontiguousarray(times),
                                 np.ascontiguousarray(mask))

    def degree(self, vertices: np.ndarray | None = None) -> np.ndarray:
        """Number of valid stored neighbors per vertex (<= mr)."""
        if vertices is None:
            return self._count.copy()
        return self._count[np.asarray(vertices, dtype=np.int64)]

    def memory_words(self) -> int:
        """Storage footprint in table words (for the resource model)."""
        return self.num_nodes * self.mr * 3  # nbr id, edge id, timestamp
