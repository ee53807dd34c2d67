"""Temporal neighbor samplers.

Two implementations with identical query interfaces:

* :class:`FullHistorySampler` — TGN's software sampler.  Keeps the complete
  temporal adjacency and, per query, selects the ``k`` most recent past
  neighbors.  This is the "sample" stage profiled in Table I.
* :class:`FIFONeighborSampler` — the paper's hardware replacement (§III):
  a wrapper over :class:`~repro.graph.neighbor_table.NeighborTable` that
  returns whatever the FIFO currently holds.  Because the table only ever
  keeps the ``mr`` most recent interactions, both samplers agree whenever
  ``k <= mr`` — an equivalence the integration tests assert.
"""

from __future__ import annotations

import numpy as np

from .neighbor_table import GatheredNeighbors, NeighborTable

__all__ = ["FullHistorySampler", "FIFONeighborSampler"]


class FullHistorySampler:
    """Most-recent-k sampler over the full interaction history.

    The history is an append-only struct-of-arrays; queries binary-search the
    per-vertex chronological lists.  Append is amortised O(1) per edge.
    """

    def __init__(self, num_nodes: int):
        self.num_nodes = int(num_nodes)
        self._nbrs: list[list[int]] = [[] for _ in range(num_nodes)]
        self._eids: list[list[int]] = [[] for _ in range(num_nodes)]
        self._times: list[list[float]] = [[] for _ in range(num_nodes)]

    def insert_edges(self, src: np.ndarray, dst: np.ndarray,
                     eid: np.ndarray, t: np.ndarray) -> None:
        """Append a chronological edge batch to both endpoints' histories."""
        for s, d, e, ts in zip(np.asarray(src, dtype=np.int64),
                               np.asarray(dst, dtype=np.int64),
                               np.asarray(eid, dtype=np.int64),
                               np.asarray(t, dtype=np.float64)):
            self._nbrs[s].append(int(d))
            self._eids[s].append(int(e))
            self._times[s].append(float(ts))
            self._nbrs[d].append(int(s))
            self._eids[d].append(int(e))
            self._times[d].append(float(ts))

    def gather(self, vertices: np.ndarray, k: int) -> GatheredNeighbors:
        """Return each vertex's ``k`` most recent neighbors, time-ascending."""
        vertices = np.asarray(vertices, dtype=np.int64)
        B = len(vertices)
        nbrs = np.zeros((B, k), dtype=np.int64)
        eids = np.zeros((B, k), dtype=np.int64)
        times = np.full((B, k), -np.inf, dtype=np.float64)
        mask = np.zeros((B, k), dtype=bool)
        for row, v in enumerate(vertices):
            hist_n = self._nbrs[v]
            take = min(k, len(hist_n))
            if take == 0:
                continue
            nbrs[row, :take] = hist_n[-take:]
            eids[row, :take] = self._eids[v][-take:]
            times[row, :take] = self._times[v][-take:]
            mask[row, :take] = True
        return GatheredNeighbors(nbrs, eids, times, mask)

    def degree(self, vertices: np.ndarray) -> np.ndarray:
        return np.array([len(self._nbrs[v]) for v in
                         np.asarray(vertices, dtype=np.int64)], dtype=np.int64)


class FIFONeighborSampler:
    """Hardware-style sampler: reads the rolling NeighborTable directly.

    Sampling cost is a single table-row fetch — there is no search — which is
    why the paper's architecture removes the sampler stage from the critical
    path entirely.  Like the table, it returns arrival order and relies on
    the stream being chronological per vertex for that to be time order
    (:mod:`repro.graph.neighbor_table`); :class:`FullHistorySampler` makes
    the same assumption.
    """

    def __init__(self, table: NeighborTable):
        self.table = table

    @classmethod
    def create(cls, num_nodes: int, mr: int) -> "FIFONeighborSampler":
        return cls(NeighborTable(num_nodes, mr))

    def insert_edges(self, src, dst, eid, t) -> None:
        self.table.insert_edges(src, dst, eid, t)

    def gather(self, vertices: np.ndarray, k: int) -> GatheredNeighbors:
        """Fetch up to ``k`` most recent neighbors, always shaped ``(B, k)``.

        The table can hold at most ``mr`` entries per vertex, so for
        ``k > mr`` the trailing ``k - mr`` slots are padding (mask cleared,
        times ``-inf``) — the same convention
        :class:`FullHistorySampler` uses for vertices with short histories,
        keeping the two samplers drop-in interchangeable at any ``k``.
        """
        k = int(k)
        g = self.table.gather(vertices, k=min(k, self.table.mr))
        if k <= self.table.mr:
            return g
        B, held = g.nbrs.shape
        nbrs = np.zeros((B, k), dtype=np.int64)
        eids = np.zeros((B, k), dtype=np.int64)
        times = np.full((B, k), -np.inf, dtype=np.float64)
        mask = np.zeros((B, k), dtype=bool)
        nbrs[:, :held] = g.nbrs
        eids[:, :held] = g.eids
        times[:, :held] = g.times
        mask[:, :held] = g.mask
        return GatheredNeighbors(nbrs, eids, times, mask)

    def degree(self, vertices: np.ndarray) -> np.ndarray:
        return self.table.degree(vertices)
