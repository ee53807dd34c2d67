"""Unit tests for temporal neighbor sampling, including FIFO equivalence.

:class:`FullHistorySampler` is TGN's software sampler, kept here as the
oracle the FIFO — the :class:`~repro.graph.NeighborTable` a runtime reads
directly — must match whenever ``k <= mr``.
"""

import numpy as np

from repro.graph import NeighborTable
from repro.graph.neighbor_table import GatheredNeighbors


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


def feed(sampler, edges):
    arr = np.array(edges)
    sampler.insert_edges(arr[:, 0].astype(int), arr[:, 1].astype(int),
                         arr[:, 2].astype(int), arr[:, 3])


EDGES = [(0, 1, 0, 1.0), (0, 2, 1, 2.0), (1, 2, 2, 3.0),
         (0, 3, 3, 4.0), (2, 3, 4, 5.0), (0, 1, 5, 6.0)]


class TestFullHistorySampler:
    def test_most_recent_k(self):
        s = FullHistorySampler(5)
        feed(s, EDGES)
        g = s.gather(np.array([0]), k=2)
        assert np.array_equal(g.times[0], [4.0, 6.0])
        assert np.array_equal(g.nbrs[0], [3, 1])

    def test_degree_unbounded(self):
        s = FullHistorySampler(5)
        feed(s, EDGES)
        assert s.degree(np.array([0]))[0] == 4

    def test_isolated_vertex(self):
        s = FullHistorySampler(5)
        feed(s, EDGES)
        g = s.gather(np.array([4]), k=3)
        assert not g.mask.any()

    def test_partial_history_padded(self):
        s = FullHistorySampler(5)
        feed(s, EDGES[:1])
        g = s.gather(np.array([0]), k=3)
        assert g.mask[0].sum() == 1
        assert g.nbrs[0, 0] == 1


class TestFIFOEquivalence:
    def test_fifo_matches_full_history_when_k_le_mr(self):
        """The §III hardware-sampler substitution: identical results."""
        full = FullHistorySampler(5)
        fifo = NeighborTable(5, mr=4)
        feed(full, EDGES)
        feed(fifo, EDGES)
        for k in (1, 2, 4):
            for v in range(5):
                gf = full.gather(np.array([v]), k=k)
                gh = fifo.gather(np.array([v]), k=k)
                assert np.array_equal(gf.mask, gh.mask), (v, k)
                assert np.array_equal(gf.nbrs[gf.mask], gh.nbrs[gh.mask]), (v, k)
                assert np.array_equal(gf.times[gf.mask], gh.times[gh.mask]), (v, k)

    def test_fifo_degree_capped(self):
        fifo = NeighborTable(5, mr=2)
        feed(fifo, EDGES)
        assert fifo.snapshot()["count"][0] == 2
