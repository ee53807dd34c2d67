"""The temporal neighbor sampler.

:class:`FIFONeighborSampler` is the paper's hardware replacement (§III) for
TGN's software sampler: a wrapper over
:class:`~repro.graph.neighbor_table.NeighborTable` that returns whatever
the FIFO currently holds.  TGN's sampler keeps the complete temporal
adjacency and selects the ``k`` most recent past neighbors per query;
because the table only ever keeps the ``mr`` most recent interactions, the
two agree whenever ``k <= mr``.  The full-history sampler lives on as the
oracle of that equivalence in ``tests/unit/test_sampler.py``.
"""

from __future__ import annotations

import numpy as np

from .neighbor_table import GatheredNeighbors, NeighborTable

__all__ = ["FIFONeighborSampler"]


class FIFONeighborSampler:
    """Hardware-style sampler: reads the rolling NeighborTable directly.

    Sampling cost is a single table-row fetch — there is no search — which is
    why the paper's architecture removes the sampler stage from the critical
    path entirely.  Like the table, it returns arrival order and relies on
    the stream being chronological per vertex for that to be time order
    (:mod:`repro.graph.neighbor_table`).
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
        times ``-inf``) — the same convention TGN's full-history sampler
        uses for vertices with short histories, keeping the two samplers
        drop-in interchangeable at any ``k``.
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
