"""Most-recent temporal neighbor table (the paper's Vertex Neighbor Table).

The paper replaces TGN's software temporal sampler — which scans a vertex's
full interaction history — with an on-chip FIFO that simply keeps the ``mr``
most recent neighbors per vertex.  This module is that structure: a rolling
ring buffer per vertex, with fully vectorised batch insertion and gathering.

Contract: a vertex's entries must arrive in non-decreasing time —
chronological inside one ``insert_edges`` call and across calls.  Nothing
checks it: the one caller that inserts backwards in time, the multi-tenant
replay onto a single runtime (``--backend measured`` with ``--streams > 1``
feeds the same windows once per tenant), is a timing lane.  The table is a
FIFO, not a sorter; on such a stream it returns arrival order.

Invariants (``tests/property/test_structure_properties.py`` and
``tests/property/test_neighbor_table_properties.py``, which keeps the sorting
read this one replaced as its oracle):

* after any insertion sequence, a vertex's valid slots hold exactly its
  ``min(history, mr)`` most recent interactions;
* gathered neighbor lists come back in arrival order, valid entries first —
  timestamp-ascending under the contract, as required by the simplified
  attention of Eq. (16);
* vertices with no history gather an all-masked row (no garbage reads).
"""

from __future__ import annotations

import numpy as np

from .state import VertexRows

__all__ = ["NeighborTable", "GatheredNeighbors", "ring_append"]


def ring_append(vertices: np.ndarray, size: int, head: np.ndarray,
                count: np.ndarray | None = None
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Append one entry per element of ``vertices`` to per-vertex rings.

    Each vertex owns a ring of ``size`` slots whose next write slot is
    ``head[v]``.  Insertions are grouped by vertex, in arrival order inside
    a group, so a vertex listed many times takes consecutive slots; only a
    group's last ``size`` entries survive the ring.  Advances ``head`` (and
    ``count``, the valid entries capped at ``size``, when given) in place
    and returns ``(pick, rows, slots)``: entry ``pick[i]`` of the caller's
    columns goes to slot ``slots[i]`` of ring ``rows[i]``.
    """
    order = np.argsort(vertices, kind="stable")
    rows = vertices[order]
    bounds = np.ones(len(rows) + 1, dtype=bool)        # group starts + end
    np.not_equal(rows[1:], rows[:-1], out=bounds[1:-1])
    first = np.flatnonzero(bounds)
    counts = np.diff(first)
    first = first[:-1]
    uniq = rows[first]
    rank = np.arange(len(rows)) - np.repeat(first, counts)
    keep = np.repeat(counts, counts) - rank <= size
    slots = (head[rows] + rank) % size
    head[uniq] = (head[uniq] + counts) % size
    if count is not None:
        count[uniq] = np.minimum(count[uniq] + counts, size)
    return order[keep], rows[keep], slots[keep]


class GatheredNeighbors:
    """Arrival-ordered (on a chronological stream: timestamp-sorted) neighbor
    rows for a batch of query vertices.

    Attributes
    ----------
    nbrs, eids: ``(B, k)`` int64 — neighbor vertex / edge ids (arbitrary
        values where masked).
    times: ``(B, k)`` float64 — interaction timestamps, ascending within each
        valid prefix.
    mask: ``(B, k)`` bool — True for valid slots.  Valid slots always form a
        prefix.
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
        pick, rows, slots = ring_append(vertices, self.mr, self._head,
                                        self._count)
        self._nbrs[rows, slots] = partners[pick]
        self._eids[rows, slots] = eids[pick]
        self._times[rows, slots] = times[pick]

    # ------------------------------------------------------------------ #
    def gather(self, vertices: np.ndarray, k: int | None = None
               ) -> GatheredNeighbors:
        """Fetch the most recent ``k`` (default ``mr``) neighbors per vertex.

        A FIFO read by address (§IV-A, "no search"): the ring is written in
        arrival order, so a vertex's ``take = min(count, k)`` most recent
        entries are the slots ``head - take .. head - 1`` (mod ``mr``).
        Rows come back in arrival order, valid entries first — time-ascending
        on a chronological stream (see the module contract), the
        "fixed-length timestamp-sorted list" the simplified attention
        operates on.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        k = self.mr if k is None else int(k)
        if not 0 < k <= self.mr:
            raise ValueError(f"k must be in [1, {self.mr}]")
        take = np.minimum(self._count[vertices], k)
        cols = np.arange(k)
        slots = ((self._head[vertices] - take) % self.mr)[:, None] + cols
        slots -= self.mr * (slots >= self.mr)      # wrap; k <= mr
        addr = slots + (vertices * self.mr)[:, None]
        return GatheredNeighbors(self._nbrs.take(addr), self._eids.take(addr),
                                 self._times.take(addr), cols < take[:, None])

    def degree(self, vertices: np.ndarray | None = None) -> np.ndarray:
        """Number of valid stored neighbors per vertex (<= mr)."""
        if vertices is None:
            return self._count.copy()
        return self._count[np.asarray(vertices, dtype=np.int64)]

    def memory_words(self) -> int:
        """Storage footprint in table words (for the resource model)."""
        return self.num_nodes * self.mr * 3  # nbr id, edge id, timestamp
