"""Unit tests for the most-recent neighbor table (Vertex Neighbor Table)."""

import numpy as np
import pytest

from repro.graph import NeighborTable


def insert_seq(table, edges):
    """Insert a list of (src, dst, eid, t) one batch at a time."""
    for s, d, e, t in edges:
        table.insert_edges(np.array([s]), np.array([d]),
                           np.array([e]), np.array([t]))


class TestBasics:
    def test_empty_gather_is_masked(self):
        t = NeighborTable(5, mr=3)
        g = t.gather(np.array([0, 1]))
        assert not g.mask.any()
        assert g.k == 3

    def test_single_edge_both_directions(self):
        t = NeighborTable(5, mr=3)
        t.insert_edges(np.array([1]), np.array([2]), np.array([0]),
                       np.array([5.0]))
        g = t.gather(np.array([1, 2]))
        assert g.mask[0, 0] and g.nbrs[0, 0] == 2
        assert g.mask[1, 0] and g.nbrs[1, 0] == 1
        assert g.times[0, 0] == 5.0

    def test_most_recent_kept_when_overflowing(self):
        t = NeighborTable(5, mr=2)
        insert_seq(t, [(0, 1, 0, 1.0), (0, 2, 1, 2.0), (0, 3, 2, 3.0)])
        g = t.gather(np.array([0]))
        assert set(g.nbrs[0][g.mask[0]]) == {2, 3}
        assert np.array_equal(g.times[0], [2.0, 3.0])

    def test_gather_sorted_ascending(self):
        t = NeighborTable(5, mr=4)
        insert_seq(t, [(0, 1, 0, 1.0), (0, 2, 1, 3.0), (0, 3, 2, 5.0)])
        # Stream order == time order in valid streams; the table preserves it.
        g = t.gather(np.array([0]))
        valid_times = g.times[0][g.mask[0]]
        assert np.all(np.diff(valid_times) >= 0)

    def test_gather_keeps_arrival_order_of_a_non_chronological_insert(self):
        """The table is a FIFO, not a sorter: what it promises is arrival
        order, which is time order only on a chronological stream."""
        t = NeighborTable(5, mr=4)
        insert_seq(t, [(0, 1, 0, 1.0), (0, 2, 1, 5.0), (0, 3, 2, 3.0)])
        g = t.gather(np.array([0]))
        assert g.mask[0].tolist() == [True, True, True, False]
        assert g.nbrs[0][:3].tolist() == [1, 2, 3]
        assert g.times[0][:3].tolist() == [1.0, 5.0, 3.0]
        assert t.gather(np.array([0]), k=2).times[0].tolist() == [5.0, 3.0]

    def test_gather_k_smaller_than_mr_takes_most_recent(self):
        t = NeighborTable(5, mr=4)
        insert_seq(t, [(0, 1, 0, 1.0), (0, 2, 1, 2.0), (0, 3, 2, 3.0)])
        g = t.gather(np.array([0]), k=2)
        assert np.array_equal(np.sort(g.nbrs[0][g.mask[0]]), [2, 3])

    def test_gather_k_validation(self):
        t = NeighborTable(5, mr=3)
        with pytest.raises(ValueError):
            t.gather(np.array([0]), k=0)
        with pytest.raises(ValueError):
            t.gather(np.array([0]), k=4)

    def test_degree(self):
        t = NeighborTable(5, mr=2)
        insert_seq(t, [(0, 1, 0, 1.0), (0, 2, 1, 2.0), (0, 3, 2, 3.0)])
        assert t.degree(np.array([0]))[0] == 2  # capped at mr
        assert t.degree(np.array([4]))[0] == 0
        assert len(t.degree()) == 5


class TestBatchInsertion:
    def test_batch_equals_sequential(self):
        edges = [(0, 1, 0, 1.0), (2, 0, 1, 2.0), (0, 3, 2, 3.0),
                 (1, 2, 3, 4.0), (0, 2, 4, 5.0)]
        seq = NeighborTable(5, mr=3)
        insert_seq(seq, edges)
        batch = NeighborTable(5, mr=3)
        arr = np.array(edges)
        batch.insert_edges(arr[:, 0].astype(int), arr[:, 1].astype(int),
                           arr[:, 2].astype(int), arr[:, 3])
        for v in range(5):
            gs = seq.gather(np.array([v]))
            gb = batch.gather(np.array([v]))
            assert np.array_equal(gs.nbrs[gs.mask], gb.nbrs[gb.mask]), v
            assert np.array_equal(gs.times[gs.mask], gb.times[gb.mask]), v

    def test_vertex_repeated_many_times_in_one_batch(self):
        t = NeighborTable(4, mr=2)
        n = 6
        t.insert_edges(np.zeros(n, dtype=int), np.arange(1, n + 1) % 4,
                       np.arange(n), np.arange(n, dtype=float))
        g = t.gather(np.array([0]))
        # Only the last two insertions survive the ring.
        assert np.array_equal(g.times[0], [4.0, 5.0])

    def test_self_loop_edge_counts_twice(self):
        t = NeighborTable(3, mr=4)
        t.insert_edges(np.array([1]), np.array([1]), np.array([0]),
                       np.array([1.0]))
        g = t.gather(np.array([1]))
        assert g.mask[0].sum() == 2  # both directions recorded

    def test_empty_insert_noop(self):
        t = NeighborTable(3, mr=2)
        t.insert_edges(np.array([], dtype=int), np.array([], dtype=int),
                       np.array([], dtype=int), np.array([]))
        assert t.degree(np.array([0]))[0] == 0

    def test_row_format_round_trips(self):
        """snapshot/restore/reset/copy_rows cover the whole ring row —
        slots, head and count — so a copied or replayed vertex keeps
        inserting into the same slot its source would."""
        edges = [(0, 1, 0, 1.0), (0, 2, 1, 2.0), (0, 3, 2, 3.0),
                 (1, 2, 3, 4.0)]
        a = NeighborTable(4, mr=2)
        insert_seq(a, edges)
        snap = a.snapshot()
        assert list(snap) == ["nbrs", "eids", "times", "head", "count"]

        b = NeighborTable(4, mr=2)
        b.copy_rows(a, np.array([0, 2]))
        assert b.degree().tolist() == [2, 0, 2, 0]
        b.restore(snap)
        for t in (a, b):
            insert_seq(t, [(0, 2, 4, 5.0)])
        assert all(np.array_equal(x, y) for x, y in
                   zip(a.snapshot().values(), b.snapshot().values()))

        b.reset(np.array([0]))
        assert b.degree().tolist() == [0, 2, 2, 1]
        assert not b.gather(np.array([0])).mask.any()
        b.reset()
        fresh = NeighborTable(4, mr=2).snapshot()
        assert all(np.array_equal(x, y) for x, y in
                   zip(b.snapshot().values(), fresh.values()))

    def test_memory_words(self):
        t = NeighborTable(10, mr=5)
        assert t.memory_words() == 10 * 5 * 3

    def test_invalid_mr(self):
        with pytest.raises(ValueError):
            NeighborTable(5, mr=0)
