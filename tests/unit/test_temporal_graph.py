"""Unit tests for the temporal graph container and batching."""

import numpy as np
import pytest

from repro.graph import (TemporalGraph, iter_fixed_size,
                         iter_time_window_spans, iter_time_windows)
from repro.serving import make_stream_arrivals


def small_graph(n=10):
    t = np.arange(n, dtype=float) * 10.0
    ef = np.arange(n * 2, dtype=float).reshape(n, 2)
    return TemporalGraph(src=np.zeros(n, dtype=int),
                         dst=np.arange(1, n + 1), t=t, edge_feat=ef)


class TestConstruction:
    def test_basic_properties(self):
        g = small_graph()
        assert g.num_edges == 10
        assert g.num_nodes == 11
        assert g.edge_dim == 2
        assert g.node_dim == 0
        assert g.duration == 90.0

    def test_rejects_decreasing_timestamps(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            TemporalGraph([0, 0], [1, 2], [5.0, 1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_timestamps(self, bad):
        # np.diff(t) < 0 is False around a NaN: sortedness alone lets it in.
        with pytest.raises(ValueError, match="finite"):
            TemporalGraph([0, 0, 0, 0], [1, 2, 3, 4], [0.0, 1.0, bad, 3.0])

    def test_rejects_negative_ids(self):
        with pytest.raises(ValueError):
            TemporalGraph([-1], [0], [0.0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            TemporalGraph([0, 1], [1], [0.0, 1.0])

    def test_rejects_bad_feature_rows(self):
        with pytest.raises(ValueError):
            TemporalGraph([0], [1], [0.0], edge_feat=np.zeros((3, 2)))
        with pytest.raises(ValueError):
            TemporalGraph([0], [1], [0.0], node_feat=np.zeros((1, 4)))

    def test_num_nodes_override(self):
        g = TemporalGraph([0], [1], [0.0], num_nodes=100)
        assert g.num_nodes == 100
        with pytest.raises(ValueError):
            TemporalGraph([0], [5], [0.0], num_nodes=2)

    def test_empty_feature_defaults(self):
        g = TemporalGraph([0], [1], [0.0])
        assert g.edge_feat.shape == (1, 0)
        assert g.node_feat.shape == (2, 0)


class TestSlicing:
    def test_slice_is_view(self):
        g = small_graph()
        b = g.slice(2, 5)
        assert len(b) == 3
        assert b.src.base is g.src or b.src is g.src[2:5]
        assert np.array_equal(b.eid, [2, 3, 4])

    def test_nodes_interleaved(self):
        g = small_graph()
        b = g.slice(0, 2)
        assert np.array_equal(b.nodes, [0, 1, 0, 2])

    def test_split_boundaries(self):
        g = small_graph()
        _, (tr, va, te) = g.split(0.7, 0.15)
        assert (tr, va, te) == (7, 8, 10)
        with pytest.raises(ValueError):
            g.split(0.9, 0.2)


class TestFixedSizeBatching:
    def test_covers_all_edges_once(self):
        g = small_graph()
        batches = list(iter_fixed_size(g, 3))
        assert [len(b) for b in batches] == [3, 3, 3, 1]
        eids = np.concatenate([b.eid for b in batches])
        assert np.array_equal(eids, np.arange(10))

    def test_start_end_window(self):
        g = small_graph()
        batches = list(iter_fixed_size(g, 4, start=2, end=8))
        assert [len(b) for b in batches] == [4, 2]
        assert batches[0].eid[0] == 2

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            list(iter_fixed_size(small_graph(), 0))


class TestTimeWindowBatching:
    def test_windows_partition_stream(self):
        g = small_graph()  # edges at t = 0, 10, ..., 90
        batches = list(iter_time_windows(g, window=25.0))
        eids = np.concatenate([b.eid for b in batches])
        assert np.array_equal(eids, np.arange(10))
        # window [0, 25) -> t 0,10,20; [25,50) -> 30,40; etc.
        assert [len(b) for b in batches] == [3, 2, 3, 2]

    def test_empty_windows_skipped(self):
        t = np.array([0.0, 1.0, 1000.0])
        g = TemporalGraph([0, 0, 0], [1, 2, 3], t)
        batches = list(iter_time_windows(g, window=10.0))
        assert len(batches) == 2
        assert len(batches[0]) == 2 and len(batches[1]) == 1

    def test_every_batch_nonempty(self):
        g = small_graph()
        for b in iter_time_windows(g, window=7.0):
            assert len(b) > 0

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            list(iter_time_windows(small_graph(), 0.0))

    def test_window_below_timestamp_resolution_is_an_error(self):
        """At t ~ 1e9 a float64 step is ~1.2e-7, so ``window_start + 1e-8
        == window_start``: the windows never advance.  That used to yield
        empty batches forever; it is a ``ValueError`` now, wherever in the
        requested range the timestamps get that coarse."""
        g = TemporalGraph([0, 0, 0], [1, 2, 3],
                          np.array([1.0, 1e9, 1e9 + 1.0]))
        with pytest.raises(ValueError, match="timestamp resolution"):
            list(iter_time_windows(g, 1e-8))
        with pytest.raises(ValueError, match="timestamp resolution"):
            make_stream_arrivals(g, 1e-8)
        # The same window is fine on the part of the stream it resolves.
        assert len(list(iter_time_windows(g, 1e-8, end=1))) == 1


class TestTimeWindowSpans:
    """Window-boundary reporting, gap skipping, and the round-off guard."""

    def test_spans_contain_their_edges(self):
        g = small_graph()  # edges at t = 0, 10, ..., 90
        for w_start, w_end, b in iter_time_window_spans(g, window=25.0):
            assert w_end == w_start + 25.0
            assert np.all(b.t >= w_start) and np.all(b.t < w_end)

    def test_multi_window_gap_keeps_alignment(self):
        # A gap spanning many empty windows: the next span must stay on the
        # original 10 s grid (100 lands in [100, 110), not in a re-aligned
        # window), and no empty batch is ever yielded.
        t = np.array([0.0, 1.0, 100.0, 101.0, 502.0])
        g = TemporalGraph([0] * 5, [1, 2, 3, 4, 1], t)
        spans = list(iter_time_window_spans(g, window=10.0))
        assert [(s, e) for s, e, _ in spans] == \
            [(0.0, 10.0), (100.0, 110.0), (500.0, 510.0)]
        assert all(len(b) > 0 for _, _, b in spans)
        assert sum(len(b) for _, _, b in spans) == g.num_edges

    def test_float_round_off_guard_realigns(self):
        # After the first window the grid sits at 0.1; the skip to t = 0.7
        # computes floor(0.6 / 0.1) = 5 in float64 and lands the window at
        # [0.6, 0.7), which excludes t = 0.7 (0.6 + 0.1 rounds just below
        # 0.7).  The guard must re-anchor the window at the edge instead of
        # yielding an empty batch.
        g = TemporalGraph([0, 0], [1, 2], np.array([0.0, 0.7]))
        spans = list(iter_time_window_spans(g, window=0.1))
        assert len(spans) == 2
        assert spans[1][0] == 0.7           # re-anchored, not 0.6
        assert all(len(b) == 1 for _, _, b in spans)
        for w_start, w_end, b in spans:
            assert np.all(b.t >= w_start) and np.all(b.t < w_end)

    def test_windows_view_matches_spans(self):
        g = small_graph()
        from_windows = [b.eid.tolist() for b in iter_time_windows(g, 7.0)]
        from_spans = [b.eid.tolist()
                      for _, _, b in iter_time_window_spans(g, 7.0)]
        assert from_windows == from_spans
