"""Property-based equivalence of the one-shard path's job views.

A fleet of one station (``topology="pool"``, or one shard) hands each
released job to its station as a :class:`JobRows` view, which gathers
the job's merged batch only when a column is read.  The handout it
replaced, ``arrivals.span(lo, hi).merged()``, is kept here, and only
here, as the oracle: taken at the same instant from the same bounds.
Random traces of 1-8 streams (same-instant cross-stream ties, tied and
bursty timestamps), passthrough (lone-arrival jobs), size and deadline
batchers, serial and pipelined ingest: every view the station is handed
must equal the oracle's batch in ``len``, in all five columns (value,
dtype, shape) and in ``nodes``, and pickle as that :class:`EdgeBatch`.
"""

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.serving.engine as engine_module
from repro.graph import EdgeBatch, TemporalGraph
from repro.pipeline import LinearCostBackend
from repro.serving import DynamicBatcher, ServingEngine
from repro.serving.batcher import JobRows
from tests.property.test_ingest_properties import (NUM_NODES, batchers,
                                                   streams)
from tests.property.test_split_properties import assert_same_array

COLUMNS = [f.name for f in dataclasses.fields(EdgeBatch)]


class Recording(LinearCostBackend):
    """A priced backend that keeps every batch it is handed, unread."""

    def __init__(self):
        super().__init__(per_edge_s=1e-4)
        self.handed = []

    def process_batch(self, batch) -> float:
        self.handed.append(batch)
        return super().process_batch(batch)


def hand_out(replay, cfg, topology, ingest):
    """Serve ``replay`` on one station; the views its backend was handed
    and, per view, the oracle's batch for the same job."""
    (graph, window, start, end), num_streams, speedup = replay
    backend, views, oracle = Recording(), [], []

    def recorded(arrivals, lo, hi, n_edges):
        # The handout the view replaced, verbatim.
        oracle.append(arrivals.span(lo, hi).merged())
        views.append(JobRows(arrivals, lo, hi, n_edges))
        return views[-1]

    engine = ServingEngine([backend], NUM_NODES, topology=topology,
                           pool_servers=2 if topology == "pool" else None,
                           batcher=DynamicBatcher(**cfg))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine_module, "JobRows", recorded)
        engine.run(graph, window, start=start, end=end, speedup=speedup,
                   num_streams=num_streams, ingest=ingest)
    # FIFO on one queue: the backend prices the jobs in release order.
    assert len(backend.handed) == len(views)
    assert all(a is b for a, b in zip(backend.handed, views))
    return views, oracle


def assert_view_equal(view, batch):
    assert isinstance(view, JobRows)
    assert len(view) == len(batch)
    for name in COLUMNS:
        assert_same_array(getattr(view, name), getattr(batch, name))
    assert_same_array(view.nodes, batch.nodes)
    # One gather, kept: a second read is the same array.
    assert view.src is view.src
    back = pickle.loads(pickle.dumps(view))
    assert type(back) is EdgeBatch
    for name in COLUMNS:
        assert_same_array(getattr(back, name), getattr(batch, name))


def check_views(replay, cfg, topology="pool", ingest="serial"):
    views, oracle = hand_out(replay, cfg, topology, ingest)
    assert views
    for view, batch in zip(views, oracle):
        assert_view_equal(view, batch)


replays = st.tuples(streams(), st.integers(1, 8),
                    st.sampled_from([1.0, 2.0, 50.0, 1e3]))


class TestViewsMatchTheMergedBatches:
    @settings(deadline=None, max_examples=150)
    @given(replays, batchers, st.sampled_from(["pool", "sharded"]),
           st.sampled_from(["serial", "pipelined"]))
    def test_views_equal_the_oracle_batches(self, replay, cfg, topology,
                                            ingest):
        check_views(replay, cfg, topology, ingest)

    @staticmethod
    def fixed_replay():
        """Three streams of twelve one-second windows, two edges each, on
        a 2.5 s deadline: every job spans several arrivals."""
        rng = np.random.default_rng(49)
        t = np.repeat(np.arange(12.0), 2)
        graph = TemporalGraph(src=rng.integers(0, NUM_NODES, 24),
                              dst=rng.integers(0, NUM_NODES, 24), t=t,
                              edge_feat=rng.normal(size=(24, 2)),
                              num_nodes=NUM_NODES)
        return (graph, 1.0, 0, None), 3, 1.0

    def test_the_fixed_replay_passes(self):
        check_views(self.fixed_replay(), dict(max_delay_s=2.5))

    def test_a_view_one_arrival_short_fails(self, monkeypatch):
        """Mutation check: a view over arrivals ``[lo, hi - 1)`` misses
        its job's last window."""
        honest = JobRows.__init__

        def short(rows, arrivals, lo, hi, n_edges):
            honest(rows, arrivals, lo, max(lo, hi - 1), n_edges)

        monkeypatch.setattr(JobRows, "__init__", short)
        with pytest.raises(AssertionError):
            check_views(self.fixed_replay(), dict(max_delay_s=2.5))
