"""Hand-built arrival traces and the per-batch merge they are checked by.

The serving layer takes arrivals as one
:class:`~repro.serving.batcher.ArrivalTrace` only, the columns
:func:`~repro.serving.make_stream_arrivals` builds.  Tests that script
their own arrivals build the trace with :func:`from_arrivals`, and
:func:`merge_batches` is the per-batch oracle of
:meth:`ArrivalTrace.merged`.  Not collected; import it as
``from tests.property.arrival_oracle import from_arrivals, merge_batches``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.graph.temporal_graph import EdgeBatch, TemporalGraph
from repro.serving.batcher import ArrivalTrace, StreamArrival

_COLUMNS = ("src", "dst", "t", "eid", "edge_feat")


def from_arrivals(arrivals: Sequence[StreamArrival]) -> ArrivalTrace:
    """A trace of hand-built arrivals, their batches concatenated once
    into the trace's own edge columns."""
    batches = [a.batch for a in arrivals]
    n = len(batches)
    cum = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.array([len(b) for b in batches], dtype=np.int64),
              out=cum[1:])
    edges = EdgeBatch(*(np.concatenate([getattr(b, name) for b in batches])
                        for name in _COLUMNS)) \
        if batches else TemporalGraph([], [], []).slice(0, 0)
    return ArrivalTrace(edges,
                        np.array([a.t for a in arrivals], dtype=np.float64),
                        np.array([a.stream for a in arrivals],
                                 dtype=np.int64),
                        cum, cum[:-1])


def merge_batches(batches: list[EdgeBatch]) -> EdgeBatch:
    """Concatenate edge batches into one chronological batch.

    Edges are re-sorted by timestamp (stable, so same-time edges keep their
    input order) because downstream state updates assume non-decreasing
    arrival — the contract a dynamic batcher must restore when it coalesces
    windows from independent streams.
    """
    if not batches:
        raise ValueError("merge_batches needs at least one batch")
    if len(batches) == 1:
        return batches[0]
    t = np.concatenate([b.t for b in batches])
    order = np.argsort(t, kind="stable")
    return EdgeBatch(*(np.concatenate([getattr(b, name) for b in batches])
                       [order] for name in _COLUMNS))
