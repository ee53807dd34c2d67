"""Batch formation over the edge stream.

The paper (§II-A) defines both deployment modes we support:

* :func:`iter_fixed_size` — batches of a fixed number of graph signals
  (the mode used for the latency/throughput sweeps of Fig. 5, cols 1-2);
* :func:`iter_time_windows` — batches of all signals inside fixed wall-clock
  windows (the 15-minute real-time replay of Fig. 5, col 3).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Iterator

import numpy as np

from .temporal_graph import EdgeBatch, TemporalGraph

__all__ = ["iter_fixed_size", "iter_time_windows", "iter_time_window_spans",
           "time_window_spans"]


def iter_fixed_size(graph: TemporalGraph, batch_size: int,
                    start: int = 0, end: int | None = None
                    ) -> Iterator[EdgeBatch]:
    """Yield consecutive batches of ``batch_size`` edges from ``[start, end)``.

    The final batch may be smaller.  Batches are views into the stream.
    """
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    end = graph.num_edges if end is None else min(end, graph.num_edges)
    for lo in range(start, end, batch_size):
        yield graph.slice(lo, min(lo + batch_size, end))


def iter_time_windows(graph: TemporalGraph, window: float,
                      start: int = 0, end: int | None = None
                      ) -> Iterator[EdgeBatch]:
    """Yield batches covering consecutive time windows of length ``window``.

    Windows are aligned to the timestamp of the first yielded edge.  Empty
    windows are skipped (they carry no graph signals, hence no work), which
    matches how a deployed system would idle.
    """
    for _, _, batch in iter_time_window_spans(graph, window, start=start,
                                              end=end):
        yield batch


def iter_time_window_spans(graph: TemporalGraph, window: float,
                           start: int = 0, end: int | None = None
                           ) -> Iterator[tuple[float, float, EdgeBatch]]:
    """Yield ``(window_start, window_end, batch)`` for each non-empty window.

    Same iteration as :func:`iter_time_windows` but also reports the true
    window boundaries (``window_end = window_start + window``); every edge in
    ``batch`` satisfies ``window_start <= t < window_end``.  Consumers that
    need the wall-clock boundary rather than the first-edge timestamp (the
    real-time replay) read it from here.
    """
    starts, los, his = time_window_spans(graph, window, start=start, end=end)
    for window_start, lo, hi in zip(starts.tolist(), los.tolist(),
                                    his.tolist()):
        yield window_start, window_start + window, graph.slice(lo, hi)


def time_window_spans(graph: TemporalGraph, window: float,
                      start: int = 0, end: int | None = None
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(window_start, lo, hi)`` columns of every non-empty window.

    Window ``k`` covers edges ``[lo[k], hi[k])`` and starts at
    ``window_start[k]``.  One scalar step per non-empty window: a gap of
    empty windows is skipped in one jump that re-anchors the start, the
    window's end edge is one ``bisect_left`` on the timestamps as a list,
    and the next start is ``window_start + window``.  A stream with gaps
    (every serving workload) costs a few Python operations per window.
    """
    # ``not window > 0`` also rejects NaN, which would never advance.
    if not window > 0:
        raise ValueError("window must be positive")
    end = graph.num_edges if end is None else min(end, graph.num_edges)
    if start >= end:
        no_edges = np.empty(0, dtype=np.int64)
        return np.empty(0), no_edges, no_edges
    t = graph.t[:end].tolist()
    # Where timestamps are largest a float step is coarsest: a window
    # that cannot move the clock there would yield empty windows forever.
    coarsest = max(abs(t[start]), abs(t[end - 1]))
    if coarsest + window == coarsest:
        raise ValueError("window_s is below the timestamp resolution of "
                         "the stream")
    starts, his = [], []
    lo = start
    window_start = t[start]
    while lo < end:
        # Skip over empty windows so the next edge lands inside the window.
        if t[lo] >= window_start + window:
            window_start += float(math.floor((t[lo] - window_start)
                                             / window)) * window
            if t[lo] >= window_start + window:  # float round-off guard
                window_start = t[lo]
        lo = bisect_left(t, window_start + window, lo, end)
        starts.append(window_start)
        his.append(lo)
        window_start += window
    hi = np.array(his, dtype=np.int64)
    return (np.array(starts, dtype=np.float64),
            np.concatenate((np.array([start], dtype=np.int64), hi[:-1])), hi)
