"""Batch formation over the edge stream.

The paper (§II-A) defines both deployment modes we support:

* :func:`iter_fixed_size` — batches of a fixed number of graph signals
  (the mode used for the latency/throughput sweeps of Fig. 5, cols 1-2);
* :func:`iter_time_windows` — batches of all signals inside fixed wall-clock
  windows (the 15-minute real-time replay of Fig. 5, col 3).
"""

from __future__ import annotations

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
    ``window_start[k]``.  The starts follow the scalar recurrence
    ``window_start += window`` bit for bit: inside a run of consecutive
    non-empty windows they are one sequential ``cumsum``, cut into edge
    spans by one ``searchsorted``; only a gap (empty windows to skip)
    costs a Python step, which re-anchors the start exactly as a
    one-window-at-a-time loop would.
    """
    if window <= 0:
        raise ValueError("window must be positive")
    end = graph.num_edges if end is None else min(end, graph.num_edges)
    if start >= end:
        no_edges = np.empty(0, dtype=np.int64)
        return np.empty(0), no_edges, no_edges
    t = graph.t
    # Where timestamps are largest a float step is coarsest: a window
    # that cannot move the clock there would yield empty windows forever.
    coarsest = max(abs(float(t[start])), abs(float(t[end - 1])))
    if coarsest + window == coarsest:
        raise ValueError("window_s is below the timestamp resolution of "
                         "the stream")
    starts: list[np.ndarray] = []
    his: list[np.ndarray] = []
    stream = t[start:end]
    lo = start
    window_start = float(t[start])
    max_chunk = 1024
    steps = np.full(max_chunk + 1, window, dtype=np.float64)
    chunk = 32
    while lo < end:
        # Skip over empty windows so the next edge lands inside the window.
        if t[lo] >= window_start + window:
            n_skip = np.floor((t[lo] - window_start) / window)
            window_start += float(n_skip) * window
            if t[lo] >= window_start + window:  # float round-off guard
                window_start = float(t[lo])
        # The next ``chunk`` window boundaries, accumulated one addition
        # at a time, and the edge each one cuts the stream at.
        steps[0] = window_start
        bounds = steps[:chunk + 1].cumsum()
        cuts = stream.searchsorted(bounds[1:], side="left")
        # The run ends at the first window that holds no edge (the head
        # window always holds ``t[lo]``).
        is_empty = cuts[1:] == cuts[:-1]
        n = int(is_empty.argmax())
        n = n + 1 if is_empty[n] else chunk
        starts.append(bounds[:n])
        his.append(cuts[:n])
        lo = start + int(cuts[n - 1])
        window_start = float(bounds[n])
        # Size the next look-ahead by the run just seen.
        chunk = min(2 * chunk, max_chunk) if n == chunk else max(2 * n, 16)
    hi = np.concatenate(his) + start
    return (np.concatenate(starts),
            np.concatenate((np.array([start], dtype=np.int64), hi[:-1])), hi)
