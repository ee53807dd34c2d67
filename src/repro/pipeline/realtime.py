"""Real-time streaming replay in fixed time windows (Fig. 5, right column).

The paper's production-environment experiment: replay the test stream in
15-minute windows, submit each window's edges as one batch, and record the
inference latency per window.  Window sizes vary wildly (the diurnal cycle
and burstiness of the generators show up directly), which is what produces
the latency fluctuation the paper highlights on the resource-constrained
ZCU104.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.batching import iter_time_window_spans
from ..graph.temporal_graph import TemporalGraph
from ..serving.events import sorted_percentile

__all__ = ["WindowPoint", "realtime_replay", "FIFTEEN_MINUTES"]

FIFTEEN_MINUTES = 15 * 60.0


@dataclass(frozen=True)
class WindowPoint:
    """Latency record for one replay window."""

    t_start_s: float        # window start (wall-clock boundary), stream time
    n_edges: int
    latency_s: float


def realtime_replay(backend, graph: TemporalGraph,
                    window_s: float = FIFTEEN_MINUTES,
                    start: int = 0, end: int | None = None
                    ) -> list[WindowPoint]:
    """Replay ``[start, end)`` in time windows through ``backend``.

    ``backend`` follows the engine protocol (``process_batch -> seconds``).
    Returns one point per non-empty window, in stream order.
    ``t_start_s`` is the true window boundary from
    :func:`~repro.graph.batching.iter_time_window_spans` — not the first
    edge's timestamp, which lands anywhere inside the window.
    """
    points: list[WindowPoint] = []
    for w_start, _, batch in iter_time_window_spans(graph, window_s,
                                                    start=start, end=end):
        latency = backend.process_batch(batch)
        points.append(WindowPoint(t_start_s=float(w_start),
                                  n_edges=len(batch),
                                  latency_s=latency))
    return points


def summarize(points: list[WindowPoint]) -> dict[str, float]:
    """Mean/percentile latency summary of a replay."""
    if not points:
        return {"windows": 0, "mean_s": 0.0, "p95_s": 0.0, "max_s": 0.0,
                "mean_edges": 0.0}
    lats = np.array([p.latency_s for p in points])
    sizes = np.array([p.n_edges for p in points])
    return {"windows": float(len(points)),
            "mean_s": float(lats.mean()),
            "p95_s": sorted_percentile(np.sort(lats), 95),
            "max_s": float(lats.max()),
            "mean_edges": float(sizes.mean())}
