"""Sustained-load response-time analysis for streaming deployment.

The Fig. 5 latency numbers assume each batch meets an idle device.  In
production the device may still be busy when the next window closes, so the
*response time* (enqueue → results) includes queueing delay.  This module
replays a stream's real window arrival process against a backend's service
times and reports waiting/response statistics and utilization — the number
an SLO is actually written against.

There is exactly **one** queue implementation in the repo: the discrete-
event core in :mod:`repro.serving.events`.  :func:`replay_under_load` is
the single-server compatibility wrapper over it, and the arrival process
itself comes from :func:`repro.serving.make_stream_arrivals` with one
stream — the same window-close arrival assembly the multi-stream serving
engine uses, so the two paths cannot drift apart.

Accounting contracts inherited from the shared core:

* utilization divides busy time by the makespan through the last
  completion and is bounded by 1; stability is judged by ``offered_load``.
* ``queue_capacity`` bounds *waiting* windows only; the in-service window
  does not count against the ingest buffer.

Works with any engine backend (simulated FPGA, modeled GPP, measured
software): service time is whatever ``process_batch`` reports.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..graph.temporal_graph import TemporalGraph

__all__ = ["QueueStats", "replay_under_load"]


@dataclass(frozen=True)
class QueueStats:
    """Response-time statistics of a loaded replay."""

    windows: int
    utilization: float          # busy time / makespan, in [0, 1]
    mean_wait_s: float
    mean_response_s: float      # wait + service
    p95_response_s: float
    max_queue_depth: int        # waiting windows (in-service excluded)
    dropped_windows: int        # arrivals while the queue was at capacity
    offered_load: float = 0.0   # arrival rate x mean service
    p99_response_s: float = 0.0

    @property
    def stable(self) -> bool:
        """A sustainable deployment keeps offered load below 1."""
        return self.offered_load < 1.0


def replay_under_load(backend, graph: TemporalGraph, window_s: float,
                      start: int = 0, end: int | None = None,
                      speedup: float = 1.0,
                      queue_capacity: int | None = None) -> QueueStats:
    """FIFO single-server queue driven by the stream's own window arrivals.

    ``speedup`` compresses stream time (2.0 = windows arrive twice as fast),
    the standard way to stress a deployment beyond its recorded load.
    ``queue_capacity`` (optional) drops arrivals when the backlog is full,
    modelling a bounded ingest buffer.

    Thin wrapper over the shared event core: one stream's window-close
    arrivals (:func:`repro.serving.make_stream_arrivals`) through one
    server (:func:`repro.serving.simulate_queue`); use
    :class:`repro.serving.ServingEngine` for multi-shard / multi-stream /
    pooled / hybrid deployments.
    """
    # The serving layer sits above this package (its measured backend is
    # a SoftwareBackend), so it is loaded on use, not at import.
    from ..serving.engine import make_stream_arrivals
    from ..serving.simulator import simulate_queue
    arrivals = make_stream_arrivals(graph, window_s, num_streams=1,
                                    start=start, end=end, speedup=speedup)
    res = simulate_queue(list(zip(arrivals.t.tolist(),
                                  map(arrivals.batch, range(len(arrivals))))),
                         backend.process_batch, num_servers=1,
                         queue_capacity=queue_capacity)
    return QueueStats(windows=res.jobs,
                      utilization=res.utilization,
                      mean_wait_s=res.mean_wait_s,
                      mean_response_s=res.mean_response_s,
                      p95_response_s=res.p95_response_s,
                      max_queue_depth=res.max_queue_depth,
                      dropped_windows=res.dropped,
                      offered_load=res.offered_load,
                      p99_response_s=res.p99_response_s)
