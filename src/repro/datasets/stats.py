"""Stream statistics: the Δt analysis behind Fig. 1 and the LUT calibration.

The time encoder's input is the gap between a vertex's previous interaction
and the current graph signal.  Fig. 1 shows this distribution follows a power
law ("most inputs are close to 0"), which motivates equal-*frequency* (not
equal-width) LUT binning in §III-C.  These helpers compute exactly that
distribution from a stream, build the equal-frequency partition, and quantify
the heavy tail.
"""

from __future__ import annotations

import numpy as np

from ..graph.temporal_graph import TemporalGraph

__all__ = ["encoder_input_deltas", "delta_t_histogram",
           "equal_frequency_edges", "tail_heaviness"]


def encoder_input_deltas(graph: TemporalGraph) -> np.ndarray:
    """All Δt values the time encoder would see over one pass of the stream.

    For each edge, both endpoints observe ``t_e - t_last(v)`` where
    ``t_last`` is the vertex's previous interaction time (0 gap for a
    vertex's first appearance, matching a zero-initialised memory clock).
    Endpoints are visited source first, so a self-loop's destination sees
    a gap of 0.  One stable sort by vertex over the interleaved endpoints
    puts each vertex's visits in stream order; a visit's gap is its time
    minus the one before it in the same group.
    """
    nodes = np.empty(2 * graph.num_edges, dtype=np.int64)
    nodes[0::2], nodes[1::2] = graph.src, graph.dst
    order = np.argsort(nodes, kind="stable")
    times = np.repeat(graph.t, 2)[order]
    grouped = np.zeros(len(order))
    np.subtract(times[1:], times[:-1], out=grouped[1:],
                where=nodes[order[1:]] == nodes[order[:-1]])
    deltas = np.empty(len(order))
    deltas[order] = grouped
    return deltas


def delta_t_histogram(deltas: np.ndarray, n_bins: int = 50,
                      unit: float = 86_400.0
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Equal-width histogram of Δt in ``unit`` (days by default): Fig. 1.

    Returns ``(bin_edges, counts)`` with edges in the chosen unit.
    """
    days = np.asarray(deltas, dtype=np.float64) / unit
    counts, edges = np.histogram(days, bins=n_bins,
                                 range=(0.0, max(days.max(), 1e-9)))
    return edges, counts


def equal_frequency_edges(deltas: np.ndarray, n_bins: int = 128) -> np.ndarray:
    """Bin edges giving (approximately) equal Δt mass per bin (§III-C).

    Returns ``n_bins + 1`` non-decreasing edges with ``edges[0] = 0`` and
    ``edges[-1] = +inf`` so every future Δt maps to a bin.  Duplicate
    quantiles (heavy mass at tiny Δt) are allowed — those bins simply cover
    zero width, which preserves resolution where the data lives.
    """
    if n_bins <= 0:
        raise ValueError("n_bins must be positive")
    d = np.sort(np.asarray(deltas, dtype=np.float64))
    if len(d) == 0:
        raise ValueError("need at least one delta to calibrate bins")
    qs = np.linspace(0.0, 1.0, n_bins + 1)[1:-1]
    inner = np.quantile(d, qs)
    edges = np.concatenate(([0.0], inner, [np.inf]))
    return np.maximum.accumulate(edges)  # enforce monotonicity exactly


def tail_heaviness(deltas: np.ndarray) -> float:
    """Ratio median/mean of Δt; << 1 indicates the Fig. 1 power-law shape.

    For an exponential distribution this is ln2 ≈ 0.69; heavy-tailed bursty
    streams score far lower.  Used by tests to assert the generators produce
    the right regime.
    """
    d = np.asarray(deltas, dtype=np.float64)
    d = d[d > 0]
    if len(d) == 0:
        return 1.0
    return float(np.median(d) / d.mean())
