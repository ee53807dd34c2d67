"""Temporal-graph substrate: stream storage, neighbor tables, vertex state."""

from .batching import (iter_fixed_size, iter_time_window_spans,  # noqa: F401
                       iter_time_windows, merge_batches, time_window_spans)
from .neighbor_table import GatheredNeighbors, NeighborTable  # noqa: F401
from .sampler import FIFONeighborSampler, FullHistorySampler  # noqa: F401
from .state import VertexState  # noqa: F401
from .temporal_graph import EdgeBatch, TemporalGraph  # noqa: F401

__all__ = [
    "TemporalGraph", "EdgeBatch",
    "NeighborTable", "GatheredNeighbors",
    "FullHistorySampler", "FIFONeighborSampler",
    "VertexState",
    "iter_fixed_size", "iter_time_windows", "iter_time_window_spans",
    "time_window_spans", "merge_batches",
]
