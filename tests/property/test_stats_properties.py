"""``encoder_input_deltas`` equals the per-event loop it replaced.

The loop walks the stream edge by edge, source endpoint then destination,
reading and advancing one clock per vertex.  It is kept here, and only here,
as the oracle of the sort-based form: the two must agree byte for byte,
self-loops and tied timestamps included.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.datasets import stats
from repro.graph import TemporalGraph

N_NODES = 6


def deltas_loop(graph):
    """The per-event form: each endpoint reads its vertex's clock, then
    sets it to the edge's time."""
    last = np.zeros(graph.num_nodes, dtype=np.float64)
    seen = np.zeros(graph.num_nodes, dtype=bool)
    deltas = np.empty(2 * graph.num_edges, dtype=np.float64)
    src, dst, t = graph.src, graph.dst, graph.t
    out = 0
    for i in range(graph.num_edges):
        for v in (src[i], dst[i]):
            deltas[out] = t[i] - last[v] if seen[v] else 0.0
            last[v] = t[i]
            seen[v] = True
            out += 1
    return deltas


@st.composite
def streams(draw, max_edges=40):
    n = draw(st.integers(0, max_edges))
    src = draw(st.lists(st.integers(0, N_NODES - 1), min_size=n, max_size=n))
    dst = draw(st.lists(st.integers(0, N_NODES - 1), min_size=n, max_size=n))
    # Zero gaps are drawn often, so tied timestamps are common.
    gaps = draw(st.lists(st.sampled_from([0.0, 0.0, 0.5, 1.0])
                         | st.floats(0.0, 1e6), min_size=n, max_size=n))
    return TemporalGraph(src, dst, np.cumsum(gaps), num_nodes=N_NODES)


def check(graph):
    assert stats.encoder_input_deltas(graph).tobytes() \
        == deltas_loop(graph).tobytes()


SELF_LOOPS = TemporalGraph([0, 1, 1, 0, 2, 1], [0, 1, 0, 0, 1, 1],
                           [1.0, 1.0, 2.5, 2.5, 4.0, 7.0], num_nodes=3)


@settings(deadline=None, max_examples=100)
@given(streams())
@example(SELF_LOOPS)
def test_sorted_form_equals_the_loop(graph):
    check(graph)


def test_an_unstable_sort_fails(monkeypatch):
    """Mutation check: the gaps need each vertex's visits in stream order,
    which only a stable sort keeps."""
    graph = TemporalGraph(np.zeros(16, dtype=np.int64),
                          np.ones(16, dtype=np.int64),
                          np.arange(16, dtype=np.float64))
    check(graph)

    class Unstable:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def argsort(a, kind=None):
            return np.argsort(a, kind="heapsort")

    monkeypatch.setattr(stats, "np", Unstable())
    with pytest.raises(AssertionError):
        check(graph)
