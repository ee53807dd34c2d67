"""Property-based equivalence of the FIFO address read with the sorted read
it replaced.

``NeighborTable.gather`` reads a vertex's ``min(count, k)`` most recent
entries straight from the ring slots ``head - take .. head - 1``.  The body it
replaced — fetch the whole row, ``argsort`` it by time, truncate, flip and
roll the valid entries to the front — is kept here, and only here, as the
oracle.  The two agree on every valid slot, and on the mask, whenever each
vertex's entries arrive in increasing time: chronological inside an
``insert_edges`` call *and* across calls, which is the table's contract.
(On tied timestamps the sorted read returned ring-slot-descending order, an
accident of the stable sort; the address read returns arrival order.)

Streams wrap the ring, read with ``k < mr``, insert one vertex many times in
one batch, and pass through ``reset(rows)``, ``copy_rows`` and
``snapshot``/``restore``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import NeighborTable

N_NODES = 6


# --------------------------------------------------------------------------- #
# Oracle: the argsort gather, verbatim but for ``self._x`` becoming the
# snapshot's ``x``.
def sorted_gather(snap, vertices, k):
    nbrs = snap["nbrs"][vertices]
    eids = snap["eids"][vertices]
    times = snap["times"][vertices].copy()
    valid = times > -np.inf
    desc = np.argsort(-times, axis=1, kind="stable")
    rows = np.arange(len(vertices))[:, None]
    nbrs = nbrs[rows, desc][:, :k][:, ::-1]
    eids = eids[rows, desc][:, :k][:, ::-1]
    times = times[rows, desc][:, :k][:, ::-1]
    mask = valid[rows, desc][:, :k][:, ::-1]
    n_invalid = (~mask).sum(axis=1)
    if n_invalid.any():
        cols = (np.arange(k)[None, :] + n_invalid[:, None]) % k
        nbrs = nbrs[rows, cols]
        eids = eids[rows, cols]
        times = times[rows, cols]
        mask = mask[rows, cols]
    return nbrs, eids, times, mask


# --------------------------------------------------------------------------- #
vertex = st.integers(0, N_NODES - 1)
rows = st.lists(vertex, min_size=1, max_size=N_NODES, unique=True)
# One shared clock runs through every insert of a scenario, whichever table
# it lands in, so a row copied or restored is always older than what follows.
insert = st.tuples(st.just("insert"), st.sampled_from("ab"),
                   st.lists(st.tuples(vertex, vertex, st.integers(1, 4)),
                            max_size=14))
ops = st.lists(st.one_of(
    insert, insert, insert,
    st.tuples(st.just("reset"), rows),
    st.tuples(st.just("copy_rows"), rows),      # a <- b
    st.tuples(st.just("snapshot")),
    st.tuples(st.just("restore"))), min_size=1, max_size=12)


def assert_reads_agree(table, k):
    vertices = np.arange(N_NODES)
    got = table.gather(vertices, k)
    nbrs, eids, times, mask = sorted_gather(table.snapshot(), vertices, k)
    assert np.array_equal(got.mask, mask)
    assert np.array_equal(got.nbrs[mask], nbrs[mask])
    assert np.array_equal(got.eids[mask], eids[mask])
    assert np.array_equal(got.times[mask], times[mask])
    assert got.nbrs.shape == got.eids.shape == got.times.shape == (N_NODES, k)


def check(mr, ks, script):
    a, b = NeighborTable(N_NODES, mr), NeighborTable(N_NODES, mr)
    tables = {"a": a, "b": b}
    clock, eid, saved = 0.0, 0, a.snapshot()
    for op in script:
        if op[0] == "insert":
            edges = op[2]
            t = clock + np.cumsum([gap for _, _, gap in edges], dtype=float)
            tables[op[1]].insert_edges(
                np.array([s for s, _, _ in edges], dtype=np.int64),
                np.array([d for _, d, _ in edges], dtype=np.int64),
                np.arange(eid, eid + len(edges)), t)
            eid += len(edges)
            clock = t[-1] if len(edges) else clock
        elif op[0] == "reset":
            a.reset(np.array(op[1]))
        elif op[0] == "copy_rows":
            a.copy_rows(b, np.array(op[1]))
        elif op[0] == "snapshot":
            saved = a.snapshot()
        else:
            a.restore(saved)
        for k in ks:
            assert_reads_agree(a, min(k, mr))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 5), st.lists(st.integers(1, 5), min_size=1, max_size=2),
       ops)
def test_address_read_matches_the_sorted_read(mr, ks, script):
    check(mr, ks, script)


WRAPPING = [("insert", "a", [(0, 1, 1), (0, 2, 1), (0, 3, 1), (1, 0, 2)]),
            ("insert", "b", [(4, 0, 1)]),
            ("snapshot",),
            ("insert", "a", [(0, 5, 1), (0, 0, 1)]),
            ("copy_rows", [0, 4]),
            ("restore",),
            ("reset", [1])]


def test_oracle_catches_a_read_one_slot_late(monkeypatch):
    """Mutation check: start every read at ``head - take + 1`` and the
    property must fail on a stream that wraps a ring."""
    honest = NeighborTable.gather

    def late(self, vertices, k=None):
        self._head += 1
        try:
            return honest(self, vertices, k)
        finally:
            self._head -= 1

    check(3, [3, 2], WRAPPING)
    monkeypatch.setattr(NeighborTable, "gather", late)
    with pytest.raises(AssertionError):
        check(3, [3, 2], WRAPPING)
