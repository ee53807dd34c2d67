"""Property-based equivalence of ``UpdaterCache.process`` and its closed form.

``process`` walks the vertex ids once for the dedup decision and prices the
commit in closed form.  The occupancy loop it replaced is kept here, and
only here, as the oracle, verbatim but for taking the cache as an argument.
Every :class:`UpdaterReport` field must be equal (survivors array-equal,
value and dtype) over cache depths that do and do not stall and every scan
width; the closed form itself is pinned against the definition it states.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw import UpdaterCache
from repro.hw.updater import UpdaterReport


def oracle_process(self, vertex_ids):
    v = np.asarray(vertex_ids, dtype=np.int64)
    n = len(v)
    if n == 0:
        return UpdaterReport(cycles=0, invalidated=0, committed=0,
                             survivors=np.zeros(0, dtype=np.int64),
                             stalled_cycles=0)

    # Functional outcome: last occurrence of each vertex commits, except
    # when the older line already committed before the newer arrival.
    # With one arrival per cycle and `scan_width >= 1`, a line older than
    # `lines` ago has always committed; we conservatively model the
    # invalidation window as the cache depth.
    survivors_mask = np.ones(n, dtype=bool)
    last_seen: dict[int, int] = {}
    invalidated = 0
    for i, vid in enumerate(v):
        j = last_seen.get(int(vid))
        if j is not None and i - j < self.lines:
            # Older update still (potentially) uncommitted: invalidate.
            survivors_mask[j] = False
            invalidated += 1
        last_seen[int(vid)] = i

    # Timing: arrivals at 1/cycle, retirement at `scan_width`/cycle from
    # the FIFO head.  Occupancy-driven stall computation.
    occupancy = 0
    stalled = 0
    cycles = 0
    pending = 0  # valid, uncommitted lines
    for i in range(n):
        # Retire before accepting (commit pointer runs concurrently).
        retired = min(self.scan_width, pending)
        pending -= retired
        occupancy -= retired
        if occupancy >= self.lines:
            # Stall until the commit pointer frees a line.
            need_cycles = 1
            stalled += need_cycles
            cycles += need_cycles
            retired = min(self.scan_width, pending)
            pending -= retired
            occupancy -= retired
        occupancy += 1
        if survivors_mask[i]:
            pending += 1
        # An invalidated line is reclaimed lazily when scanned; model it
        # as occupancy that drains with the same scan.
        cycles += 1
    # Drain remaining valid lines.
    cycles += -(-pending // self.scan_width)
    return UpdaterReport(cycles=cycles, invalidated=invalidated,
                         committed=int(survivors_mask.sum()),
                         survivors=np.nonzero(survivors_mask)[0],
                         stalled_cycles=stalled)


# Few distinct vertices, so repeats (and with a shallow cache, stalls) are
# the common case; sizes from empty to several cache depths.
vertex_ids = st.one_of(
    st.lists(st.integers(0, 3), max_size=40),
    st.lists(st.integers(0, 40), max_size=80))
caches = st.builds(UpdaterCache, st.integers(1, 12), st.integers(1, 8))


def assert_same_report(got, want):
    for f in dataclasses.fields(UpdaterReport):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if f.name == "survivors":
            assert a.dtype == b.dtype and np.array_equal(a, b)
        else:
            assert type(a) is type(b) is int and a == b, f.name


class TestClosedFormMatchesTheLoop:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(caches, vertex_ids)
    def test_every_field_equals_the_occupancy_loop(self, cache, ids):
        assert_same_report(cache.process(np.array(ids, dtype=np.int64)),
                           oracle_process(cache, ids))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(caches, vertex_ids.filter(len))
    def test_cycles_are_arrivals_stalls_and_one_drain(self, cache, ids):
        """``cycles == n + stalled + 1``; arrival ``i`` stalls when at
        least ``lines`` lines before it were invalidated; the scan width
        never enters."""
        report = cache.process(np.array(ids))
        dead = np.ones(len(ids), dtype=bool)
        dead[report.survivors] = False
        dead_before = np.cumsum(dead) - dead
        assert report.stalled_cycles == int((dead_before >= cache.lines).sum())
        assert report.cycles == len(ids) + report.stalled_cycles + 1
        wide = UpdaterCache(cache.lines, cache.scan_width + 5)
        assert wide.process(np.array(ids)).cycles == report.cycles

    def test_stalls_follow_where_the_invalidated_lines_sit(self):
        """Same size, same commits, different stalls: the timing reads the
        position of the ``lines``-th invalidated line, not only a count."""
        cache = UpdaterCache(lines=2, scan_width=3)
        early = cache.process(np.array([0, 0, 0, 1, 2, 3, 4, 5]))
        late = cache.process(np.array([1, 2, 3, 4, 5, 0, 0, 0]))
        assert early.committed == late.committed == 6
        assert (early.stalled_cycles, late.stalled_cycles) == (6, 1)
        assert early.cycles - late.cycles == 5
