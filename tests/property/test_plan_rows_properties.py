"""Property-based equivalence of the route plan's row views.

``RoutePlan.next`` hands each sub-job out as a :class:`PlanRows` view of
the plan's columns, which slices a column (and takes the feature rows)
only when it is read.  The body it replaced built a frozen
:class:`EdgeBatch` per sub-job, with one feature ``take`` per job; it is
kept here, and only here, as the oracle.  Random replicated placements,
all three memsync policies and none, with and without a mailbox: every
view must equal the oracle's batch in ``len``, in all five columns
(value, dtype, shape) and in ``nodes``, and the mailbox and cache state
must be identical after every job.  A view is read again once every plan
is spent, so what a waiting job reads never changes.
"""

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import EdgeBatch
from repro.serving import MEMSYNC_POLICIES, ShardRouter
from repro.serving.router import PlanRows
from tests.property.test_ownership_properties import (NUM_NODES,
                                                      replicated_placement)
from tests.property.test_split_properties import (Fleet, assert_same_array,
                                                  assert_same_state,
                                                  edge_lists, make_batch)

COLUMNS = [f.name for f in dataclasses.fields(EdgeBatch)]


# --------------------------------------------------------------------------- #
# The oracle: ``RoutePlan.next`` as it built an EdgeBatch per sub-job,
# verbatim but for taking the plan as an argument.
def oracle_next(self):
    job = self.position
    self.position = job + 1
    n = self.num_shards
    at = job * n
    bounds = self.bounds[at:at + n + 1]
    if self._mailbox is not None:
        lo, hi = self.mail_bounds[at], self.mail_bounds[at + n]
        self._mailbox.record(self.mail_from[lo:hi], self._mail_to[lo:hi])
    if self._cache is not None:
        self._cache.commit(self._steps, job)
    first = bounds[0]
    feat = self._feat.take(self._row[first:bounds[-1]], axis=0)
    out = []
    for shard in range(n):
        lo, hi = bounds[shard], bounds[shard + 1]
        if lo == hi:
            continue
        # Positional: EdgeBatch field order.
        out.append((at + shard, shard, EdgeBatch(
            self._src[lo:hi], self._dst[lo:hi], self._t[lo:hi],
            self._eid[lo:hi], feat[lo - first:hi - first])))
    return out


# --------------------------------------------------------------------------- #
def assert_rows_equal(rows, batch):
    assert isinstance(rows, PlanRows)
    assert len(rows) == len(batch)
    for name in COLUMNS:
        assert_same_array(getattr(rows, name), getattr(batch, name))
    assert_same_array(rows.nodes, batch.nodes)


def check_rows(drawn, policy, with_mailbox, jobs, skip=0):
    """Hand out ``jobs`` (edge lists, after ``skip`` unplanned edges) from
    one plan on each of two fleets: the views on one, the oracle's
    batches on the other."""
    new, old = (Fleet(*drawn, policy, with_mailbox) for _ in range(2))
    lists = [[(0, 0)] * skip, *jobs]
    starts = np.cumsum([0] + [len(edges) for edges in lists])
    batches = [make_batch(edges, int(eid0))
               for edges, eid0 in zip(lists, starts)]
    edges = EdgeBatch(*(np.concatenate([getattr(b, name) for b in batches])
                        for name in COLUMNS))
    job_edges = np.cumsum([0] + [len(edges) for edges in jobs])
    rows = np.arange(skip, skip + job_edges[-1])
    plans = [fleet.router.plan(edges, job_edges, rows, mailbox=fleet.mailbox,
                               cache=fleet.cache) for fleet in (new, old)]
    handed = []
    for _ in jobs:
        got, want = plans[0].next(), oracle_next(plans[1])
        assert [run[:2] for run in got] == [run[:2] for run in want]
        for (_, _, view), (_, _, batch) in zip(got, want):
            assert_rows_equal(view, batch)
            handed.append((view, batch))
        assert_same_state(new, old)
    # Every plan is spent and the cache has moved on: a view still reads
    # what it read when its job was handed out.
    for view, batch in handed:
        assert_rows_equal(view, batch)


class TestRowsMatchTheBatches:
    @settings(deadline=None, max_examples=150)
    @given(replicated_placement(),
           st.sampled_from((None, *MEMSYNC_POLICIES)), st.booleans(),
           st.lists(edge_lists, min_size=1, max_size=8),
           st.integers(0, 3))
    def test_views_equal_the_oracle_batches(self, drawn, policy,
                                            with_mailbox, jobs, skip):
        check_rows(drawn, policy, with_mailbox, jobs, skip)

    # Two shards, vertices split by parity: both jobs touch both shards,
    # and the second job's runs start past row 0.
    DRAWN = (np.arange(NUM_NODES) % 2, {}, 2)
    JOBS = [[(0, 1)], [(2, 3), (0, 3)]]

    def test_the_fixed_plan_passes(self):
        check_rows(self.DRAWN, "push", True, self.JOBS, skip=1)

    def test_a_view_one_row_early_fails(self, monkeypatch):
        """Mutation check: a view whose rows start one pair early reads
        the previous run's last edge."""
        honest = PlanRows.__init__

        def early(rows, plan, lo, hi):
            honest(rows, plan, max(lo - 1, 0), hi)

        monkeypatch.setattr(PlanRows, "__init__", early)
        with pytest.raises(AssertionError):
            check_rows(self.DRAWN, "push", True, self.JOBS, skip=1)


class TestPickledRows:
    def test_a_view_pickles_as_its_edge_batch_without_the_plan(self):
        """A measured lane pickles the payload batch into its worker: a
        1-edge view of a plan over thousands of edges arrives as an equal
        :class:`EdgeBatch`, in no more bytes than that batch's own."""
        rng = np.random.default_rng(0)
        n = 4000
        ends = rng.integers(0, NUM_NODES, size=(n, 2))
        edges = make_batch(ends.tolist(), 0)
        plan = ShardRouter(4, NUM_NODES).plan(edges, [0, 1, n])
        (_, _, view), *_ = plan.next()
        assert len(view) == 1
        batch = EdgeBatch(*(getattr(view, name) for name in COLUMNS))
        data = pickle.dumps(view)
        back = pickle.loads(data)
        assert type(back) is EdgeBatch
        for name in COLUMNS:
            assert_same_array(getattr(back, name), getattr(batch, name))
        assert len(data) <= len(pickle.dumps(batch))
