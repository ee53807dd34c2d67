"""The ownership control plane: sampler, eligibility mask, plan vetting.

The three policies (rebalancer, autoscaler, failure injector) only read
the plane and propose; these tests drive the plane directly, so what
"sampled once", "eligible" and "stale" mean is pinned independently of
any policy's decision rule.  Composed end-to-end runs live beside each
policy's own suite and in ``tests/property/test_control_properties.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.temporal_graph import EdgeBatch
from repro.serving import (ArrivalTrace, AutoScaler, CapacityConfig,
                           ControlPlane, EventScheduler, FailureInjector,
                           FailurePlan, MigrationEvent, OnlineRebalancer,
                           ServerGroup, ShardRouter, padded_hash_placement)
from repro.serving.control import Window


def jobs(*edges):
    """Released jobs of one arrival trace, an arrival each: job ``j`` has
    the edges ``src -> dst`` of ``edges[j] = (src, dst)``."""
    src, dst = (np.concatenate(col) for col in zip(*edges))
    n, cum = len(src), np.cumsum([0] + [len(e[0]) for e in edges])
    columns = EdgeBatch(src=src, dst=dst, t=np.zeros(n), eid=np.arange(n),
                        edge_feat=np.zeros((n, 0)))
    trace = ArrivalTrace(columns, np.zeros(len(edges)),
                         np.zeros(len(edges), dtype=np.int64), cum, cum[:-1])
    return [trace.span(j, j + 1) for j in range(len(edges))]


def fleet(num_shards=3, num_nodes=12, trace=True, **policies):
    sched = EventScheduler(trace=trace)
    groups = [ServerGroup(s, 1, lambda _p: 1.0, sched)
              for s in range(num_shards)]
    router = ShardRouter(num_shards, num_nodes)
    return sched, groups, router, ControlPlane(sched, groups, router, None,
                                               None, **policies)


class TestWindow:
    def test_two_window_lengths_share_one_accumulation(self):
        _, _, _, plane = fleet()
        short, long_ = Window(plane, 1.0), Window(plane, 10.0)
        first, second, third = jobs(([0, 1], [2, 2]), ([2], [3]), ([3], [0]))
        plane.observe(0.0, first)
        assert not short.closes(0.0) and not long_.closes(0.0)
        plane.observe(1.0, second)
        assert short.closes(1.0) and not long_.closes(1.0)
        assert short.heat[[0, 1, 2, 3]].tolist() == [1, 1, 3, 1]
        short.roll(1.0)
        plane.observe(1.5, third)
        # The short window restarted; the long one kept counting.
        assert short.heat[[0, 2, 3]].tolist() == [1, 0, 1]
        assert long_.heat[[0, 2, 3]].tolist() == [2, 3, 2]
        assert short.index == 1 and long_.index == 0
        assert plane.heat.sum() == 8

    def test_util_is_busy_time_since_the_window_opened(self):
        sched, groups, _, plane = fleet()
        groups[0].submit(0.0, "before")          # 1 s committed up front
        w = Window(plane, 1.0)
        assert not w.closes(0.0)
        groups[1].submit(0.0, "inside")
        assert w.util(2.0).tolist() == [0.0, 0.5, 0.0]


class TestHeatOnRead:
    @settings(deadline=None, max_examples=60)
    @given(st.data())
    def test_heat_read_equals_per_job_counting(self, data):
        """The plane counts heat only when it is read; the counts equal
        one ``np.add.at`` per observed job, whatever the spans of the one
        trace are: in any order, repeated, overlapping or apart, empty
        ones, and reads between any two of them."""
        num_nodes, m = 12, 30
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
        edges = EdgeBatch(src=rng.integers(0, num_nodes, m),
                          dst=rng.integers(0, num_nodes, m),
                          t=np.zeros(m), eid=np.arange(m),
                          edge_feat=np.zeros((m, 0)))
        sizes = data.draw(st.lists(st.integers(0, 4), min_size=1,
                                   max_size=8))
        cum = np.concatenate(([0], np.cumsum(sizes)))
        first = np.array([rng.integers(0, m - n + 1) for n in sizes])
        trace = ArrivalTrace(edges, np.zeros(len(sizes)),
                             np.zeros(len(sizes), dtype=np.int64), cum,
                             first)
        _, _, _, plane = fleet(num_nodes=num_nodes)
        want = np.zeros(num_nodes, dtype=np.int64)
        span = st.tuples(st.integers(0, len(sizes)),
                         st.integers(0, len(sizes))).map(sorted)
        steps = data.draw(st.lists(st.one_of(
            st.tuples(st.just("span"), span),
            st.tuples(st.just("read"), st.none())), max_size=12))
        for kind, arg in steps + [("read", None)]:
            if kind == "read":
                assert np.array_equal(plane.heat, want)
                continue
            sources = trace.span(*arg)
            rows = sources.rows()
            np.add.at(want, np.concatenate((sources.edges.src[rows],
                                            sources.edges.dst[rows])), 1)
            plane.observe(0.0, sources)


class TestEligibility:
    def test_dead_groups_and_inactive_slots_are_excluded(self):
        sched = EventScheduler()
        groups = [ServerGroup(s, 1, lambda _p: 1.0, sched)
                  for s in range(4)]
        auto = AutoScaler(CapacityConfig(micro_batch=1, replicas=2,
                                         max_replicas=4),
                          slo_p95_s=1.0, scale_window_s=1.0)
        router = ShardRouter.from_placement(padded_hash_placement(12, 2, 4))
        plane = ControlPlane(sched, groups, router, None, None,
                             autoscaler=auto)
        assert plane.eligible().tolist() == [True, True, False, False]
        auto.fleet_size = 3
        groups[0].fail()
        assert plane.eligible().tolist() == [False, True, True, False]
        groups[0].restore()
        assert plane.eligible().tolist() == [True, True, True, False]

    def test_without_a_scaler_every_accepting_group_is_eligible(self):
        _, groups, _, plane = fleet()
        groups[2].fail()
        assert plane.eligible().tolist() == [True, True, False]


class TestPlanVetting:
    def test_stale_plans_are_dropped_counted_and_leave_no_trace(self):
        reb = OnlineRebalancer(window_s=1.0)
        sched, groups, router, plane = fleet(rebalancer=reb)
        v = int(np.flatnonzero(router.assignment == 0)[0])
        w = int(np.flatnonzero(router.assignment == 0)[1])
        plane.propose(reb, 0.0, v, 1, "overload")
        plane.propose(reb, 0.0, v, 2, "overload")   # overtaken by the first
        plane.propose(reb, 0.0, w, 2, "overload")   # target dies first
        groups[2].fail()
        sched.run()
        assert (plane.proposed, plane.stale) == (3, 2)
        moves = [e for e in sched.trace if isinstance(e, MigrationEvent)]
        assert moves == reb.migration_log == [
            MigrationEvent(0.0, v, 0, 1, 2, "overload")]
        assert router.assignment[v] == 1 and router.assignment[w] == 0
        assert reb.handoff_rows == 2

    def test_handoff_rows_are_owed_by_the_destination_once(self):
        reb = OnlineRebalancer(window_s=1.0)
        sched = EventScheduler()
        groups = [ServerGroup(s, 1, lambda _p: 1.0, sched)
                  for s in range(3)]
        router = ShardRouter(3, 12)
        plane = ControlPlane(sched, groups, router, None,
                             np.array([0, 1, 0]), rebalancer=reb)
        for v in np.flatnonzero(router.assignment == 0)[:2]:
            plane.propose(reb, 0.0, v, 1, "overload")    # crosses a die
        v = int(np.flatnonzero(router.assignment == 0)[2])
        plane.propose(reb, 0.0, v, 2, "overload")        # same die: free
        sched.run()
        assert [plane.take_hops(s) for s in range(3)] == [0, 4, 0]
        assert plane.take_hops(1) == 0


class TestFailureInjectorOnThePlane:
    def test_start_validates_the_fleet(self):
        sched = EventScheduler()
        groups = [ServerGroup(i, 1, lambda p: 1.0, sched) for i in range(2)]
        far = FailureInjector(FailurePlan(fail_at=1.0, shard=3))
        with pytest.raises(ValueError, match="out of range"):
            ControlPlane(sched, groups, ShardRouter(2, 8), None, None,
                         injector=far)
        lone = FailureInjector(FailurePlan(fail_at=1.0, shard=0))
        with pytest.raises(ValueError, match="survivor"):
            ControlPlane(sched, groups[:1], ShardRouter(1, 8), None, None,
                         injector=lone)

    def test_a_lone_active_shard_of_an_elastic_fleet_has_no_survivor(self):
        """Padded autoscale slots are not survivors: the rule reads the
        shards eligible at start, not the slot count."""
        sched = EventScheduler()
        groups = [ServerGroup(s, 1, lambda _p: 1.0, sched) for s in range(3)]

        def start(replicas):
            auto = AutoScaler(CapacityConfig(micro_batch=1, replicas=replicas,
                                             max_replicas=3),
                              slo_p95_s=1.0, scale_window_s=1.0)
            router = ShardRouter.from_placement(
                padded_hash_placement(12, replicas, 3))
            return ControlPlane(
                sched, groups, router, None, None, autoscaler=auto,
                injector=FailureInjector(FailurePlan(fail_at=1.0, shard=0)))

        with pytest.raises(ValueError, match="survivor"):
            start(replicas=1)
        assert start(replicas=2).eligible().sum() == 2

    def test_total_outage_leaves_ownership_until_recovery(self):
        """With no eligible shard left there is nowhere to evacuate to:
        ownership stays put (the windows drop) and recovery has nothing
        to fail back."""
        inj = FailureInjector([FailurePlan(1.0, shard=0),
                               FailurePlan(2.0, shard=1, recover_at=3.0)])
        sched, groups, router, plane = fleet(num_shards=2, injector=inj)
        before = router.assignment.copy()
        sched.run()
        # Shard 0's vertices went to shard 1; shard 1 then had no
        # survivor, so everything is still assigned to it.
        assert (router.assignment == 1).all()
        assert inj.rebuilt_vertices == int((before == 0).sum())
        assert plane.proposed == 0 and groups[1].accepting
