"""Failure injection and exact replica failover (ISSUE 7).

Four contracts pin the subsystem:

* **Fail-stop semantics** — a dead :class:`ServerGroup` drops queued and
  newly offered jobs *with accounting* (served + dropped == offered), a
  slow one multiplies its service times; conservation holds through the
  outage on the full event loop.
* **Exact failover** — :meth:`ShardRouter.fail_over` promotes replica
  mirrors to owners and rebuilds the rest;
  :meth:`ShardedRuntime.fail_shard` + :meth:`recover_shard` produce
  held-vertex memory tables bit-identical to the unsharded runtime after
  recovery — the headline acceptance.
* **Exactly-once ownership** — the promote / rebuild / fail-back
  :class:`MigrationEvent` chain in the trace is linearizable, exactly
  like the rebalancer's.
* **Stationarity** — a run whose chaos schedule never bites is
  byte-identical to the plain engine (the chaos keys aside), so the
  PR 3-6 golden reports stay pinned.

``REPRO_CHAOS_SEED`` (CI runs a small matrix) varies the workload seed
and the victim shard in the engine-level chaos tests.
"""

import os

import numpy as np
import pytest

from repro.autograd import no_grad
from repro.datasets import wikipedia_like
from repro.graph import iter_fixed_size
from repro.pipeline import LinearCostBackend
from repro.analysis.tracecheck import check_run
from repro.serving import (HANDOFF_ROWS_PER_VERTEX, EventScheduler,
                           FailureEvent, FailureInjector, FailurePlan,
                           FlushEvent, MigrationEvent, OnlineRebalancer,
                           Placement, ServerGroup, ServiceBeginEvent, ServiceEndEvent,
                           ServingEngine, ShardRouter, VersionedMemoryCache,
                           hash_assignment, make_stream_arrivals)
from repro.serving.memsync import fail_over, hand_off
from tests.property.sharded_oracle import ShardedRuntime
from tests.unit.test_memsync import sync_step
from tests.unit.test_rebalance import (assert_held_embeddings_bit_identical,
                                       assert_held_state_bit_identical,
                                       drifting_graph, setup_model,
                                       unsharded_reference)

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))


# --------------------------------------------------------------------------- #
class TestFailurePlanValidation:
    def test_mode_must_be_known(self):
        with pytest.raises(ValueError, match="mode"):
            FailurePlan(fail_at=1.0, shard=0, mode="flaky")

    def test_shard_must_be_non_negative(self):
        with pytest.raises(ValueError):
            FailurePlan(fail_at=1.0, shard=-1)

    def test_shard_must_be_integral(self):
        """Refused at construction, not as a list-index TypeError at the
        failure instant."""
        with pytest.raises(ValueError, match="shard must be a non-negative "
                                             "integer"):
            FailurePlan(fail_at=1.0, shard=1.5)
        FailurePlan(fail_at=1.0, shard=np.int64(1))

    def test_fail_time_must_be_finite(self):
        with pytest.raises(ValueError):
            FailurePlan(fail_at=float("inf"), shard=0)

    def test_recovery_must_follow_failure(self):
        with pytest.raises(ValueError):
            FailurePlan(fail_at=2.0, shard=0, recover_at=2.0)
        # A recovery at t = inf never happens, but it was reported as one
        # with its fail-back rows priced; None means never.
        with pytest.raises(ValueError, match="finite"):
            FailurePlan(fail_at=0.0, shard=0, recover_at=float("inf"))

    def test_slow_needs_real_degradation(self):
        for bad in (1.0, float("inf"), float("nan")):
            with pytest.raises(ValueError):
                FailurePlan(fail_at=1.0, shard=0, mode="slow",
                            degradation=bad)
        FailurePlan(fail_at=1.0, shard=0, mode="slow", degradation=1.5)

    def test_injector_needs_plans(self):
        with pytest.raises(ValueError):
            FailureInjector([])
        with pytest.raises(TypeError):
            FailureInjector([object()])

    def test_injector_chaos_tag(self):
        one = FailureInjector(FailurePlan(fail_at=1.0, shard=0))
        assert one.chaos == "dead"
        mixed = FailureInjector([
            FailurePlan(fail_at=1.0, shard=0),
            FailurePlan(fail_at=2.0, shard=1, mode="slow")])
        assert mixed.chaos == "mixed"

    def test_outages_of_one_shard_may_not_overlap(self):
        """A second failure of a shard that is still down used to
        overwrite its ownership snapshot with an empty one, so recovery
        failed nothing back."""
        with pytest.raises(ValueError, match="overlap"):
            FailureInjector([FailurePlan(fail_at=1.0, shard=1),
                             FailurePlan(fail_at=2.0, shard=1,
                                         recover_at=3.0)])
        with pytest.raises(ValueError, match="overlap"):
            FailureInjector([FailurePlan(2.0, shard=1, mode="slow",
                                         recover_at=4.0),
                             FailurePlan(1.0, shard=1, recover_at=2.0)])
        # Back to back on one shard, or overlapping on two, is legal.
        FailureInjector([FailurePlan(1.0, shard=1, recover_at=2.0),
                         FailurePlan(3.0, shard=1),
                         FailurePlan(1.5, shard=0)])


# --------------------------------------------------------------------------- #
class TestServerGroupFailure:
    def _drain(self, sched):
        sched.run()

    def test_slow_failure_scales_service_times(self):
        sched = EventScheduler()
        group = ServerGroup(0, 1, lambda p: 1.0, sched)
        group.submit(0.0, "before")
        group.service_factor = 4.0
        group.submit(0.0, "during")
        self._drain(sched)
        res = group.finalize()
        assert res.service_s.tolist() == [1.0, 4.0]

    def test_dead_group_drops_with_accounting(self):
        sched = EventScheduler()
        group = ServerGroup(0, 1, lambda p: 1.0, sched)
        group.submit(0.0, "served")     # in service immediately
        group.submit(0.0, "queued")
        dropped_now = group.fail()
        assert dropped_now == 1         # the queued job
        group.submit(0.5, "refused")    # offered to a dead shard
        self._drain(sched)
        res = group.finalize()
        # Conservation: served + dropped == offered, in-service completes.
        assert res.server.tolist() == [0, -1, -1]

    def test_restore_resets_both_failure_modes(self):
        sched = EventScheduler()
        group = ServerGroup(0, 1, lambda p: 1.0, sched)
        group.service_factor = 8.0
        group.fail()
        group.restore()
        assert group.accepting and group.service_factor == 1.0
        group.submit(0.0, "after")
        self._drain(sched)
        assert group.finalize().service_s.tolist() == [1.0]


# --------------------------------------------------------------------------- #
class TestRouterFailOver:
    def _replicated_router(self):
        assignment = np.array([0, 1, 1, 2, 0, 1], dtype=np.int64)
        placement = Placement(assignment=assignment, num_shards=3,
                              replicas={1: (0, 2), 2: (2,)},
                              policy="replicate")
        return ShardRouter.from_placement(placement)

    def test_promotes_lowest_replica_and_rebuilds_rest(self):
        router = self._replicated_router()
        promoted, rebuilt = router.fail_over(1, np.ones(3, dtype=bool))
        assert sorted(promoted.tolist()) == [1, 2]
        assert rebuilt.tolist() == [5]
        # Promotion: lowest surviving replica becomes owner, the rest of
        # the set stays (vertex 1: owner 0, replica {2} remains).
        assert router.assignment[1] == 0
        assert router.placement.replicas[1] == (2,)
        # A consumed set disappears (vertex 2 promoted its only copy).
        assert router.assignment[2] == 2
        assert 2 not in router.placement.replicas
        # Rebuilt: deterministic survivor, membership moved.
        assert router.assignment[5] == [0, 2][5 % 2]
        assert not router._member[1].any()
        assert (router.assignment != 1).all()

    def test_dead_shard_leaves_every_replica_set(self):
        assignment = np.zeros(4, dtype=np.int64)
        placement = Placement(assignment=assignment, num_shards=3,
                              replicas={0: (1, 2), 3: (1,)},
                              policy="replicate")
        router = ShardRouter.from_placement(placement)
        promoted, rebuilt = router.fail_over(1, np.ones(3, dtype=bool))
        assert len(promoted) == 0 and len(rebuilt) == 0
        assert router.placement.replicas == {0: (2,)}
        assert not router._member[1].any()

    def test_fail_over_validation(self):
        with pytest.raises(ValueError, match="only live shard"):
            ShardRouter(1, 4).fail_over(0, [True])
        with pytest.raises(ValueError, match="only live shard"):
            ShardRouter(3, 4).fail_over(0, [True, False, False])
        with pytest.raises(ValueError):
            ShardRouter(2, 4).fail_over(2, [True, True])

    def test_only_live_shards_receive_ownership(self):
        """The caller's live set — not "everyone but the dead shard" —
        bounds both halves: a replica on a shard that is already down is
        not promoted, and the round-robin skips it."""
        router = self._replicated_router()
        live = np.array([True, True, False])     # shard 2 is already down
        promoted, rebuilt = router.fail_over(1, live)
        assert promoted.tolist() == [1]          # vertex 2's replica is on 2
        assert rebuilt.tolist() == [2, 5]
        assert (router.assignment[[1, 2, 5]] == 0).all()


class TestCacheFailOver:
    """The coherence side of failover and of a replicated move, driven
    through the shared apply steps on one placement."""

    def _fleet(self, replicas=None):
        assignment = np.array([0, 1, 1, 0], dtype=np.int64)
        placement = Placement(assignment=assignment, num_shards=2,
                              replicas=replicas or {}, policy="hash")
        return (ShardRouter.from_placement(placement),
                VersionedMemoryCache(placement, policy="push"))

    def test_dead_row_is_scrubbed_and_rebuilt_owner_is_current(self):
        router, cache = self._fleet()
        sync_step(cache, {1: [1, 2]})
        owned, promoted, rebuilt, peers = fail_over(router, cache, 1,
                                                    [True, True])
        assert owned.tolist() == rebuilt.tolist() == [1, 2]
        assert not len(promoted)
        # Sources are chosen before the flip: the new owner held nothing
        # then, so it is never its own rebuild source.
        assert peers.tolist() == [-1, -1]
        assert not cache._holder[1].any() and not cache._mirror[1].any()
        assert (cache.mirror_version[1] == 0).all()
        assert cache._holder[0, [1, 2]].all()
        assert (cache.mirror_version[0, [1, 2]] ==
                cache.version[[1, 2]]).all()

    def test_replicated_old_owner_stays_holder_lone_one_ages(self):
        router, cache = self._fleet(replicas={1: (0,)})
        v = np.array([1, 2])
        hand_off(router, cache, v, np.array([1, 1]), 0)
        # A replicated vertex's old owner stays a holder; a lone holder
        # gives the vertex up and ages as a mirror.
        assert cache._holder[1, 1] and not cache._mirror[1, 1]
        assert not cache._holder[1, 2] and cache._mirror[1, 2]
        assert cache._holder[0, v].all()
        assert router.placement.replicas == {1: (1,)}


# --------------------------------------------------------------------------- #
def bipartite_placement(g, num_users, item_shard, user_shards):
    """Users spread over ``user_shards``, every item on ``item_shard``:
    each edge crosses shards, so under ``push`` every written item keeps a
    current mirror on a user shard — the workload shape where rebuild can
    certify ``cold == 0``."""
    ids = np.arange(g.num_nodes)
    user_shards = np.asarray(user_shards, dtype=np.int64)
    assignment = np.where(ids < num_users,
                          user_shards[ids % len(user_shards)],
                          item_shard).astype(np.int64)
    num_shards = max(item_shard, *user_shards) + 1
    return Placement(assignment=assignment, num_shards=num_shards,
                     policy="hash")


class TestShardedRuntimeFailover:
    """The headline acceptance: failover loses nothing, bit-for-bit."""

    def test_promotion_failover_is_bit_identical(self):
        """Every dead-owned vertex has a full replica: failover is pure
        promotion (zero state moved), and the post-recovery run matches
        the unsharded runtime exactly."""
        g, model = setup_model()
        rt, _ = unsharded_reference(model, g)
        assignment = hash_assignment(g.num_nodes, 2)
        replicated = [int(v) for v in np.flatnonzero(assignment == 1)]
        placement = Placement(assignment=assignment, num_shards=2,
                              replicas={v: (0,) for v in replicated},
                              policy="replicate")
        srt = ShardedRuntime(model, g, placement=placement, policy="push")
        with no_grad():
            for i, batch in enumerate(iter_fixed_size(g, 50)):
                if i == 4:
                    info = srt.fail_shard(1)
                    assert info["rebuilt"] == 0 and info["cold"] == 0
                    assert info["promoted"] == len(replicated)
                    assert len(srt.held_vertices(1)) == 0
                if i == 8:
                    assert srt.recover_shard(1) == len(replicated)
                    assert (srt.router.assignment[replicated] == 1).all()
                srt.process_batch(batch)
        assert_held_state_bit_identical(srt, rt)

    def test_rebuild_failover_is_bit_identical(self):
        """No replicas at all: every lost vertex is rebuilt from peers
        (memory rows from the lowest current mirror, FIFO ring replayed
        from the durable edge log) — still bit-identical once recovered,
        and nothing was cold."""
        g, model = setup_model()
        rt, _ = unsharded_reference(model, g)
        placement = bipartite_placement(g, 80, item_shard=1,
                                        user_shards=[0])
        srt = ShardedRuntime(model, g, placement=placement, policy="push")
        with no_grad():
            for i, batch in enumerate(iter_fixed_size(g, 50)):
                if i == 6:
                    owned = np.flatnonzero(srt.router.assignment == 1)
                    info = srt.fail_shard(1)
                    assert info["promoted"] == 0
                    assert info["rebuilt"] == len(owned)
                    # The certificate the exactness below relies on: every
                    # written vertex had a surviving current copy.
                    assert info["cold"] == 0
                    assert info["rows"] > 0
                if i == 9:
                    srt.recover_shard(1)
                srt.process_batch(batch)
        assert_held_state_bit_identical(srt, rt)

    def test_unrecovered_failover_is_bit_identical(self):
        """Exactness does not wait for recovery: the promoted/rebuilt
        owners serve exact rows for the rest of the run."""
        g, model = setup_model()
        rt, _ = unsharded_reference(model, g)
        placement = bipartite_placement(g, 80, item_shard=2,
                                        user_shards=[0, 1])
        srt = ShardedRuntime(model, g, placement=placement, policy="push")
        with no_grad():
            for i, batch in enumerate(iter_fixed_size(g, 50)):
                if i == 6:
                    info = srt.fail_shard(2)
                    assert info["cold"] == 0
                srt.process_batch(batch)
        assert len(srt.held_vertices(2)) == 0
        assert_held_state_bit_identical(srt, rt)

    def test_fail_during_split_is_bit_identical(self):
        """The composed scenario: an elastic split is half done when its
        donor dies.  Half of shard 0's vertices ``migrate`` onto the
        empty shard 2, shard 0 then fails (the rest promote their
        replica on shard 1; the split half stays where the split put
        it), and recovery fails back only what shard 0 still owned —
        state and embeddings stay bit-identical throughout."""
        g, model = setup_model()
        rt, ref = unsharded_reference(model, g)
        assignment = hash_assignment(g.num_nodes, 2)
        donor_owned = np.flatnonzero(assignment == 0)
        placement = Placement(assignment=assignment, num_shards=3,
                              replicas={int(v): (1,) for v in donor_owned},
                              policy="replicate")
        srt = ShardedRuntime(model, g, placement=placement, policy="push")
        split = donor_owned[:len(donor_owned) // 2]
        kept = donor_owned[len(donor_owned) // 2:]
        checked = 0
        with no_grad():
            for i, batch in enumerate(iter_fixed_size(g, 50)):
                if i == 3:
                    assert srt.migrate(split, 2) == len(split)
                if i == 5:
                    info = srt.fail_shard(0)
                    assert info == {"promoted": len(kept), "rebuilt": 0,
                                    "cold": 0, "rows": 0}
                    assert (srt.router.assignment[split] == 2).all()
                    assert (srt.router.assignment[kept] == 1).all()
                    assert len(srt.held_vertices(0)) == 0
                if i == 8:
                    assert srt.recover_shard(0) == len(kept)
                    assert (srt.router.assignment[kept] == 0).all()
                    assert (srt.router.assignment[split] == 2).all()
                outs = srt.process_batch(batch)
                checked += assert_held_embeddings_bit_identical(
                    srt, batch, outs, ref[i])
        assert checked > 0
        assert_held_state_bit_identical(srt, rt)
        assert srt.stale_reads == 0

    def test_second_failure_skips_the_shard_already_down(self):
        """``fail_shard`` passes its own live set: a rebuild never
        round-robins onto a shard that failed earlier."""
        g, model = setup_model()
        srt = ShardedRuntime(model, g, num_shards=4, policy="push")
        srt.fail_shard(0)
        srt.fail_shard(1)
        assert np.isin(srt.router.assignment, [2, 3]).all()
        srt.fail_shard(2)
        assert (srt.router.assignment == 3).all()
        with pytest.raises(ValueError, match="only live shard"):
            srt.fail_shard(3)

    def test_rebuild_prices_handoff_rows_in_mailbox(self):
        g, model = setup_model()
        placement = bipartite_placement(g, 80, item_shard=1,
                                        user_shards=[0])
        srt = ShardedRuntime(model, g, placement=placement, policy="push")
        with no_grad():
            for i, batch in enumerate(iter_fixed_size(g, 50)):
                srt.process_batch(batch)
                if i == 5:
                    break
        owned = np.flatnonzero(srt.router.assignment == 1)
        # Never-written vertices rebuild as zero-init for free; every
        # written one costs the fixed per-vertex handoff.
        warm = int((srt.cache.version[owned] > 0).sum())
        before = srt.mailbox.total_sync_rows
        info = srt.fail_shard(1)
        assert srt.mailbox.total_sync_rows - before == info["rows"]
        assert info["cold"] == 0
        assert info["rows"] == HANDOFF_ROWS_PER_VERTEX * warm > 0


# --------------------------------------------------------------------------- #
def run_chaos(g, plans, shards=4, window_s=250.0, speedup=2400.0,
              streams=2, queue_capacity=None, memsync="push"):
    engine = ServingEngine(
        [LinearCostBackend(per_edge_s=6e-3) for _ in range(shards)],
        g.num_nodes, memsync=memsync, failures=plans)
    initial = engine.router.assignment.copy()
    arrivals = make_stream_arrivals(g, window_s, num_streams=streams,
                                    speedup=speedup)
    rep = engine._run_loop(arrivals, window_s, speedup, streams,
                             queue_capacity, "serial", trace=True)
    return engine, initial, arrivals, rep


class TestEngineChaosInvariants:
    """Conservation + exactly-once ownership on the full event loop."""

    SHARDS = 4

    def _plan(self, fail_at=0.4, recover_at=0.9, mode="dead"):
        return FailurePlan(fail_at=fail_at, shard=CHAOS_SEED % self.SHARDS,
                           mode=mode, recover_at=recover_at)

    def test_ownership_chain_through_promotion(self):
        g = drifting_graph(seed=5 + CHAOS_SEED)
        engine, initial, _, rep = run_chaos(g, self._plan(),
                                            shards=self.SHARDS)
        assert rep.chaos == "dead"
        assert rep.failures == 1 and rep.recoveries == 1
        trace = engine.last_event_trace
        moves = [e for e in trace if isinstance(e, MigrationEvent)]
        assert {e.reason for e in moves} <= {"promote", "rebuild",
                                             "fail-back"}
        assert rep.rebuilt_vertices > 0
        assert rep.recovery_rows > 0
        # Replay the log: each handoff consumes the previous owner, so no
        # vertex is ever owned by two shards — across the failover too.
        owner = initial.copy()
        for ev in moves:
            assert owner[ev.vertex] == ev.from_shard
            assert ev.from_shard != ev.to_shard
            expected = 0 if ev.reason == "promote" \
                else HANDOFF_ROWS_PER_VERTEX
            assert ev.rows == expected
            owner[ev.vertex] = ev.to_shard
        assert np.array_equal(owner, engine.router.assignment)
        assert (engine.router._member.sum(axis=0) >= 1).all()
        ts = [e.t for e in trace]
        assert all(a <= b for a, b in zip(ts, ts[1:]))

    def test_no_lost_or_duplicated_jobs_across_failover(self):
        g = drifting_graph(seed=5 + CHAOS_SEED)
        engine, _, arrivals, rep = run_chaos(g, self._plan(),
                                             shards=self.SHARDS)
        # Window conservation: every offered window is served or dropped.
        assert rep.windows + rep.dropped_windows == len(arrivals)
        trace = engine.last_event_trace
        begins = [e for e in trace if isinstance(e, ServiceBeginEvent)]
        ends = [e for e in trace if isinstance(e, ServiceEndEvent)]
        assert len(begins) == len(ends)
        assert len({(e.group, e.index) for e in begins}) == len(begins)
        assert len({(e.group, e.index) for e in ends}) == len(ends)
        spans = {}
        for b in begins:
            spans[(b.group, b.index)] = [b.t, None]
        for e in ends:
            spans[(e.group, e.index)][1] = e.t
        by_server = {}
        for b in begins:
            by_server.setdefault((b.group, b.server), []).append(
                spans[(b.group, b.index)])
        for intervals in by_server.values():
            intervals.sort()
            for (b0, e0), (b1, _) in zip(intervals, intervals[1:]):
                assert e0 is not None and b1 >= e0 - 1e-12

    def test_outage_window_is_reported(self):
        g = drifting_graph(seed=5 + CHAOS_SEED)
        _, _, _, rep = run_chaos(g, self._plan(fail_at=0.2, recover_at=0.8),
                                 shards=self.SHARDS)
        assert rep.outage_windows > 0
        assert rep.outage_p99_response_s > 0.0
        d = rep.to_dict()
        assert d["chaos"] == "dead" and d["outage_windows"] > 0

    def test_slow_mode_degrades_then_restores(self):
        g = drifting_graph(seed=5 + CHAOS_SEED)
        plan = self._plan(mode="slow")
        _, _, _, slow = run_chaos(g, plan, shards=self.SHARDS)
        _, _, _, base = run_chaos(
            g, self._plan(mode="slow", fail_at=1e9, recover_at=2e9),
            shards=self.SHARDS)
        assert slow.chaos == "slow"
        assert slow.promoted_vertices == slow.rebuilt_vertices == 0
        victim = plan.shard
        assert slow.shard_stats[victim].busy_s > \
            base.shard_stats[victim].busy_s

    def test_no_bite_chaos_is_identical_to_plain_engine(self):
        """A schedule that never bites (fires after the horizon) leaves
        every statistic byte-identical to the plain engine — chaos keys
        aside — so the PR 3-6 goldens stay pinned."""
        g = wikipedia_like(num_edges=600, num_users=80, num_items=20)

        def run(failures):
            engine = ServingEngine(
                [LinearCostBackend(per_edge_s=1e-3) for _ in range(4)],
                g.num_nodes, memsync="push", failures=failures)
            return engine.run(g, window_s=3600.0, speedup=2.0,
                              num_streams=2)

        base = run(None)
        late = run(FailurePlan(fail_at=1e9, shard=1, recover_at=1e9 + 1.0))
        assert late.failures == 1 and late.recoveries == 1
        d_base, d_late = base.to_dict(), late.to_dict()
        assert "chaos" not in d_base
        for key in ("chaos", "failures", "recoveries", "promoted_vertices",
                    "rebuilt_vertices", "recovery_rows", "outage_windows",
                    "outage_p99_response_s"):
            d_late.pop(key)
        assert d_late == d_base

    def test_pool_topology_rejects_failures(self):
        """Handled, not rejected: a slow failure degrades the pool's one
        station and recovery restores it; a dead one has no survivor to
        evacuate to, which is the injector's own rule."""
        g = wikipedia_like(num_edges=600, num_users=80, num_items=20)

        def run(failures):
            engine = ServingEngine([LinearCostBackend(per_edge_s=1e-3)],
                                   g.num_nodes, topology="pool",
                                   pool_servers=2, failures=failures)
            rep = engine.run(g, window_s=3600.0, speedup=2.0,
                             num_streams=2, trace=True)
            assert check_run(engine=engine, report=rep).ok
            return rep

        base = run(None)
        span = base.makespan_s
        slow = run(FailurePlan(fail_at=0.2 * span, shard=0, mode="slow",
                               recover_at=0.6 * span, degradation=4.0))
        assert slow.chaos == "slow"
        assert slow.failures == slow.recoveries == 1
        assert slow.promoted_vertices == slow.rebuilt_vertices == 0
        assert slow.windows == base.windows and slow.outage_windows > 0
        assert slow.shard_stats[0].busy_s > base.shard_stats[0].busy_s
        with pytest.raises(ValueError, match="survivor"):
            run(FailurePlan(fail_at=0.2 * span, shard=0))

    def test_rebalancer_and_failures_compose(self):
        """The pairing the engine used to refuse: the rebalancer keeps
        migrating through a dead-shard outage, never onto the dead
        shard, and the trace replays clean."""
        g = drifting_graph(seed=5 + CHAOS_SEED)
        victim = CHAOS_SEED % self.SHARDS
        reb = OnlineRebalancer(window_s=0.05, util_threshold=0.3)
        engine = ServingEngine(
            [LinearCostBackend(per_edge_s=6e-3) for _ in range(self.SHARDS)],
            g.num_nodes, memsync="push", rebalancer=reb,
            failures=FailurePlan(0.4, shard=victim, recover_at=0.9))
        initial = engine.router.assignment.copy()
        rep = engine.run(g, window_s=250.0, speedup=2400.0, num_streams=2,
                         trace=True)
        assert check_run(engine=engine, report=rep,
                         initial_assignment=initial).ok
        assert rep.migrations > 0 and rep.rebuilt_vertices > 0
        assert rep.recoveries == 1
        outage = [ev for ev in reb.migration_log if 0.4 <= ev.t < 0.9]
        assert outage and all(ev.to_shard != victim for ev in outage)
        plane = engine.last_control
        moves = [e for e in engine.last_event_trace
                 if isinstance(e, MigrationEvent)
                 and e.reason not in ("promote", "rebuild")]
        assert len(moves) + plane.stale == plane.proposed

    def test_two_shards_down_at_once_never_route_to_the_dead(self):
        """Regression: the second failover's survivor set was "everyone
        but me", so it round-robined vertices onto the shard that was
        already dead and every window touching them dropped."""
        g = drifting_graph(seed=5 + CHAOS_SEED)
        first, second = CHAOS_SEED % self.SHARDS, (CHAOS_SEED + 1) % self.SHARDS
        both = [FailurePlan(0.3, shard=first), FailurePlan(0.6, shard=second)]
        alone = [run_chaos(g, p, shards=self.SHARDS)[3] for p in both]
        engine, initial, arrivals, rep = run_chaos(g, both,
                                                   shards=self.SHARDS)
        assert rep.windows + rep.dropped_windows == len(arrivals)
        assert rep.dropped_windows <= sum(r.dropped_windows for r in alone)
        assert check_run(engine=engine, report=rep,
                         initial_assignment=initial).ok
        assert not np.isin(engine.router.assignment, [first, second]).any()
        # From each failure on, its shard owns nothing whenever a job is
        # routed (the evacuation completes within the failure instant)
        # and is sent nothing.
        owner = initial.copy()
        down = {}
        for ev in engine.last_event_trace:
            if isinstance(ev, FailureEvent):
                down[ev.shard] = ev.t
            elif isinstance(ev, MigrationEvent):
                owner[ev.vertex] = ev.to_shard
            elif isinstance(ev, FlushEvent):
                assert not np.isin(owner, list(down)).any()
        for shard, t_fail in down.items():
            offered = engine.last_control.groups[shard].finalize().t_arrive
            assert len(offered) and (offered < t_fail).all()

    def test_recovery_rows_priced_across_dies(self):
        """Recovery traffic crossing a die boundary inflates the new
        owner's busy time — failover is never free on a multi-die part."""
        g = drifting_graph(seed=5 + CHAOS_SEED)

        def run(mail_hop_s):
            engine = ServingEngine(
                [LinearCostBackend(per_edge_s=6e-3) for _ in range(4)],
                g.num_nodes, memsync="push", die_of=[0, 1, 0, 1],
                mail_hop_s=mail_hop_s, failures=self._plan())
            return engine.run(g, window_s=250.0, speedup=2400.0,
                              num_streams=2)

        free = run(0.0)
        priced = run(5e-4)
        assert priced.recovery_rows == free.recovery_rows > 0
        assert sum(s.busy_s for s in priced.shard_stats) > \
            sum(s.busy_s for s in free.shard_stats)
