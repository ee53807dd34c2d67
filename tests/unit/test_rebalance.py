"""Online rebalancing: exactness, ownership, conservation, and chaos.

Four contracts pin the subsystem (ISSUE 5):

* **Exactness** — a functional sharded replay *with mid-run migrations*
  under ``memsync='push'`` (or ``'invalidate'``) produces held-vertex
  memory tables and embeddings bit-identical to the unsharded runtime:
  the state handoff (memory rows + neighbor-table slices) plus the
  version-counter ownership transfer lose nothing.
* **Exactly-once ownership** — the trace's :class:`MigrationEvent` chain
  is linearizable: every event's ``from_shard`` matches the ownership at
  that instant, so no vertex is ever owned by two shards.
* **Conservation** — every admitted job is serviced exactly once and
  per-server busy intervals stay disjoint, even while ownership changes
  mid-run.
* **Chaos convergence** — on a pathological trace whose hot set flips
  every window, migrations stay bounded per window and no vertex
  ping-pongs inside its cooldown (hysteresis respected).

A stationary workload must make the rebalancer a no-op — zero migrations
and queueing statistics identical to the plain engine (the tier-2 variant
in ``test_queueing_theory`` re-checks this at statistical scale).
"""

import math

import numpy as np
import pytest

from repro.autograd import no_grad
from repro.datasets import drifting_hot_set_graph, wikipedia_like
from repro.graph import TemporalGraph, iter_fixed_size
from repro.graph.temporal_graph import EdgeBatch
from repro.models import ModelConfig, TGNN
from repro.pipeline import LinearCostBackend
from repro.serving import (HANDOFF_ROWS_PER_VERTEX, HotColdHybrid,
                           MigrationEvent, OnlineRebalancer, Placement,
                           ReplicatedReadMostly, ServiceBeginEvent,
                           ServiceEndEvent, ServingEngine, ShardRouter,
                           VersionedMemoryCache, VertexHeat,
                           make_stream_arrivals)
from repro.serving.memsync import hand_off
from repro.serving.rebalance import MAX_MIGRATIONS_PER_WINDOW
from tests.property.sharded_oracle import ShardedRuntime, note_reads
from tests.unit.test_memsync import sync_step

CFG = ModelConfig(memory_dim=8, time_dim=6, embed_dim=8, edge_dim=172,
                  num_neighbors=4, simplified_attention=True,
                  lut_time_encoder=True, lut_bins=8, pruning_budget=2)


def setup_model():
    g = wikipedia_like(num_edges=600, num_users=80, num_items=20)
    model = TGNN(CFG, rng=np.random.default_rng(0))
    model.calibrate(g)
    return g, model


def drifting_graph(n_edges=1600, shards=4, num_nodes=128, phases=8,
                   hot_size=6, seed=5):
    """Test-scale defaults for the shared drifting-hot-set workload (the
    bench replays the same generator at bench scale)."""
    return drifting_hot_set_graph(n_edges, shards, num_nodes=num_nodes,
                                  phases=phases, hot_size=hot_size,
                                  seed=seed)


# --------------------------------------------------------------------------- #
class TestOnlineRebalancerValidation:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            OnlineRebalancer(window_s=0.0)
        with pytest.raises(ValueError):
            OnlineRebalancer(window_s=1.0, util_threshold=0.0)
        with pytest.raises(ValueError):
            OnlineRebalancer(window_s=1.0, cooldown_windows=-1)

    def test_an_infinite_threshold_is_refused(self):
        """No window's utilization exceeds inf, so the rebalancer would
        never act."""
        with pytest.raises(ValueError, match="util_threshold"):
            OnlineRebalancer(window_s=1.0, util_threshold=math.inf)

    def test_an_endless_window_is_refused(self):
        """A window of inf seconds never closes, so the rebalancer would
        never act; ``AutoScaler`` refuses its ``scale_window_s`` alike."""
        with pytest.raises(ValueError, match="window_s"):
            OnlineRebalancer(window_s=float("inf"))

    @pytest.mark.parametrize("cooldown", [1.5, float("nan"), float("inf")])
    def test_cooldown_is_a_count_of_windows(self, cooldown):
        """1.5 was cut to 1, NaN and inf died in ``int()`` with a message
        that did not name the argument."""
        with pytest.raises(ValueError, match="cooldown_windows"):
            OnlineRebalancer(window_s=1.0, cooldown_windows=cooldown)
        assert OnlineRebalancer(
            window_s=1.0, cooldown_windows=np.int64(3)).cooldown_windows == 3

    def test_pool_topology_rejects_rebalancer(self):
        """Handled, not rejected: a pool is one station that owns every
        vertex, so an (overloaded) rebalancer has nowhere to donate —
        zero migrations, and every field the ``rebalance`` gate does not
        own equals the run without one."""
        g = wikipedia_like(num_edges=400, num_users=60, num_items=16)

        def run(rebalancer):
            engine = ServingEngine([LinearCostBackend(per_edge_s=0.1)],
                                   g.num_nodes, topology="pool",
                                   pool_servers=2, rebalancer=rebalancer)
            return engine.run(g, window_s=3600.0, speedup=2e4,
                              num_streams=2).to_dict()

        base = run(None)
        rep = run(OnlineRebalancer(window_s=0.1, util_threshold=1e-9))
        assert rep.pop("rebalance") == "online"
        assert [rep.pop(key) for key in ("migrations", "migrated_vertices",
                                         "handoff_rows")] == [0, 0, 0]
        assert rep == base

    def test_single_shard_fleet_is_a_noop(self):
        """A lone shard has nowhere to donate: an overloaded 1-shard run
        with the rebalancer enabled completes with zero migrations
        instead of crashing at window close."""
        g = wikipedia_like(num_edges=400, num_users=60, num_items=16)
        reb = OnlineRebalancer(window_s=0.1, util_threshold=1e-9)
        engine = ServingEngine([LinearCostBackend(per_edge_s=0.1)],
                               g.num_nodes, rebalancer=reb)
        rep = engine.run(g, window_s=3600.0, speedup=2000.0, num_streams=2)
        assert rep.rebalance == "online"
        assert rep.migrations == 0


class TestRouterMigrate:
    def test_ownership_and_membership_flip_atomically(self):
        router = ShardRouter(3, 12)
        v = np.flatnonzero(router.assignment == 0)[:2]
        old = router.migrate(v, 2)
        assert (old == 0).all()
        assert (router.assignment[v] == 2).all()
        assert router._member[2, v].all()
        assert not router._member[0, v].any()
        # Exactly one owner per vertex, before and after.
        assert (router._member.sum(axis=0) == 1).all()

    def test_replicated_vertex_demotes_old_owner(self):
        """Migrating a replicated vertex re-points ownership and demotes
        the old owner into the replica set — copies are never orphaned
        and the owner/replica invariant holds throughout."""
        placement = Placement(assignment=np.array([0, 0, 1, 1]),
                              num_shards=3, replicas={0: (1, 2)})
        router = ShardRouter.from_placement(placement)
        old = router.migrate([0], 1)        # target was itself a replica
        assert old[0] == 0
        assert router.assignment[0] == 1
        # New owner promoted out of the set, old owner demoted into it.
        assert set(placement.replicas[0]) == {0, 2}
        # Every previous holder still holds the vertex.
        assert router._member[:, 0].all()
        # The mutated placement still satisfies its own invariants.
        Placement(assignment=router.assignment, num_shards=3,
                  replicas=dict(placement.replicas))

    def test_replicated_vertex_to_non_replica_shard(self):
        placement = Placement(assignment=np.array([0, 0, 1, 1]),
                              num_shards=3, replicas={0: (1,)})
        router = ShardRouter.from_placement(placement)
        router.migrate([0], 2)              # target held nothing before
        assert router.assignment[0] == 2
        assert set(placement.replicas[0]) == {0, 1}
        assert router._member[:, 0].all()

    def test_range_validation(self):
        router = ShardRouter(2, 8)
        with pytest.raises(ValueError):
            router.migrate([99], 1)
        with pytest.raises(ValueError):
            router.migrate([0], 5)

    def test_routing_follows_new_owner(self):
        router = ShardRouter(2, 8)
        v = int(np.flatnonzero(router.assignment == 0)[0])
        other = int(np.flatnonzero(router.assignment == 1)[0])
        batch = EdgeBatch(src=np.array([v]), dst=np.array([other]),
                          t=np.array([1.0]), eid=np.array([0]),
                          edge_feat=np.zeros((1, 0)))
        before = {sb.shard: sb.local_edges for sb in router.split(batch)}
        assert before[0] == 1            # v's owner processes locally
        router.migrate([v], 1)
        after = router.split(batch)
        assert len(after) == 1           # both endpoints now on shard 1
        assert after[0].shard == 1 and after[0].local_edges == 1
        assert after[0].mail_edges == 0


class TestCacheTransferOwnership:
    """The coherence side of a move, driven the way every caller drives
    it: ``hand_off`` flips the router and stamps the cache, both reading
    the one placement."""

    def fleet(self, policy):
        placement = Placement(assignment=np.array([0, 0, 1, 1]),
                              num_shards=2)
        return (ShardRouter.from_placement(placement),
                VersionedMemoryCache(placement, policy=policy))

    def test_new_owner_is_current_old_owner_is_fresh_mirror(self):
        router, c = self.fleet("push")
        sync_step(c, {0: [0]})
        sync_step(c, {0: [0]})
        hand_off(router, c, [0], [0], 1)
        # The new owner received current rows: nothing to pull.
        assert not len(note_reads(c, 1, np.array([0])).pulled)
        # Version history survived the handoff: the next write bumps the
        # same counter.
        assert c.version[0] == 2
        sync_step(c, {1: [0], 0: [1]})
        assert c.version[0] == 3
        # The old owner is now a *current* mirror; under push it was
        # present at the write above, so it stays current.
        assert not len(note_reads(c, 0, np.array([0])).pulled)

    def test_old_owner_ages_like_any_mirror(self):
        router, c = self.fleet("invalidate")
        sync_step(c, {0: [0]})
        hand_off(router, c, [0], [0], 1)
        # A write the old owner did not see makes its copy stale: the
        # next read repairs via the ordinary pull path.
        sync_step(c, {1: [0]})
        assert note_reads(c, 0, np.array([0])).pulled.tolist() == [0]

    def test_degenerate_self_transfer_keeps_holder(self):
        router, c = self.fleet("push")
        hand_off(router, c, [0], [0], 0)
        assert c._holder[0, 0] and not c._mirror[0, 0]


# --------------------------------------------------------------------------- #
def unsharded_reference(model, graph, batch_size=50):
    rt = model.new_runtime(graph)
    with no_grad():
        results = [model.process_batch(b, rt, graph)
                   for b in iter_fixed_size(graph, batch_size)]
    return rt, results


def assert_held_state_bit_identical(srt, rt):
    for shard in range(srt.router.num_shards):
        held = srt.held_vertices(shard)
        st = srt.runtimes[shard].state
        assert np.array_equal(st.memory[held], rt.state.memory[held])
        assert np.array_equal(st.mailbox[held], rt.state.mailbox[held])
        assert np.array_equal(st.mail_time[held], rt.state.mail_time[held])
        assert np.array_equal(st.last_update[held],
                              rt.state.last_update[held])


def assert_held_embeddings_bit_identical(srt, batch, outs, ref_res):
    """Held query rows of one sharded batch equal the unsharded rows *at
    the membership in force when the batch ran* (ownership only moves
    between batches, so splitting again is exact).  Returns the number
    of rows compared."""
    checked = 0
    pos = {int(e): k for k, e in enumerate(batch.eid)}
    for sb in srt.router.split(batch):
        res = outs[sb.shard]
        rows = np.empty(len(res.nodes), dtype=np.int64)
        for k in range(len(sb.batch)):
            p = pos[int(sb.batch.eid[k])]
            rows[2 * k], rows[2 * k + 1] = 2 * p, 2 * p + 1
        held = srt.router._member[sb.shard, res.nodes]
        assert np.array_equal(res.embeddings.data[held],
                              ref_res.embeddings.data[rows[held]])
        checked += int(held.sum())
    return checked


def migration_plan(srt, batch, step, exclude=()):
    """Pick up to two non-replicated endpoints of ``batch`` and a rotating
    target shard — deterministic, so the suite is reproducible."""
    target = step % srt.router.num_shards
    vs = [int(v) for v in np.unique(batch.nodes)
          if int(v) not in exclude][:2]
    return vs, target


class TestMigrationExactness:
    """The headline acceptance: migrations lose nothing, bit-for-bit."""

    @pytest.mark.parametrize("policy", ["push", "invalidate"])
    @pytest.mark.parametrize("num_shards", [2, 3])
    def test_bit_identical_to_unsharded_across_migrations(self, policy,
                                                          num_shards):
        g, model = setup_model()
        rt, ref = unsharded_reference(model, g)
        srt = ShardedRuntime(model, g, num_shards=num_shards, policy=policy)
        migrated = 0
        checked = 0
        with no_grad():
            for i, batch in enumerate(iter_fixed_size(g, 50)):
                if i % 3 == 2:      # migrate mid-stream, between batches
                    vs, target = migration_plan(srt, batch, i)
                    migrated += srt.migrate(vs, target)
                outs = srt.process_batch(batch)
                checked += assert_held_embeddings_bit_identical(
                    srt, batch, outs, ref[i])
        assert migrated > 0 and checked > 0
        assert_held_state_bit_identical(srt, rt)
        # Exactness was bought with traffic: the handoff rows are priced
        # through the same sync accounting as pulls and pushes.
        assert srt.mailbox.total_sync_rows \
            >= migrated * HANDOFF_ROWS_PER_VERTEX
        assert srt.stale_reads == 0
        assert srt.max_version_lag == 0
        # Exactly-once ownership held throughout (single owner per vertex).
        assert (srt.router._member.sum(axis=0) == 1).all()

    def test_exact_under_replication(self):
        """Migrating non-replicated vertices coexists with replica sets."""
        g, model = setup_model()
        rt, _ = unsharded_reference(model, g)
        heat = VertexHeat.from_graph(g)
        placement = ReplicatedReadMostly(top_k=4).place(heat, 3)
        assert placement.replicated_vertices > 0
        replicated = set(placement.replicas)
        srt = ShardedRuntime(model, g, placement=placement, policy="push")
        migrated = 0
        with no_grad():
            for i, batch in enumerate(iter_fixed_size(g, 50)):
                if i % 3 == 2:
                    vs, target = migration_plan(srt, batch, i,
                                                exclude=replicated)
                    migrated += srt.migrate(vs, target)
                srt.process_batch(batch)
        assert migrated > 0
        assert_held_state_bit_identical(srt, rt)

    def test_migrate_to_current_owner_is_a_noop(self):
        g, model = setup_model()
        srt = ShardedRuntime(model, g, num_shards=2, policy="push")
        v = int(np.flatnonzero(srt.router.assignment == 0)[0])
        assert srt.migrate([v], 0) == 0
        assert srt.mailbox.total_sync_rows == 0

    def test_migrate_replicated_vertex_stays_exact(self):
        """Replicated vertices migrate too (the PR 7 lift): ownership
        re-points, the old owner demotes into the replica set, and the
        push-policy replay stays bit-identical to the unsharded runtime."""
        g, model = setup_model()
        heat = VertexHeat.from_graph(g)
        placement = ReplicatedReadMostly(top_k=2).place(heat, 2)
        replicated = sorted(placement.replicas)
        assert replicated
        rt, _ = unsharded_reference(model, g)
        srt = ShardedRuntime(model, g, placement=placement, policy="push")
        moved = False
        with no_grad():
            for i, batch in enumerate(iter_fixed_size(g, 50)):
                if i == 4:
                    v = replicated[0]
                    target = 1 - int(srt.router.assignment[v])
                    assert srt.migrate([v], target) == 1
                    assert int(srt.router.assignment[v]) == target
                    moved = True
                srt.process_batch(batch)
        assert moved
        assert_held_state_bit_identical(srt, rt)


# --------------------------------------------------------------------------- #
def engine_with_rebalancer(g, shards=4, reb=None, memsync="push",
                           per_edge_s=6e-3):
    return ServingEngine(
        [LinearCostBackend(per_edge_s=per_edge_s) for _ in range(shards)],
        g.num_nodes, memsync=memsync, rebalancer=reb)


class TestEngineMigrationInvariants:
    """Exactly-once ownership and conservation on the event loop."""

    def run_traced(self, g, reb, shards=4, window_s=250.0, speedup=2400.0,
                   streams=2, queue_capacity=None):
        engine = engine_with_rebalancer(g, shards=shards, reb=reb)
        initial = engine.router.assignment.copy()
        arrivals = make_stream_arrivals(g, window_s, num_streams=streams,
                                        speedup=speedup)
        rep = engine.run(g, window_s=window_s, speedup=speedup,
                         num_streams=streams, queue_capacity=queue_capacity,
                         trace=True)
        return engine, initial, arrivals, rep

    def test_exactly_once_ownership_chain(self):
        g = drifting_graph()
        reb = OnlineRebalancer(window_s=0.5, util_threshold=0.5,
                               cooldown_windows=1)
        engine, initial, _, rep = self.run_traced(g, reb)
        trace = engine.last_event_trace
        migrations = [e for e in trace if isinstance(e, MigrationEvent)]
        assert len(migrations) == rep.migrations > 0
        # Replay the ownership log: each event's from_shard must equal the
        # ownership at that instant — a vertex can never be owned by two
        # shards, because each handoff consumes the previous owner.
        owner = initial.copy()
        for ev in migrations:
            assert owner[ev.vertex] == ev.from_shard
            assert ev.from_shard != ev.to_shard
            assert ev.rows == HANDOFF_ROWS_PER_VERTEX
            owner[ev.vertex] = ev.to_shard
        # The replay lands exactly on the live router's final assignment.
        assert np.array_equal(owner, engine.router.assignment)
        assert (engine.router._member.sum(axis=0) == 1).all()
        # Trace timestamps stay monotone with migrations interleaved.
        times = [e.t for e in trace]
        assert times == sorted(times)

    def test_jobs_serviced_exactly_once_across_migrations(self):
        g = drifting_graph()
        reb = OnlineRebalancer(window_s=0.5, util_threshold=0.5,
                               cooldown_windows=1)
        engine, _, arrivals, rep = self.run_traced(g, reb)
        assert rep.migrations > 0
        # Window conservation: every stream arrival is served or dropped.
        assert rep.windows + rep.dropped_windows == len(arrivals)
        assert rep.dropped_windows == 0
        # Service conservation from the trace: every (group, index) begins
        # exactly once and ends exactly once, and per-server busy
        # intervals never overlap — migrations reroute future jobs, they
        # never duplicate or lose an admitted one.
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

    def test_conservation_with_bounded_queues_and_drops(self):
        # Bufferless loss system: any job that would wait is dropped, so
        # the drift's transient overload must produce losses — and the
        # accounting still conserves every offered window.
        g = drifting_graph()
        reb = OnlineRebalancer(window_s=0.5, util_threshold=0.5,
                               cooldown_windows=1)
        engine, _, arrivals, rep = self.run_traced(g, reb,
                                                   queue_capacity=0)
        assert rep.migrations > 0
        assert rep.windows + rep.dropped_windows == len(arrivals)
        assert rep.dropped_windows > 0      # the bound bites under drift

    def test_handoff_rows_priced_into_busy_time(self):
        """With a die plan, handoff rows crossing a die cost hops that
        inflate the destination's service time — the migration is never
        free when the fleet spans dies."""
        g = drifting_graph()

        def run(die_of, mail_hop_s):
            reb = OnlineRebalancer(window_s=0.5, util_threshold=0.5,
                                   cooldown_windows=1)
            engine = ServingEngine(
                [LinearCostBackend(per_edge_s=6e-3) for _ in range(4)],
                g.num_nodes, rebalancer=reb, die_of=die_of,
                mail_hop_s=mail_hop_s)
            return engine.run(g, window_s=250.0, speedup=2400.0,
                              num_streams=2)

        free = run(None, 0.0)
        priced = run([0, 1, 0, 1], 5e-3)
        assert free.migrations > 0 and priced.migrations > 0
        assert priced.handoff_rows > 0
        assert sum(s.busy_s for s in priced.shard_stats) \
            > sum(s.busy_s for s in free.shard_stats)


# --------------------------------------------------------------------------- #
class TestChaosDrift:
    """Pathological drift: the hot set flips every measurement window."""

    def run_chaos(self, cooldown, phases=16):
        # One raw phase (1e4 s) compressed to exactly one rebalancer
        # window (0.5 s): the hot set flips every single window — the
        # worst case for a reactive policy.
        g = drifting_graph(n_edges=2400, phases=phases, shards=4,
                           hot_size=4)
        reb = OnlineRebalancer(window_s=0.5, util_threshold=0.5,
                               cooldown_windows=cooldown)
        engine = engine_with_rebalancer(g, reb=reb)
        rep = engine.run(g, window_s=250.0, speedup=2e4, num_streams=2)
        return reb, rep

    def event_windows(self, reb):
        """Map each logged migration to the window that decided it."""
        windows = []
        i = 0
        for w, count in enumerate(reb.migrations_per_window):
            windows.extend([w] * count)
            i += count
        assert len(windows) == len(reb.migration_log)
        return windows

    def test_migrations_bounded_per_window(self):
        reb, rep = self.run_chaos(cooldown=1)
        assert rep.migrations > 0
        assert reb.migrations_per_window          # windows were evaluated
        # The cap binds: some window wants more moves than it allows.
        assert max(reb.migrations_per_window) == MAX_MIGRATIONS_PER_WINDOW

    @pytest.mark.parametrize("cooldown", [1, 3])
    def test_no_ping_pong_within_cooldown(self, cooldown):
        reb, rep = self.run_chaos(cooldown=cooldown)
        assert rep.migrations > 0
        windows = self.event_windows(reb)
        last_window = {}
        for ev, w in zip(reb.migration_log, windows):
            if ev.vertex in last_window:
                # Hysteresis respected: a migrated vertex is frozen for
                # its cooldown — flipping heat cannot bounce it back.
                assert w >= last_window[ev.vertex] + 1 + cooldown
            last_window[ev.vertex] = w

    def test_scheduler_invariants_survive_chaos(self):
        """The monotonicity/conservation invariants of test_events hold
        with the rebalancer thrashing ownership every window."""
        g = drifting_graph(n_edges=2400, phases=16, shards=4, hot_size=4)
        reb = OnlineRebalancer(window_s=0.5, util_threshold=0.5,
                               cooldown_windows=1)
        engine = engine_with_rebalancer(g, reb=reb)
        arrivals = make_stream_arrivals(g, 250.0, num_streams=2,
                                        speedup=2e4)
        rep = engine.run(g, window_s=250.0, speedup=2e4, num_streams=2,
                         trace=True)
        assert rep.migrations > 0
        trace = engine.last_event_trace
        times = [e.t for e in trace]
        assert times == sorted(times)
        begins = [e for e in trace if isinstance(e, ServiceBeginEvent)]
        ends = [e for e in trace if isinstance(e, ServiceEndEvent)]
        assert len(begins) == len(ends) > 0
        assert rep.windows + rep.dropped_windows == len(arrivals)

    def test_pipelined_ingest_composes_with_rebalancing(self):
        g = drifting_graph()
        reb = OnlineRebalancer(window_s=0.5, util_threshold=0.5,
                               cooldown_windows=1)
        engine = engine_with_rebalancer(g, reb=reb)
        rep = engine.run(g, window_s=250.0, speedup=2400.0, num_streams=2,
                         ingest="pipelined")
        assert rep.ingest == "pipelined"
        assert rep.migrations > 0
        assert rep.windows + rep.dropped_windows > 0


# --------------------------------------------------------------------------- #
class TestStationaryNoOp:
    def test_zero_migrations_and_identical_statistics(self):
        """Balanced load below the threshold: the rebalancer must not act,
        and every statistic matches the plain engine bit-for-bit."""
        g = wikipedia_like(num_edges=600, num_users=80, num_items=20)

        def run(reb):
            engine = ServingEngine(
                [LinearCostBackend(per_edge_s=1e-3) for _ in range(4)],
                g.num_nodes, rebalancer=reb)
            return engine.run(g, window_s=3600.0, speedup=2.0,
                              num_streams=2)

        base = run(None)
        rebalanced = run(OnlineRebalancer(window_s=100.0))
        assert rebalanced.migrations == 0
        assert rebalanced.handoff_rows == 0
        assert rebalanced.rebalance == "online"
        d_base, d_reb = base.to_dict(), rebalanced.to_dict()
        for key in ("rebalance", "migrations", "migrated_vertices",
                    "handoff_rows"):
            d_reb.pop(key)
        assert d_reb == d_base


class TestHybridDrift:
    """Hybrid topology: heating pool vertices promote, cooled demote."""

    def two_phase_graph(self, n_edges=1200, num_nodes=64, seed=9):
        """Phase 1: vertices {0,1} hot; phase 2: {2,3} hot, {0,1} cold."""
        rng = np.random.default_rng(seed)
        half = n_edges // 2
        src = np.empty(n_edges, dtype=np.int64)
        dst = np.empty(n_edges, dtype=np.int64)
        for lo, hi, hot in ((0, half, (0, 1)), (half, n_edges, (2, 3))):
            n = hi - lo
            pick = rng.random(n) < 0.8
            src[lo:hi] = np.where(pick, rng.choice(hot, n),
                                  rng.integers(4, num_nodes, n))
            dst[lo:hi] = np.where(pick, rng.choice(hot, n),
                                  rng.integers(4, num_nodes, n))
        same = dst == src
        dst[same] = (dst[same] + 1) % num_nodes
        t = np.sort(rng.uniform(0, 2e4, n_edges))
        return TemporalGraph(src=src, dst=dst, t=t, num_nodes=num_nodes)

    def test_heating_promotes_cooling_demotes(self):
        g = self.two_phase_graph()
        # Placement from *phase-1* heat: {0,1} on the dedicated shards,
        # {2,3} still in the pool when phase 2 flips the hot set.
        heat1 = VertexHeat.from_graph(g, end=g.num_edges // 2)
        placement = HotColdHybrid(hot_top_k=2).place(heat1, 3)
        pool = 2
        assert set(np.flatnonzero(placement.assignment != pool)) == {0, 1}
        reb = OnlineRebalancer(window_s=1.0, cooldown_windows=1)
        engine = ServingEngine(
            [LinearCostBackend(per_edge_s=2e-3) for _ in range(3)],
            g.num_nodes, placement=placement, topology="hybrid",
            pool_servers=2, rebalancer=reb, memsync="push")
        rep = engine.run(g, window_s=500.0, speedup=1000.0, num_streams=2)
        assert rep.migrations > 0
        reasons = {ev.reason for ev in reb.migration_log}
        assert "heat-up" in reasons and "cool-down" in reasons
        # The drift is tracked: the phase-2 hot set ends on dedicated
        # shards and the cooled phase-1 set is back in the pool.
        assert (engine.router.assignment[[2, 3]] != pool).all()
        assert (engine.router.assignment[[0, 1]] == pool).all()
        # Ownership stayed exactly-once throughout.
        assert (engine.router._member.sum(axis=0) == 1).all()

    def test_hybrid_stationary_is_noop(self):
        """Heat that stays inside the band -> zero migrations: every edge
        starts at one of two hot vertices, so neither cools to
        DEMOTE_HEAT, and each vertex of the wide cold tail is touched once
        per 300 edges, so none reaches PROMOTE_HEAT in a window."""
        n, tail = 400, 300
        i = np.arange(n)
        g = TemporalGraph(src=i % 2, dst=2 + i % tail, t=100.0 * i,
                          num_nodes=2 + tail)
        heat = VertexHeat.from_graph(g)
        placement = HotColdHybrid(hot_top_k=2).place(heat, 3)
        reb = OnlineRebalancer(window_s=100.0)
        engine = ServingEngine(
            [LinearCostBackend(per_edge_s=1e-3) for _ in range(3)],
            g.num_nodes, placement=placement, topology="hybrid",
            pool_servers=2, rebalancer=reb)
        rep = engine.run(g, window_s=3600.0, speedup=2.0, num_streams=2)
        assert rep.migrations == 0
