"""Unit tests for placement policies, replication routing, and pool mode."""

import numpy as np
import pytest

from repro.datasets import wikipedia_like
from repro.graph import NeighborTable, TemporalGraph, iter_fixed_size
from repro.hw import plan_shard_dies, plan_shard_dies_traffic_aware
from repro.pipeline import LinearCostBackend
from repro.serving import (LoadAwareRebalance, Placement, PlacementPolicy,
                           ReplicatedReadMostly, ServingEngine, ShardRouter,
                           StaticHashPlacement, VersionedMemoryCache,
                           VertexHeat, hash_assignment, make_policy)
from repro.serving.placement import MAX_MIGRATIONS, shard_pair_counts


def PerEdgeBackend(per_edge_s=5e-3, overhead_s=0.0):
    """Deterministic backend: fixed overhead + linear per-edge cost."""
    return LinearCostBackend(per_edge_s=per_edge_s, overhead_s=overhead_s)


def skewed_graph():
    """Zipf-hot users/items: the workload where static hash misbalances."""
    return wikipedia_like(num_edges=800, num_users=24, num_items=12)


def sharded_engine(graph, num_shards, placement=None, **backend_kw):
    return ServingEngine([PerEdgeBackend(**backend_kw)
                          for _ in range(num_shards)],
                         graph.num_nodes, placement=placement)


# --------------------------------------------------------------------------- #
class TestVertexHeat:
    def test_counts_match_bincount(self):
        g = skewed_graph()
        heat = VertexHeat.from_graph(g)
        assert np.array_equal(heat.src_count,
                              np.bincount(g.src, minlength=g.num_nodes))
        assert np.array_equal(heat.dst_count,
                              np.bincount(g.dst, minlength=g.num_nodes))
        assert heat.num_nodes == g.num_nodes
        assert heat.degree.sum() == 2 * g.num_edges

    def test_range_restriction(self):
        g = skewed_graph()
        heat = VertexHeat.from_graph(g, start=100, end=300)
        assert heat.src_count.sum() == 200

    def test_read_ratio_bounds_and_isolated(self):
        g = skewed_graph()
        heat = VertexHeat.from_graph(g, start=0, end=50)
        ratio = heat.read_ratio
        assert np.all((0.0 <= ratio) & (ratio <= 1.0))
        assert np.all(ratio[heat.degree == 0] == 0.0)
        # Bipartite stream: items only ever receive -> ratio 1 where active.
        items = np.unique(g.dst[:50])
        assert np.all(ratio[items] == 1.0)


# --------------------------------------------------------------------------- #
class TestPlacementContainer:
    def test_validation(self):
        with pytest.raises(ValueError):
            Placement(assignment=np.array([0, 1, 2]), num_shards=2)
        with pytest.raises(ValueError):
            Placement(assignment=np.array([0, 1]), num_shards=2,
                      replicas={0: (0,)})       # owner in replica set
        with pytest.raises(ValueError):
            Placement(assignment=np.array([0, 1]), num_shards=2,
                      replicas={0: (5,)})       # out of range

    def test_holders_and_counts(self):
        p = Placement(assignment=np.array([0, 1, 0]), num_shards=3,
                      replicas={0: (1, 2), 2: (1,)})
        assert p.holders(0) == (0, 1, 2)
        assert p.holders(1) == (1,)
        assert p.replicated_vertices == 2
        assert p.replica_copies == 3
        member = p.member
        assert member.shape == (3, 3)
        assert member[:, 0].all()               # vertex 0 on every shard
        assert member[:, 1].tolist() == [False, True, False]

    def test_replicas_round_trip_through_the_table(self):
        """``replicas=`` only seeds the holder matrix; the ``replicas``
        view derived back from it (extras ascending, empty sets dropped)
        rebuilds an identical table — and the router and cache hold that
        very array, not copies."""
        given = {0: (2, 1), 2: (1,), 1: ()}
        p = Placement(assignment=np.array([0, 1, 0]), num_shards=3,
                      replicas=given)
        assert p.replicas == {0: (1, 2), 2: (1,)}
        again = Placement(assignment=p.assignment.copy(), num_shards=3,
                          replicas=p.replicas)
        assert np.array_equal(again.member, p.member)
        assert again.replicas == p.replicas
        router = ShardRouter.from_placement(p)
        cache = VersionedMemoryCache(p)
        assert router._member is p.member and cache._holder is p.member
        assert router.assignment is p.assignment
        with pytest.raises(ValueError, match="non-owner"):
            Placement(assignment=np.array([0, 1]), num_shards=2,
                      replicas={0: (1, 1)})      # duplicate shard
        with pytest.raises(ValueError, match="out of range"):
            Placement(assignment=np.array([0, 1]), num_shards=2,
                      replicas={7: (1,)})        # vertex out of range

    def test_mail_matrix_matches_router(self):
        """The predicted traffic matrix equals what the router records."""
        g = skewed_graph()
        heat = VertexHeat.from_graph(g)
        for placement in (StaticHashPlacement().place(heat, 4),
                          ReplicatedReadMostly(top_k=3).place(heat, 4)):
            router = ShardRouter.from_placement(placement)
            from repro.serving import CrossShardMailbox
            mailbox = CrossShardMailbox(4)
            for batch in iter_fixed_size(g, 100):
                router.split(batch, mailbox)
            assert np.array_equal(placement.mail_matrix(g.src, g.dst),
                                  mailbox.counts)

    def test_shard_pair_counts_tallies_each_pair(self):
        frm, to = np.array([0, 2, 0, 1, 0]), np.array([1, 2, 1, 0, 2])
        want = np.zeros((3, 3), dtype=np.int64)
        np.add.at(want, (frm, to), 1)
        got = shard_pair_counts(frm, to, 3)
        assert got.shape == (3, 3) and np.array_equal(got, want)
        assert np.array_equal(shard_pair_counts(frm[:0], to[:0], 2),
                              np.zeros((2, 2)))


# --------------------------------------------------------------------------- #
class TestStaticHashPlacement:
    def test_matches_legacy_router_partition(self):
        """Extracting the hash must not change the partition PR 1 shipped."""
        g = skewed_graph()
        p = StaticHashPlacement().place(VertexHeat.from_graph(g), 4)
        legacy = ShardRouter(4, g.num_nodes)       # default construction
        assert np.array_equal(p.assignment, legacy.assignment)
        assert np.array_equal(p.assignment,
                              hash_assignment(g.num_nodes, 4))
        assert p.replicated_vertices == 0 and p.policy == "hash"

    def test_protocol_conformance(self):
        for name in ("hash", "rebalance", "replicate"):
            assert isinstance(make_policy(name), PlacementPolicy)
        with pytest.raises(KeyError):
            make_policy("quantum")


# --------------------------------------------------------------------------- #
class TestLoadAwareRebalance:
    def run_profile(self, g, placement, num_shards=4):
        engine = sharded_engine(g, num_shards, placement=placement)
        return engine.run(g, window_s=86400.0, speedup=5e4, num_streams=4)

    def test_no_profile_degrades_to_hash(self):
        g = skewed_graph()
        heat = VertexHeat.from_graph(g)
        p = LoadAwareRebalance().place(heat, 4)
        assert np.array_equal(p.assignment, hash_assignment(g.num_nodes, 4))
        assert p.moved_vertices == ()

    def test_rebalance_reduces_max_utilization(self):
        """Acceptance: rebalance lowers max per-shard utilization vs hash
        on a skewed synthetic workload."""
        g = skewed_graph()
        heat = VertexHeat.from_graph(g)
        base = StaticHashPlacement().place(heat, 4)
        rep0 = self.run_profile(g, base)
        util0 = [s.utilization for s in rep0.shard_stats]

        policy = LoadAwareRebalance(util_threshold=0.9 * max(util0))
        placed = policy.place(heat, 4, profile=rep0.shard_stats)
        assert len(placed.moved_vertices) > 0
        assert placed.policy == "rebalance"

        rep1 = self.run_profile(g, placed)
        util1 = [s.utilization for s in rep1.shard_stats]
        assert max(util1) < max(util0)
        # Balance improved overall, not just at the top.
        assert np.std(util1) < np.std(util0)
        assert rep1.placement == "rebalance"

    def test_migrations_only_off_overloaded_shards(self):
        g = skewed_graph()
        heat = VertexHeat.from_graph(g)
        base = StaticHashPlacement().place(heat, 4)
        rep0 = self.run_profile(g, base)
        util0 = np.array([s.utilization for s in rep0.shard_stats])
        threshold = 0.9 * util0.max()
        policy = LoadAwareRebalance(util_threshold=threshold)
        placed = policy.place(heat, 4, profile=rep0.shard_stats)
        for v in placed.moved_vertices:
            donor = int(base.assignment[v])
            assert util0[donor] > threshold
            assert placed.assignment[v] != donor

    def test_max_migrations_cap(self):
        # Every edge joins two of hash shard 0's ~200 vertices: levelling
        # that load wants about 150 moves, more than the cap allows.
        num_nodes = 800
        on_0 = np.flatnonzero(hash_assignment(num_nodes, 4) == 0)
        src = np.tile(on_0, 4)
        g = TemporalGraph(src=src, dst=np.roll(src, 1),
                          t=10.0 * np.arange(len(src)), num_nodes=num_nodes)
        heat = VertexHeat.from_graph(g)
        rep0 = self.run_profile(g, StaticHashPlacement().place(heat, 4))
        policy = LoadAwareRebalance(
            util_threshold=0.1 * max(s.utilization
                                     for s in rep0.shard_stats))
        placed = policy.place(heat, 4, profile=rep0.shard_stats)
        assert len(placed.moved_vertices) == MAX_MIGRATIONS

    def test_profile_must_cover_shards(self):
        g = skewed_graph()
        heat = VertexHeat.from_graph(g)
        rep0 = self.run_profile(g, StaticHashPlacement().place(heat, 4))
        with pytest.raises(ValueError):
            LoadAwareRebalance().place(heat, 8, profile=rep0.shard_stats)


# --------------------------------------------------------------------------- #
class TestReplicatedReadMostly:
    def test_selects_read_mostly_high_fanin(self):
        g = skewed_graph()
        heat = VertexHeat.from_graph(g)
        p = ReplicatedReadMostly(top_k=4).place(heat, 4)
        assert p.replicated_vertices == 4
        chosen = sorted(p.replicas, key=lambda v: -heat.dst_count[v])
        # Every chosen vertex is read-mostly and hotter (by fan-in) than
        # any unchosen eligible vertex.
        eligible = np.flatnonzero((heat.read_ratio >= 0.6)
                                  & (heat.dst_count > 0))
        unchosen = [v for v in eligible if v not in p.replicas]
        assert all(heat.read_ratio[v] >= 0.6 for v in chosen)
        if unchosen:
            assert min(heat.dst_count[v] for v in chosen) >= \
                max(heat.dst_count[v] for v in unchosen)
        # Full replication: every other shard holds a copy.
        for v, extra in p.replicas.items():
            assert len(extra) == 3
            assert int(p.assignment[v]) not in extra

    def test_replica_holders_get_every_incident_edge(self):
        g = skewed_graph()
        heat = VertexHeat.from_graph(g)
        p = ReplicatedReadMostly(top_k=2).place(heat, 3)
        router = ShardRouter.from_placement(p)
        hot = list(p.replicas)
        batch = g.slice(0, 400)
        incident = np.isin(batch.src, hot) | np.isin(batch.dst, hot)
        for sb in router.split(batch):
            got = np.isin(batch.eid[incident], sb.batch.eid)
            assert got.all()        # every holder sees every incident edge

    def test_replica_neighbor_rows_are_exact(self):
        """The freshness payoff: a replica's neighbor-table rows for a
        replicated vertex match the unsharded table (no stale mirrors)."""
        g = skewed_graph()
        heat = VertexHeat.from_graph(g)
        p = ReplicatedReadMostly(top_k=2).place(heat, 3)
        router = ShardRouter.from_placement(p)
        mr = 4
        global_table = NeighborTable(g.num_nodes, mr)
        shard_tables = [NeighborTable(g.num_nodes, mr) for _ in range(3)]
        for batch in iter_fixed_size(g, 50):
            global_table.insert_edges(batch.src, batch.dst, batch.eid,
                                      batch.t)
            for sb in router.split(batch):
                shard_tables[sb.shard].insert_edges(
                    sb.batch.src, sb.batch.dst, sb.batch.eid, sb.batch.t)
        for v, extra in p.replicas.items():
            want = global_table.gather(np.array([v]))
            for shard in (int(p.assignment[v]), *extra):
                got = shard_tables[shard].gather(np.array([v]))
                assert np.array_equal(got.mask, want.mask)
                assert np.array_equal(got.nbrs[got.mask],
                                      want.nbrs[want.mask])
                assert np.array_equal(got.times[got.mask],
                                      want.times[want.mask])

    def test_replication_factor_counts_once_per_replica(self):
        """The tested definition: replication_factor = processed / served,
        one count per shard that applies an edge."""
        from repro.graph import TemporalGraph
        # 3 vertices on 3 shards; every edge is v0 -> v1; v1 replicated on
        # every shard => each edge applies on shard(v0) locally + 2 mail
        # copies (owner of v1 + the other replica) = 3 applications.
        n_edges = 12
        g = TemporalGraph(src=np.zeros(n_edges, dtype=np.int64),
                          dst=np.ones(n_edges, dtype=np.int64),
                          t=np.arange(n_edges, dtype=np.float64),
                          num_nodes=3)
        assignment = np.array([0, 1, 2])
        p = Placement(assignment=assignment, num_shards=3,
                      replicas={1: (0, 2)})
        engine = ServingEngine([PerEdgeBackend() for _ in range(3)],
                               g.num_nodes, placement=p)
        rep = engine.run(g, window_s=2.0)
        assert rep.served_edges == n_edges
        assert rep.processed_edges == 3 * n_edges
        assert rep.replication_factor == pytest.approx(3.0)
        assert rep.replicated_vertices == 1
        # Without replication the same stream costs 2 applications/edge
        # (local + the destination owner's mail copy).
        base = ServingEngine([PerEdgeBackend() for _ in range(3)],
                             g.num_nodes,
                             placement=Placement(assignment=assignment,
                                                 num_shards=3))
        rep0 = base.run(g, window_s=2.0)
        assert rep0.replication_factor == pytest.approx(2.0)


# --------------------------------------------------------------------------- #
class TestPoolTopology:
    def test_pool_report_shape(self):
        g = skewed_graph()
        engine = ServingEngine([PerEdgeBackend()], g.num_nodes,
                               topology="pool", pool_servers=4)
        rep = engine.run(g, window_s=86400.0, speedup=1e4, num_streams=4)
        assert rep.topology == "pool"
        assert rep.placement == "none"
        assert len(rep.shard_stats) == 1
        assert rep.shard_stats[0].servers == 4
        assert rep.cross_shard_edges == 0
        # Pool-mode contract: one replica serves each job, so every edge is
        # processed exactly once and the factor is comparable to sharded
        # runs by the same definition.
        assert rep.replication_factor == pytest.approx(1.0)
        assert rep.processed_edges == rep.ingested_edges  # nothing dropped

    def test_pool_beats_sharded_p99_at_low_load(self):
        """Acceptance: with overhead-dominated small windows, the shared
        queue avoids paying the per-batch overhead once per shard per
        window, and pool p99 beats sharded fork-join p99."""
        g = skewed_graph()
        kw = dict(per_edge_s=2e-3, overhead_s=0.05)
        sharded = sharded_engine(g, 4, **kw)
        pool = ServingEngine([PerEdgeBackend(**kw)], g.num_nodes,
                             topology="pool", pool_servers=4)
        run_kw = dict(window_s=3600.0, speedup=3e3, num_streams=4)
        rs = sharded.run(g, **run_kw)
        rp = pool.run(g, **run_kw)
        assert rs.stable and rp.stable          # genuinely low load
        assert rp.p99_response_s < rs.p99_response_s

    def test_sharded_wins_when_marginal_cost_dominates(self):
        """The other side of the crossover: big windows, no overhead —
        fork-join parallelism beats serializing the whole batch."""
        g = skewed_graph()
        kw = dict(per_edge_s=5e-3, overhead_s=0.0)
        sharded = sharded_engine(g, 4, **kw)
        pool = ServingEngine([PerEdgeBackend(**kw)], g.num_nodes,
                             topology="pool", pool_servers=4)
        run_kw = dict(window_s=86400.0 * 5, speedup=1e4, num_streams=2)
        rs = sharded.run(g, **run_kw)
        rp = pool.run(g, **run_kw)
        assert rs.p99_response_s < rp.p99_response_s

    def test_more_replicas_never_hurt(self):
        g = skewed_graph()
        reps = []
        for k in (1, 2, 4):
            eng = ServingEngine([PerEdgeBackend(overhead_s=0.02)],
                                g.num_nodes, topology="pool",
                                pool_servers=k)
            reps.append(eng.run(g, window_s=3600.0, speedup=5e3,
                                num_streams=4))
        waits = [r.shard_stats[0].mean_wait_s for r in reps]
        assert waits[0] >= waits[1] >= waits[2]

    def test_pool_validation(self):
        g = skewed_graph()
        with pytest.raises(ValueError):
            ServingEngine([PerEdgeBackend()], g.num_nodes,
                          topology="ring")
        with pytest.raises(ValueError):
            ServingEngine([PerEdgeBackend()], g.num_nodes,
                          pool_servers=4)       # needs topology="pool"
        with pytest.raises(ValueError):
            ServingEngine([PerEdgeBackend()], g.num_nodes,
                          topology="pool", pool_servers=0)
        with pytest.raises(ValueError):    # replicas are not a shard fleet
            ServingEngine([PerEdgeBackend(), PerEdgeBackend()], g.num_nodes,
                          topology="pool")
        # A pool is the one-station fleet: a one-shard placement and a
        # one-die plan describe it truthfully (nothing is ever remote, so
        # the hop price buys nothing) and the run equals the plain pool's
        # — the placement label aside.  Two shards are not a pool.
        heat = VertexHeat.from_graph(g)

        def run(**kwargs):
            rep = ServingEngine([PerEdgeBackend()], g.num_nodes,
                                topology="pool", pool_servers=2,
                                **kwargs).run(g, window_s=3600.0,
                                              speedup=5e3, num_streams=4)
            return rep.to_dict()

        base = run()
        assert base["placement"] == "none"
        assert run(die_of=[0], mail_hop_s=1e-6) == base
        placed = run(placement=StaticHashPlacement().place(heat, 1))
        assert placed == dict(base, placement="hash")
        with pytest.raises(ValueError):
            ServingEngine([PerEdgeBackend()], g.num_nodes, topology="pool",
                          placement=StaticHashPlacement().place(heat, 2))


# --------------------------------------------------------------------------- #
class TestTrafficAwareDiePlanning:
    def test_heavy_pair_shares_a_die(self):
        # Shards 0 and 1 exchange almost everything; 2 and 3 the rest.
        traffic = np.array([[0, 90, 1, 1],
                            [80, 0, 1, 1],
                            [1, 1, 0, 40],
                            [1, 1, 30, 0]], dtype=float)
        plan = plan_shard_dies_traffic_aware(traffic, dies=3)
        assert plan[0] == plan[1]
        assert plan[2] == plan[3]
        assert plan[0] != plan[2]               # capacity forces the split
        # Same floorplan rules as the round-robin planner: the middle die
        # keeps the shared front end.
        assert 3 // 2 not in plan

    def test_single_die_and_balance(self):
        traffic = np.ones((4, 4))
        assert plan_shard_dies_traffic_aware(traffic, 1) == [0, 0, 0, 0]
        plan = plan_shard_dies_traffic_aware(traffic, 3)
        counts = {d: plan.count(d) for d in set(plan)}
        assert max(counts.values()) <= 2        # ceil(4/2) per outer die

    def test_no_worse_than_round_robin_on_prediction(self):
        """On the placement's own predicted traffic, the traffic-aware plan
        never crosses more edges than the blind round-robin plan."""
        g = skewed_graph()
        heat = VertexHeat.from_graph(g)
        p = StaticHashPlacement().place(heat, 4)
        traffic = p.mail_matrix(g.src, g.dst)

        def crossings(plan):
            plan = np.asarray(plan)
            return int(traffic[plan[:, None] != plan[None, :]].sum())

        aware = plan_shard_dies_traffic_aware(traffic, dies=3)
        blind = plan_shard_dies(4, 3)
        assert crossings(aware) <= crossings(blind)

    def test_validation(self):
        with pytest.raises(ValueError):
            plan_shard_dies_traffic_aware(np.zeros((2, 3)), 2)
        with pytest.raises(ValueError):
            plan_shard_dies_traffic_aware(np.zeros((2, 2)), 0)
