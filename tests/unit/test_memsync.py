"""Versioned cross-shard memory sync: cache protocol + exactness tests.

The headline acceptance test of the memsync subsystem lives here: a
sharded ``TGNN.process_batch`` replay under ``memsync='push'`` produces
vertex-memory tables — and therefore ``BatchResult`` outputs for held
vertices — bit-identical to the unsharded runtime, on >= 2 shards, with
and without replication.  ``'none'`` reproduces (and measures) the
stale-mirror divergence the subsystem exists to close.
"""

import numpy as np
import pytest

from repro.autograd import no_grad
from repro.datasets import wikipedia_like
from repro.graph import iter_fixed_size
from repro.models import ModelConfig, TGNN
from repro.pipeline import LinearCostBackend
from repro.serving import (MEMSYNC_POLICIES, Placement, ReplicatedReadMostly,
                           ServingEngine, StaticHashPlacement,
                           VersionedMemoryCache, VertexHeat)
from tests.property.sharded_oracle import Outcome, ShardedRuntime, note_reads

CFG = ModelConfig(memory_dim=8, time_dim=6, embed_dim=8, edge_dim=172,
                  num_neighbors=4, simplified_attention=True,
                  lut_time_encoder=True, lut_bins=8, pruning_budget=2)


def setup():
    g = wikipedia_like(num_edges=600, num_users=80, num_items=20)
    model = TGNN(CFG, rng=np.random.default_rng(0))
    model.calibrate(g)
    return g, model


def two_shard_placement():
    return Placement(assignment=np.array([0, 0, 1, 1]), num_shards=2)


def sync_step(cache, reads):
    """Drive one batch step: ``reads`` maps each present shard to the
    endpoints of its sub-batch, and the batch writes their union.  Returns
    each present shard's :class:`Outcome`."""
    v = np.unique(np.concatenate([np.asarray(r) for r in reads.values()]))
    incidence = np.zeros((cache.num_shards, len(v)), dtype=bool)
    for shard, r in reads.items():
        incidence[shard, np.searchsorted(v, r)] = True
    present = incidence.any(axis=1)
    steps = cache.steps(v, [0, len(v)], incidence, present[:, None])
    cache.commit(steps, 0)
    pull, push = steps.pull_bounds, steps.push_bounds
    return {s: Outcome(steps.pull[pull[s]:pull[s + 1]],
                       steps.push[push[s]:push[s + 1]],
                       steps.stale_bounds[s + 1] - steps.stale_bounds[s],
                       steps.lag[s])
            for s in present.nonzero()[0].tolist()}


class Tally:
    """Drives one cache through batch steps and reads, keeping every
    :class:`Outcome` they returned."""

    def __init__(self, placement, policy):
        self.cache = VersionedMemoryCache(placement, policy=policy)
        self.seen = []

    def write(self, reads):
        """One batch step; returns the rows it pushed, per shard."""
        outcomes = sync_step(self.cache, reads)
        self.seen.extend(outcomes.values())
        return {shard: o.pushed.tolist() for shard, o in outcomes.items()
                if len(o.pushed)}

    def read(self, shard, vertices):
        self.seen.append(note_reads(self.cache, shard, np.array(vertices)))
        return self.seen[-1]

    def traffic(self):
        """Rows pulled, rows pushed, stale reads and the worst lag of
        every step and read so far."""
        return (sum(len(o.pulled) for o in self.seen),
                sum(len(o.pushed) for o in self.seen),
                sum(o.stale_reads for o in self.seen),
                max((o.max_lag for o in self.seen), default=0))


# --------------------------------------------------------------------------- #
class TestVersionedMemoryCache:
    def test_owner_write_bumps_version_once_per_batch(self):
        c = VersionedMemoryCache(two_shard_placement(), policy="none")
        sync_step(c, {0: [0], 1: [2]})
        assert c.version.tolist() == [1, 0, 1, 0]
        sync_step(c, {1: [2]})
        assert c.version.tolist() == [1, 0, 2, 0]

    def test_holders_are_never_stale(self):
        c = VersionedMemoryCache(two_shard_placement(), policy="none")
        sync_step(c, {0: [0]})
        out = note_reads(c, 0, np.array([0, 1]))    # shard 0 owns both
        assert out.stale_reads == 0 and not len(out.pulled)

    def test_never_written_rows_are_not_stale(self):
        c = VersionedMemoryCache(two_shard_placement(), policy="invalidate")
        out = note_reads(c, 1, np.array([0, 1]))
        assert not len(out.pulled) and out.stale_reads == 0

    def test_none_counts_staleness_and_never_repairs(self):
        t = Tally(two_shard_placement(), "none")
        t.write({0: [0], 1: [2]})
        t.write({0: [0], 1: [2]})
        out = t.read(1, [0])
        assert out.stale_reads == 1 and out.max_lag == 2
        assert not len(out.pulled)
        # Next read is still stale — mirrors never refresh under none.
        assert t.read(1, [0]).stale_reads == 1
        assert t.traffic() == (0, 0, 2, 2)

    def test_invalidate_pulls_once_until_next_write(self):
        t = Tally(two_shard_placement(), "invalidate")
        t.write({0: [0]})
        out = t.read(1, [0])
        assert out.pulled.tolist() == [0] and out.stale_reads == 0
        # Repaired: a re-read is free until the owner writes again.
        assert not len(t.read(1, [0]).pulled)
        t.write({0: [0]})
        assert t.read(1, [0]).pulled.tolist() == [0]
        assert t.traffic() == (2, 0, 0, 0)

    def test_push_forwards_to_present_mirrors_only(self):
        t = Tally(two_shard_placement(), "push")
        # No mirror yet: the first write pushes nothing anywhere.
        assert t.write({0: [0], 1: [2]}) == {}
        # Cold read pulls and subscribes the mirror.
        assert t.read(1, [0]).pulled.tolist() == [0]
        # Now a write with the mirror present delivers the row eagerly...
        assert t.write({0: [0], 1: [2]}) == {1: [0]}
        assert not len(t.read(1, [0]).pulled)
        # ...but an absent mirror lags and repairs via the pull fallback.
        assert t.write({0: [0]}) == {}
        assert t.read(1, [0]).pulled.tolist() == [0]
        assert t.traffic() == (2, 1, 0, 0)

    def test_push_never_targets_holders(self):
        p = Placement(assignment=np.array([0, 0, 1, 1, 0, 1]), num_shards=2,
                      replicas={0: (1,)})
        t = Tally(p, "push")
        # Vertex 0 is held by both shards: shard 1 is a replica, not a
        # mirror, so nothing is ever pulled or pushed for it.
        t.write({0: [0], 1: [0]})
        assert not len(t.read(1, [0]).pulled)
        assert t.write({0: [0], 1: [0]}) == {}
        assert t.traffic() == (0, 0, 0, 0)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            VersionedMemoryCache(two_shard_placement(), policy="gossip")


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


def assert_held_outputs_bit_identical(srt, graph, ref, outs, batch_size=50):
    """Every held query row of every shard equals the unsharded row."""
    checked = 0
    for batch, ref_res, by_shard in zip(iter_fixed_size(graph, batch_size),
                                        ref, outs):
        pos = {int(e): i for i, e in enumerate(batch.eid)}
        for sb in srt.router.split(batch):
            res = by_shard[sb.shard]
            rows = np.empty(len(res.nodes), dtype=np.int64)
            for k in range(len(sb.batch)):
                p = pos[int(sb.batch.eid[k])]
                rows[2 * k], rows[2 * k + 1] = 2 * p, 2 * p + 1
            held = srt.router._member[sb.shard, res.nodes]
            assert np.array_equal(res.embeddings.data[held],
                                  ref_res.embeddings.data[rows[held]])
            checked += int(held.sum())
    assert checked > 0


class TestShardedRuntimeExactness:
    """The headline acceptance tests: sync policies close the stale-mirror
    correctness gap bit-for-bit."""

    @pytest.mark.parametrize("policy", ["push", "invalidate"])
    @pytest.mark.parametrize("num_shards", [2, 3])
    def test_sync_policies_bit_identical_to_unsharded(self, policy,
                                                      num_shards):
        g, model = setup()
        rt, ref = unsharded_reference(model, g)
        srt = ShardedRuntime(model, g, num_shards=num_shards, policy=policy)
        with no_grad():
            outs = [srt.process_batch(b) for b in iter_fixed_size(g, 50)]
        assert_held_state_bit_identical(srt, rt)
        assert_held_outputs_bit_identical(srt, g, ref, outs)
        # Exactness was bought with traffic, not tolerated staleness.
        assert srt.sync_rows > 0
        assert srt.stale_reads == 0
        assert srt.max_version_lag == 0
        assert srt.mailbox.total_sync_rows == srt.sync_rows

    @pytest.mark.parametrize("policy", ["push", "invalidate"])
    def test_exact_under_replication(self, policy):
        g, model = setup()
        rt, ref = unsharded_reference(model, g)
        heat = VertexHeat.from_graph(g)
        placement = ReplicatedReadMostly(top_k=4).place(heat, 3)
        assert placement.replicated_vertices > 0
        srt = ShardedRuntime(model, g, placement=placement, policy=policy)
        with no_grad():
            outs = [srt.process_batch(b) for b in iter_fixed_size(g, 50)]
        assert_held_state_bit_identical(srt, rt)
        assert_held_outputs_bit_identical(srt, g, ref, outs)

    def test_none_reproduces_the_stale_mirror_divergence(self):
        """The bug the subsystem closes, demonstrated: without sync, held
        memory rows diverge from the unsharded runtime and the cache
        measures the staleness that caused it."""
        g, model = setup()
        rt, _ = unsharded_reference(model, g)
        srt = ShardedRuntime(model, g, num_shards=3, policy="none")
        with no_grad():
            for b in iter_fixed_size(g, 50):
                srt.process_batch(b)
        diverged = any(
            not np.allclose(
                srt.runtimes[s].state.memory[srt.held_vertices(s)],
                rt.state.memory[srt.held_vertices(s)])
            for s in range(3))
        assert diverged
        assert srt.sync_rows == 0
        assert srt.stale_reads > 0
        assert srt.max_version_lag > 0

    def test_push_pays_at_least_the_invalidate_traffic(self):
        """Each pull under invalidate maps to >= 1 transfer under push in
        the same write interval, so push traffic dominates."""
        g, model = setup()
        totals = {}
        for policy in ("invalidate", "push"):
            srt = ShardedRuntime(model, g, num_shards=3, policy=policy)
            with no_grad():
                for b in iter_fixed_size(g, 50):
                    srt.process_batch(b)
            totals[policy] = srt.sync_rows
        assert totals["push"] >= totals["invalidate"] > 0

    def test_single_shard_needs_no_sync(self):
        g, model = setup()
        srt = ShardedRuntime(model, g, num_shards=1, policy="push")
        with no_grad():
            for b in iter_fixed_size(g, 100):
                srt.process_batch(b)
        assert srt.sync_rows == 0
        assert srt.mailbox.total_edges == 0

    def test_oracle_catches_an_undelivered_push(self, monkeypatch):
        """Mutation check: a cache that stamps pushed mirrors current but
        names no rows to deliver must break the replay's exactness."""
        honest = VersionedMemoryCache.steps

        def undelivered(self, *args):
            steps = honest(self, *args)
            return steps._replace(push=steps.push[:0],
                                  push_bounds=[0] * len(steps.push_bounds))

        g, model = setup()
        rt, _ = unsharded_reference(model, g)
        monkeypatch.setattr(VersionedMemoryCache, "steps", undelivered)
        srt = ShardedRuntime(model, g, num_shards=2, policy="push")
        with no_grad():
            for b in iter_fixed_size(g, 50):
                srt.process_batch(b)
        with pytest.raises(AssertionError):
            assert_held_state_bit_identical(srt, rt)


# --------------------------------------------------------------------------- #
class TestEngineMemsync:
    """Pricing-side threading: the serving engine reports and charges the
    sync traffic without running the functional protocol."""

    def engine(self, g, shards=4, **kw):
        return ServingEngine([LinearCostBackend(per_edge_s=1e-3)
                              for _ in range(shards)], g.num_nodes, **kw)

    def run(self, engine, g):
        return engine.run(g, window_s=3600.0, speedup=2.0, num_streams=2)

    def test_report_fields_per_policy(self):
        g = wikipedia_like(num_edges=600, num_users=80, num_items=20)
        reps = {p: self.run(self.engine(g, memsync=p), g)
                for p in MEMSYNC_POLICIES}
        none, inval, push = (reps[p] for p in MEMSYNC_POLICIES)
        assert none.memsync == "none"
        assert none.sync_edges == 0
        assert none.stale_reads > 0 and none.max_version_lag > 0
        for rep in (inval, push):
            assert rep.sync_edges > 0
            assert rep.stale_reads == 0 and rep.max_version_lag == 0
        assert push.sync_edges >= inval.sync_edges
        for rep in reps.values():
            d = rep.to_dict()
            for key in ("memsync", "sync_edges", "stale_reads",
                        "max_version_lag"):
                assert key in d

    def test_none_is_byte_identical_to_default_engine(self):
        """Acceptance: --memsync none reproduces the no-memsync report."""
        g = wikipedia_like(num_edges=600, num_users=80, num_items=20)
        base = self.run(self.engine(g), g)
        none = self.run(self.engine(g, memsync="none"), g)
        assert none.to_json() == base.to_json()

    def test_sync_traffic_prices_into_service_times(self):
        """With a die plan, pulled rows cost round-trips and pushed rows
        cost a hop — so sync policies inflate busy time over none."""
        g = wikipedia_like(num_edges=600, num_users=80, num_items=20)
        kw = dict(die_of=[0, 1, 0, 1], mail_hop_s=1e-3)
        busy = {}
        for policy in MEMSYNC_POLICIES:
            rep = self.run(self.engine(g, memsync=policy, **kw), g)
            busy[policy] = sum(s.busy_s for s in rep.shard_stats)
        assert busy["invalidate"] > busy["none"]
        assert busy["push"] > busy["none"]
        # Without a die plan the same traffic is free (co-located shards).
        rep = self.run(self.engine(g, memsync="push"), g)
        base = self.run(self.engine(g), g)
        assert sum(s.busy_s for s in rep.shard_stats) == \
            pytest.approx(sum(s.busy_s for s in base.shard_stats))

    def test_pool_rejects_memsync(self):
        """Handled, not rejected: a pool's one station holds every row,
        so each policy runs and has nothing to transfer or to find
        stale.  An unknown policy is still an error."""
        g = wikipedia_like(num_edges=200, num_users=30, num_items=8)
        reports = {}
        for policy in MEMSYNC_POLICIES:
            rep = ServingEngine([LinearCostBackend()], g.num_nodes,
                                topology="pool", pool_servers=3,
                                memsync=policy).run(g, window_s=3600.0)
            assert rep.memsync == policy
            assert rep.sync_edges == rep.stale_reads == 0
            assert rep.max_version_lag == 0
            reports[policy] = dict(rep.to_dict(), memsync=None)
        assert reports["push"] == reports["invalidate"] == reports["none"]
        with pytest.raises(ValueError):
            self.engine(g, memsync="gossip")

    def test_pool_report_carries_none_policy(self):
        g = wikipedia_like(num_edges=200, num_users=30, num_items=8)
        rep = ServingEngine([LinearCostBackend()], g.num_nodes,
                            topology="pool", pool_servers=3).run(
            g, window_s=3600.0)
        assert rep.memsync == "none" and rep.sync_edges == 0
