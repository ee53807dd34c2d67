"""Property-based equivalence of the router's one-pass plans.

``ShardRouter.plan`` routes consecutive jobs at once: one ``(shard,
edge)`` incidence over all of them, one sort into per-``(job, shard)``
runs and one closed-form memsync pass over every job
(``VersionedMemoryCache.steps``); ``split`` is its one-job case.  Two
bodies it replaced are kept here, and only here, as oracles: the
per-shard loop — five masks and one gather set per shard, then
``note_reads`` per sub-batch and one ``note_writes`` with a per-shard push
loop — and the one-pass ``split`` that routed one job at a time, whose
batch step was ``step`` in ``tests/property/sharded_oracle.py``.  Random
replicated placements, random ``hand_off`` / ``fail_over`` / bare
``migrate`` moves between batches, all three memsync policies, with and
without a mailbox: every :class:`ShardBatch` field must be array-equal
(value, dtype, order) and the mailbox and cache state identical after
every batch — for ``split`` per batch, and for one plan over every batch
left, rebuilt when the router's generation moves.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import EdgeBatch
from repro.serving import (MEMSYNC_POLICIES, CrossShardMailbox, Placement,
                           ShardBatch, ShardRouter, VersionedMemoryCache)
from repro.serving.memsync import fail_over, hand_off
from tests.property.sharded_oracle import step as oracle_step
from tests.property.test_ownership_properties import (NUM_NODES,
                                                      replicated_placement)

EDGE_DIM = 3
_NO_ROWS = np.empty(0, dtype=np.int64)
_NO_SYNC = (_NO_ROWS, _NO_ROWS, 0, 0)


# --------------------------------------------------------------------------- #
# The oracle: the loop implementation, verbatim but for taking the cache and
# the mailbox as arguments and keeping no running totals on the cache (the
# sub-batches carry every count).
def oracle_note_reads(cache, shard, vertices):
    v = np.unique(np.asarray(vertices, dtype=np.int64))
    v = v[~cache._holder[shard, v]]       # holders are never stale
    if not len(v):
        return _NO_ROWS, 0, 0
    lag = cache.version[v] - cache.mirror_version[shard, v]
    stale = v[lag > 0]
    if cache.policy == "none":
        max_lag = int(lag.max(initial=0))
        return _NO_ROWS, len(stale), max_lag if len(stale) else 0
    cache.mirror_version[shard, stale] = cache.version[stale]
    cache._mirror[shard, stale] = True
    return stale, 0, 0


def oracle_note_writes(cache, vertices, present_shards):
    v = np.unique(np.asarray(vertices, dtype=np.int64))
    if not len(v):
        return {}
    cache.version[v] += 1
    held = cache._holder[:, v]
    cache.mirror_version[:, v] = np.where(
        held, cache.version[v][None, :], cache.mirror_version[:, v])
    pushes = {}
    if cache.policy == "push":
        for shard in present_shards:
            tgt = v[cache._mirror[shard, v] & ~cache._holder[shard, v]
                    & (cache.mirror_version[shard, v] < cache.version[v])]
            if len(tgt):
                cache.mirror_version[shard, tgt] = cache.version[tgt]
                pushes[shard] = tgt
    return pushes


def oracle_split(router, batch, mailbox=None, cache=None):
    s_src = router.assignment[batch.src]
    out = []
    for shard in range(router.num_shards):
        local = s_src == shard
        held = router._member[shard, batch.src] \
            | router._member[shard, batch.dst]
        mail = held & ~local
        sel = local | mail
        if not sel.any():
            continue
        sub = EdgeBatch(src=batch.src[sel], dst=batch.dst[sel],
                        t=batch.t[sel], eid=batch.eid[sel],
                        edge_feat=batch.edge_feat[sel])
        mail_from = s_src[mail]
        if mailbox is not None and len(mail_from):
            np.add.at(mailbox.counts, (mail_from, shard), 1)
        out.append(ShardBatch(shard=shard, batch=sub,
                              local_edges=int(local.sum()),
                              mail_edges=int(mail.sum()),
                              mail_from=mail_from))
    if cache is None:
        return out
    reads = {sb.shard: oracle_note_reads(cache, sb.shard, sb.batch.nodes)
             for sb in out}
    pushes = oracle_note_writes(cache, batch.nodes,
                                [sb.shard for sb in out])
    return [dataclasses.replace(sb, sync_pull=reads[sb.shard][0],
                                sync_push=pushes.get(sb.shard, _NO_ROWS),
                                stale_reads=reads[sb.shard][1],
                                version_lag=reads[sb.shard][2])
            for sb in out]


# The one-pass split that routed one job per call, verbatim but for taking
# the router as an argument and running the batch step of the oracle's
# ``step``.
def oracle_one_pass_split(router, batch, mailbox=None, cache=None):
    if router.num_shards == 1:
        return [ShardBatch(0, batch, len(batch))] if len(batch) else []
    to_shard, edge, from_shard = router.placement.incidence(batch.src,
                                                            batch.dst)
    src, dst = batch.src[edge], batch.dst[edge]
    t, eid, feat = batch.t[edge], batch.eid[edge], batch.edge_feat[edge]
    mail = (from_shard != to_shard).nonzero()[0]
    mail_from, mail_to = from_shard[mail], to_shard[mail]
    # Both runs are shard-major: shard s's slice ends where shard s + 1
    # would begin.
    shard_ids = np.arange(router.num_shards + 1)
    bounds = to_shard.searchsorted(shard_ids).tolist()
    mail_bounds = mail_to.searchsorted(shard_ids).tolist()
    if mailbox is not None:
        mailbox.record(mail_from, mail_to)
    sync = {}
    if cache is not None:
        # Column j of ``reads`` is endpoint ``rows[j]``; row s marks
        # the endpoints of shard s's sub-batch.
        rows = np.unique(batch.nodes)
        reads = np.zeros((router.num_shards, len(rows)), dtype=bool)
        reads[to_shard, rows.searchsorted(src)] = True
        reads[to_shard, rows.searchsorted(dst)] = True
        sync = oracle_step(cache, rows, reads, write=True)
    out = []
    for shard in range(router.num_shards):
        lo, hi = bounds[shard], bounds[shard + 1]
        if lo == hi:
            continue
        mail_lo, mail_hi = mail_bounds[shard], mail_bounds[shard + 1]
        pulled, pushed, stale_reads, max_lag = sync.get(shard, _NO_SYNC)
        out.append(ShardBatch(
            shard=shard,
            batch=EdgeBatch(src=src[lo:hi], dst=dst[lo:hi], t=t[lo:hi],
                            eid=eid[lo:hi], edge_feat=feat[lo:hi]),
            local_edges=(hi - lo) - (mail_hi - mail_lo),
            mail_edges=mail_hi - mail_lo,
            mail_from=mail_from[mail_lo:mail_hi],
            sync_pull=pulled, sync_push=pushed,
            stale_reads=stale_reads, version_lag=max_lag))
    return out


# --------------------------------------------------------------------------- #
class Fleet:
    """One world: a placement and the router, cache and mailbox on it."""

    def __init__(self, assignment, replicas, num_shards, policy, mailbox):
        placement = Placement(assignment=assignment.copy(),
                              num_shards=num_shards, replicas=replicas)
        self.router = ShardRouter.from_placement(placement)
        self.cache = None if policy is None \
            else VersionedMemoryCache(placement, policy=policy)
        self.mailbox = CrossShardMailbox(num_shards) if mailbox else None

    def move(self, op):
        if op[0] == "migrate":
            _, vertices, to_shard = op
            v = np.unique(np.asarray(vertices, dtype=np.int64))
            hand_off(self.router, self.cache, v, self.router.assignment[v],
                     to_shard)
        elif op[0] == "bare_migrate":
            # The routing flip without the cache's stamps: the new owner
            # is a holder whose stamp lags, and must still never be stale.
            self.router.migrate(op[1], op[2])
        else:
            _, dead = op
            fail_over(self.router, self.cache, dead,
                      np.ones(self.router.num_shards, dtype=bool))


def assert_same_array(a, b):
    assert isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.array_equal(a, b)


def assert_same_sub_batches(got, want):
    assert [sb.shard for sb in got] == [sb.shard for sb in want]
    for g, w in zip(got, want):
        for f in dataclasses.fields(ShardBatch):
            a, b = getattr(g, f.name), getattr(w, f.name)
            if f.name == "batch":
                for col in dataclasses.fields(EdgeBatch):
                    assert_same_array(getattr(a, col.name),
                                      getattr(b, col.name))
            elif isinstance(b, np.ndarray):
                assert_same_array(a, b)
            else:
                assert type(a) is type(b) is int and a == b, f.name


def assert_same_state(new, old):
    assert np.array_equal(new.router.assignment, old.router.assignment)
    assert np.array_equal(new.router._member, old.router._member)
    if new.mailbox is not None:
        assert_same_array(new.mailbox.counts, old.mailbox.counts)
    if new.cache is not None:
        # The push rule relies on it: a stamp never runs ahead of its owner.
        assert (new.cache.mirror_version <= new.cache.version).all()
        for name in ("version", "mirror_version", "_mirror"):
            assert_same_array(getattr(new.cache, name),
                              getattr(old.cache, name))


# --------------------------------------------------------------------------- #
vertex = st.integers(0, NUM_NODES - 1)
# Sizes 0, 1 and many; endpoints repeat and self-loop freely.
edge_lists = st.one_of(
    st.just([]),
    st.lists(st.tuples(vertex, vertex), min_size=1, max_size=1),
    st.lists(st.tuples(vertex, vertex), min_size=2, max_size=14))


MOVES = ("migrate", "bare_migrate", "fail_over")


def draw_step(draw, num_shards, kinds=("batch",) * 3 + MOVES):
    kind = draw(st.sampled_from(kinds))
    if kind == "batch":
        return ("batch", draw(edge_lists))
    if kind in ("migrate", "bare_migrate"):
        return (kind, draw(st.lists(vertex, max_size=4)),
                draw(st.integers(0, num_shards - 1)))
    return ("fail_over", draw(st.integers(0, num_shards - 1)))


def make_batch(edges, eid0):
    n = len(edges)
    pairs = np.array(edges, dtype=np.int64).reshape(n, 2)
    eid = np.arange(eid0, eid0 + n, dtype=np.int64)
    return EdgeBatch(src=pairs[:, 0], dst=pairs[:, 1],
                     t=eid.astype(np.float64), eid=eid,
                     edge_feat=np.arange(n * EDGE_DIM, dtype=np.float64)
                     .reshape(n, EDGE_DIM) + eid0)


class TestSplitMatchesTheLoop:
    # Three-step scenarios (write, bare migrate, read at the new owner) are
    # rare draws: give this one more examples than the shared profile.
    @settings(deadline=None, max_examples=200)
    @given(replicated_placement(),
           st.sampled_from((None, *MEMSYNC_POLICIES)), st.booleans(),
           st.data())
    def test_batches_and_state_equal_the_oracle(self, drawn, policy,
                                                with_mailbox, data):
        new = Fleet(*drawn, policy, with_mailbox)
        old = Fleet(*drawn, policy, with_mailbox)
        eid0 = 0
        for _ in range(data.draw(st.integers(1, 8))):
            step = draw_step(data.draw, new.router.num_shards)
            if step[0] != "batch":
                new.move(step)
                old.move(step)
                assert_same_state(new, old)
                continue
            batch = make_batch(step[1], eid0)
            eid0 += len(batch)
            got = new.router.split(batch, new.mailbox, cache=new.cache)
            want = oracle_split(old.router, batch, old.mailbox, old.cache)
            assert_same_sub_batches(got, want)
            assert_same_state(new, old)

    @given(replicated_placement(), st.sampled_from(MEMSYNC_POLICIES))
    def test_empty_batch_returns_nothing_and_changes_nothing(self, drawn,
                                                             policy):
        fleet = Fleet(*drawn, policy, mailbox=True)
        untouched = Fleet(*drawn, policy, mailbox=True)
        assert fleet.router.split(make_batch([], 0), fleet.mailbox,
                                  cache=fleet.cache) == []
        assert_same_state(fleet, untouched)

    @given(replicated_placement(), edge_lists.filter(len))
    def test_only_shards_with_an_incident_edge_appear(self, drawn, edges):
        router = Fleet(*drawn, None, mailbox=False).router
        batch = make_batch(edges, 0)
        touched = (router._member[:, batch.src]
                   | router._member[:, batch.dst]).any(axis=1)
        subs = router.split(batch)
        assert [sb.shard for sb in subs] == np.flatnonzero(touched).tolist()
        assert all(len(sb.batch) for sb in subs)


# --------------------------------------------------------------------------- #
def check_plan(drawn, policy, with_mailbox, steps):
    """Route the batch steps through plans — each over every batch left,
    rebuilt when the generation moves — and both oracles side by side."""
    new, loop, one = (Fleet(*drawn, policy, with_mailbox) for _ in range(3))
    batches, eid0 = [], 0
    for s in steps:
        if s[0] == "batch":
            batches.append(make_batch(s[1], eid0))
            eid0 += len(s[1])
    edges = EdgeBatch(*(np.concatenate([getattr(b, f.name) for b in batches])
                        if batches else getattr(make_batch([], 0), f.name)
                        for f in dataclasses.fields(EdgeBatch)))
    job_edges = np.cumsum([0] + [len(b) for b in batches])
    plan, j = None, 0
    for s in steps:
        if s[0] != "batch":
            for fleet in (new, loop, one):
                fleet.move(s)
            assert_same_state(new, loop)
            continue
        if plan is None or plan.generation != new.router.generation:
            plan = new.router.plan(
                edges, job_edges[j:] - job_edges[j],
                rows=np.arange(job_edges[j], job_edges[-1]),
                mailbox=new.mailbox, cache=new.cache)
        got = [plan.shard_batch(*run) for run in plan.next()]
        want = oracle_split(loop.router, batches[j], loop.mailbox, loop.cache)
        assert_same_sub_batches(
            oracle_one_pass_split(one.router, batches[j], one.mailbox,
                                  one.cache), want)
        assert_same_sub_batches(got, want)
        assert_same_state(new, loop)
        assert_same_state(one, loop)
        j += 1


class TestPlanMatchesBothOracles:
    @settings(deadline=None, max_examples=200)
    @given(replicated_placement(),
           st.sampled_from((None, *MEMSYNC_POLICIES)), st.booleans(),
           st.data())
    def test_one_plan_per_generation_equals_the_oracles(self, drawn, policy,
                                                         with_mailbox, data):
        # 1-8 jobs; an ownership move lands before a quarter of them.
        steps = []
        for job in range(data.draw(st.integers(1, 8))):
            if job and data.draw(st.integers(0, 3)) == 0:
                steps.append(draw_step(data.draw, drawn[2], MOVES))
            steps.append(("batch", data.draw(edge_lists)))
        check_plan(drawn, policy, with_mailbox, steps)

    # Vertex 1 moves from shard 1 to shard 0 between two writes of the
    # edge (0, 1): shard 1 stops receiving it.
    MOVE = [("batch", [(0, 1)]), ("migrate", [1], 0), ("batch", [(0, 1)])]
    DRAWN = (np.arange(NUM_NODES) % 2, {}, 2)

    def test_the_fixed_move_passes(self):
        check_plan(self.DRAWN, "push", True, self.MOVE)

    def test_a_plan_that_ignores_the_generation_fails(self, monkeypatch):
        """Mutation check: moves that leave ``generation`` alone keep the
        first plan, routed under the old ownership, in use."""
        for name in ("migrate", "fail_over"):
            honest = getattr(ShardRouter, name)

            def unbumped(router, *args, _honest=honest):
                generation = router.generation
                out = _honest(router, *args)
                router.generation = generation
                return out

            monkeypatch.setattr(ShardRouter, name, unbumped)
        with pytest.raises(AssertionError):
            check_plan(self.DRAWN, "push", True, self.MOVE)
