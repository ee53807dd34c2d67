"""Property-based equivalence of the one-pass ``ShardRouter.split``.

``split`` computes one ``(shard, edge)`` incidence per flush, gathers the
edge columns once and runs one batch-level memsync step.  The per-shard
loop it replaced — five masks and one gather set per shard, then
``note_reads`` per sub-batch and one ``note_writes`` with a per-shard push
loop — is kept here, and only here, as the oracle.  Random replicated
placements, random ``hand_off`` / ``fail_over`` / bare ``migrate`` moves
between batches, all three memsync policies, with and without a mailbox:
every :class:`ShardBatch` field must be array-equal (value, dtype, order)
and the mailbox and cache state identical after every batch.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import EdgeBatch
from repro.serving import (MEMSYNC_POLICIES, CrossShardMailbox, Placement,
                           ShardBatch, ShardRouter, VersionedMemoryCache)
from repro.serving.memsync import fail_over, hand_off
from tests.property.test_ownership_properties import (NUM_NODES,
                                                      replicated_placement)

EDGE_DIM = 3
_NO_ROWS = np.empty(0, dtype=np.int64)


# --------------------------------------------------------------------------- #
# The oracle: the loop implementation, verbatim but for taking the cache and
# the mailbox as arguments.
def oracle_note_reads(cache, shard, vertices):
    v = np.unique(np.asarray(vertices, dtype=np.int64))
    v = v[~cache._holder[shard, v]]       # holders are never stale
    if not len(v):
        return _NO_ROWS, 0, 0
    lag = cache.version[v] - cache.mirror_version[shard, v]
    stale = v[lag > 0]
    if cache.policy == "none":
        max_lag = int(lag.max(initial=0))
        cache.stale_reads += len(stale)
        cache.max_version_lag = max(cache.max_version_lag, max_lag)
        return _NO_ROWS, len(stale), max_lag if len(stale) else 0
    cache.mirror_version[shard, stale] = cache.version[stale]
    cache._mirror[shard, stale] = True
    cache.pulled_rows += len(stale)
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
                cache.pushed_rows += len(tgt)
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
        for name in ("pulled_rows", "pushed_rows", "stale_reads",
                     "max_version_lag"):
            a, b = getattr(new.cache, name), getattr(old.cache, name)
            assert type(a) is type(b) is int and a == b, name


# --------------------------------------------------------------------------- #
vertex = st.integers(0, NUM_NODES - 1)
# Sizes 0, 1 and many; endpoints repeat and self-loop freely.
edge_lists = st.one_of(
    st.just([]),
    st.lists(st.tuples(vertex, vertex), min_size=1, max_size=1),
    st.lists(st.tuples(vertex, vertex), min_size=2, max_size=14))


def draw_step(draw, num_shards):
    kind = draw(st.sampled_from(["batch", "batch", "batch", "migrate",
                                 "bare_migrate", "fail_over"]))
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
