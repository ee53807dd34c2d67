"""Property-based check of the one live ownership table.

Random interleavings of ``hand_off``, ``fail_over``, fail-back and bare
``router.migrate`` run against random replicated placements, and after
every step the table must agree with :class:`DictOracle` — the replicas
dict and per-vertex loops ``ShardRouter.migrate`` / ``fail_over`` used
before the holder matrix became the single store, kept here as the
reference.
"""

import functools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import TemporalGraph
from repro.models import ModelConfig, TGNN
from repro.serving import Placement
from repro.serving.memsync import fail_over, hand_off
from tests.property.sharded_oracle import ShardedRuntime

settings.register_profile("repro", deadline=None, max_examples=30)
settings.load_profile("repro")

NUM_NODES = 12


class DictOracle:
    """Ownership as it was stored before: assignment + a replicas dict,
    mutated one vertex at a time."""

    def __init__(self, assignment, replicas, num_shards):
        self.assignment = assignment.copy()
        self.replicas = dict(replicas)
        self.num_shards = num_shards

    def holders(self, v):
        return {int(self.assignment[v]), *self.replicas.get(v, ())}

    def migrate(self, vertices, to):
        for x in sorted(set(vertices)):
            o = int(self.assignment[x])
            extra = self.replicas.get(x)
            if extra:
                # Demote the old owner into the replica set; promote the
                # target out of it if it was a member.
                new_extra = tuple(s for s in extra if s != to)
                if o != to:
                    new_extra += (o,)
                self.replicas[x] = new_extra
            self.assignment[x] = to

    def fail_over(self, dead, alive):
        survivors = [s for s in alive if s != dead]
        promoted, rebuilt = [], []
        for x in np.flatnonzero(self.assignment == dead).tolist():
            extra = self.replicas.get(x)
            if extra:
                new_owner = min(extra)
                self.replicas[x] = tuple(s for s in extra if s != new_owner)
                promoted.append(x)
            else:
                new_owner = survivors[x % len(survivors)]
                rebuilt.append(x)
            self.assignment[x] = new_owner
        # The dead shard's replica copies are lost with it.
        for x, extra in list(self.replicas.items()):
            self.replicas[x] = tuple(s for s in extra if s != dead)
        return promoted, rebuilt


@functools.lru_cache(maxsize=None)
def model_and_graph():
    g = TemporalGraph(np.arange(NUM_NODES - 1), np.arange(1, NUM_NODES),
                      np.arange(NUM_NODES - 1, dtype=np.float64),
                      num_nodes=NUM_NODES)
    model = TGNN(ModelConfig(memory_dim=4, time_dim=4, embed_dim=4,
                             edge_dim=g.edge_dim, num_neighbors=2),
                 rng=np.random.default_rng(0))
    return model, g


@st.composite
def replicated_placement(draw):
    """2-5 shards; some vertices on 2-3 holders."""
    num_shards = draw(st.integers(2, 5))
    assignment = np.array(draw(st.lists(
        st.integers(0, num_shards - 1),
        min_size=NUM_NODES, max_size=NUM_NODES)), dtype=np.int64)
    replicas = {}
    for v in draw(st.sets(st.integers(0, NUM_NODES - 1), max_size=6)):
        others = [s for s in range(num_shards) if s != assignment[v]]
        extra = draw(st.lists(st.sampled_from(others), unique=True,
                              min_size=1, max_size=min(2, len(others))))
        replicas[v] = tuple(extra)
    return assignment, replicas, num_shards


def assert_table_matches(srt, oracle):
    placement, cache = srt.router.placement, srt.cache
    member = placement.member
    assert np.array_equal(placement.assignment, oracle.assignment)
    for v in range(NUM_NODES):
        assert set(placement.holders(v)) == oracle.holders(v)
    assert placement.replicas == {v: tuple(sorted(extra))
                                  for v, extra in oracle.replicas.items()
                                  if extra}
    assert member[placement.assignment, np.arange(NUM_NODES)].all()
    assert member.any(axis=0).all()
    assert placement.replicated_vertices == (member.sum(axis=0) > 1).sum()
    # Readers of the table see every move without being told about it.
    assert np.array_equal(cache._holder, member)
    for s in range(placement.num_shards):
        assert srt.held_vertices(s).tolist() == \
            [v for v in range(NUM_NODES) if s in oracle.holders(v)]


class TestOwnershipTable:
    @given(replicated_placement(), st.data())
    def test_moves_match_the_dict_and_loop_rules(self, drawn, data):
        assignment, replicas, num_shards = drawn
        model, g = model_and_graph()
        srt = ShardedRuntime(model, g, placement=Placement(
            assignment=assignment.copy(), num_shards=num_shards,
            replicas=replicas))
        router, cache = srt.router, srt.cache
        oracle = DictOracle(assignment, replicas, num_shards)
        assert_table_matches(srt, oracle)
        failed = {}                     # dead shard -> vertices it owned
        for _ in range(data.draw(st.integers(1, 8), label="steps")):
            alive = [s for s in range(num_shards) if s not in failed]
            ops = ["hand_off", "migrate"]
            if len(alive) >= 2:
                ops.append("fail")
            if failed:
                ops.append("fail_back")
            op = data.draw(st.sampled_from(ops), label="op")
            if op == "fail":
                dead = data.draw(st.sampled_from(alive), label="dead")
                had_copy = cache._holder | cache._mirror
                owned, promoted, rebuilt, peers = fail_over(
                    router, cache, dead, np.isin(np.arange(num_shards),
                                                 alive))
                want_promoted, want_rebuilt = oracle.fail_over(dead, alive)
                assert dead not in router.assignment
                assert np.isin(router.assignment, alive).all()
                assert promoted.tolist() == want_promoted
                assert rebuilt.tolist() == want_rebuilt
                assert sorted(owned.tolist()) == \
                    sorted(want_promoted + want_rebuilt)
                # Rebuild sources come from the pre-failover copies: never
                # the dead shard, never a new owner that held nothing.
                sourced = peers >= 0
                assert (peers[sourced] != dead).all()
                assert had_copy[peers[sourced], rebuilt[sourced]].all()
                failed[dead] = owned
            elif op == "fail_back":
                home = data.draw(st.sampled_from(sorted(failed)),
                                 label="home")
                owned = failed.pop(home)
                move = owned[router.assignment[owned] != home]
                hand_off(router, cache, move, router.assignment[move], home)
                oracle.migrate(move.tolist(), home)
            else:
                v = np.array(sorted(data.draw(
                    st.sets(st.integers(0, NUM_NODES - 1), min_size=1,
                            max_size=4), label="vertices")))
                to = data.draw(st.sampled_from(alive), label="to")
                if op == "hand_off":
                    hand_off(router, cache, v, router.assignment[v], to)
                else:                   # routing side alone: no cache call
                    router.migrate(v, to)
                oracle.migrate(v.tolist(), to)
            assert_table_matches(srt, oracle)
