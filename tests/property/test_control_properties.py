"""Property-based check that the ownership controllers compose.

Any two or all three of {online rebalancer, autoscaler, failure injector
— including two shards down at once} run on one control plane, under
serial and pipelined ingest, with failure and recovery instants drawn
both between releases and *exactly on* a release instant.  Every run
must replay clean, conserve its windows, agree byte for byte across the
heap and vectorized schedulers, never move a vertex onto an ineligible
shard (dead, or outside the scaler's active prefix), never route while a
dead shard still owns anything, and account for every proposed plan as
applied or stale.

A second property holds the fleet to its own definition: it is a
server-count vector ``[1] * (n - 1) + [k]``, and the ``topology`` names
are spellings of it, so two spellings of one vector — under any memsync
policy, ingest mode and controller subset — report the same run.

A rebalancer-only serial run is served as one pass (its releases and
the rebalancer's plans are the loop's only events); a third property
holds that pass to the event loop it replaces and to the per-element
scheduler, over the drifting workload and a copy of it on an integer
grid, where services end exactly on release instants.

``REPRO_CHAOS_SEED`` (CI runs a small matrix) varies the workload, so the
same strategies meet more than one failover geometry.
"""

import functools
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.serving.engine as engine_module
from repro.analysis.tracecheck import check_run
from repro.datasets import drifting_hot_set_graph
from repro.graph import TemporalGraph
from repro.pipeline import LinearCostBackend
from repro.serving import (MEMSYNC_POLICIES, AutoScaler, CapacityConfig,
                           DynamicBatcher, FailureEvent, FailurePlan,
                           FlushEvent, HeapEventScheduler, HotColdHybrid,
                           MigrationEvent, OnlineRebalancer, Placement,
                           RecoveryEvent, ReplicatedReadMostly, ScaleEvent,
                           ServingEngine, VertexHeat, make_stream_arrivals,
                           padded_hash_placement)
from repro.serving.events import ServerGroup
from tests.property.lane_agreement import check_lane_agreement

settings.register_profile("repro", deadline=None, max_examples=30)
settings.load_profile("repro")

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))
SLOTS, ACTIVE = 4, 2
WINDOW_S, SPEEDUP, STREAMS = 250.0, 2400.0, 2
MAX_DELAY_S = 0.01


@functools.lru_cache(maxsize=None)
def workload():
    g = drifting_hot_set_graph(500, SLOTS, num_nodes=64, phases=4,
                               hot_size=4, seed=11 + CHAOS_SEED)
    arrivals = make_stream_arrivals(g, WINDOW_S, num_streams=STREAMS,
                                    speedup=SPEEDUP)
    return g, np.array([a.t for a in arrivals])


@st.composite
def instants(draw, after=0.0):
    """An event-loop instant later than ``after``: somewhere in the run,
    or exactly on a release instant (an arrival under the passthrough
    batcher; an arrival or a deadline under the batching one)."""
    _, ts = workload()
    later = ts[ts > after]
    if len(later) and draw(st.booleans()):
        t = float(later[draw(st.integers(0, len(later) - 1))])
        return t + draw(st.sampled_from([0.0, MAX_DELAY_S]))
    return after + draw(st.floats(1e-3, 1.0)) * max(float(ts[-1]) - after,
                                                    0.1)


@st.composite
def chaos(draw):
    """One or two dead/slow failures on distinct shards; the second one
    starts inside the first one's outage.  Shard 0 never fails, so a
    survivor always exists inside the active prefix."""
    shards = draw(st.permutations([1, 2, 3]))
    plans, after = [], 0.0
    for shard in shards[:draw(st.integers(1, 2))]:
        fail_at = draw(instants(after))
        recover_at = draw(st.one_of(st.none(), instants(fail_at)))
        plans.append(FailurePlan(fail_at, shard, recover_at=recover_at,
                                 mode=draw(st.sampled_from(["dead", "dead",
                                                            "slow"]))))
        after = fail_at
    return plans


@st.composite
def scenario(draw):
    use = draw(st.lists(st.booleans(), min_size=3, max_size=3)
               .filter(lambda picks: sum(picks) >= 2))
    return {"rebalance": use[0], "autoscale": use[1],
            "plans": draw(chaos()) if use[2] else None,
            "ingest": draw(st.sampled_from(["serial", "pipelined"])),
            "batched": draw(st.booleans())}


def controllers(sc, replicas=ACTIVE, max_replicas=SLOTS):
    """The scenario's autoscaler and rebalancer (``None`` when off)."""
    auto = reb = None
    if sc["autoscale"]:
        auto = AutoScaler(CapacityConfig(micro_batch=1, replicas=replicas,
                                         max_replicas=max_replicas),
                          slo_p95_s=0.02, scale_window_s=0.1)
    if sc["rebalance"]:
        reb = OnlineRebalancer(window_s=0.05, util_threshold=0.3)
    return auto, reb


def run(sc, scheduler_cls=None, trace=False):
    g, _ = workload()
    auto, reb = controllers(sc)
    # Without the scaler the whole fleet is active from the start.
    placement = padded_hash_placement(
        g.num_nodes, ACTIVE if sc["autoscale"] else SLOTS, SLOTS)
    engine = ServingEngine(
        [LinearCostBackend(per_edge_s=6e-3) for _ in range(SLOTS)],
        g.num_nodes, placement=placement, memsync="push",
        batcher=DynamicBatcher(max_edges=24, max_delay_s=MAX_DELAY_S)
        if sc["batched"] else None,
        rebalancer=reb, autoscaler=auto, failures=sc["plans"])
    initial = engine.router.assignment.copy()
    report = engine.run(g, window_s=WINDOW_S, speedup=SPEEDUP,
                        num_streams=STREAMS, ingest=sc["ingest"],
                        scheduler_cls=scheduler_cls, trace=trace)
    return engine, initial, report


class TestControllersCompose:
    @given(scenario())
    def test_any_subset_of_controllers_is_one_legal_run(self, sc):
        engine, initial, report = run(sc, trace=True)
        _, ts = workload()
        assert check_run(engine=engine, report=report,
                         initial_assignment=initial).ok
        assert report.windows + report.dropped_windows == len(ts)

        # Replay eligibility beside ownership.
        owner, dead = initial.copy(), set()
        fleet = ACTIVE if sc["autoscale"] else SLOTS
        plans_applied = 0
        for ev in engine.last_event_trace:
            if isinstance(ev, FailureEvent) and ev.mode == "dead":
                dead.add(ev.shard)
            elif isinstance(ev, RecoveryEvent):
                dead.discard(ev.shard)
            elif isinstance(ev, ScaleEvent):
                fleet = ev.servers_after
            elif isinstance(ev, MigrationEvent):
                assert ev.to_shard not in dead and ev.to_shard < fleet
                owner[ev.vertex] = ev.to_shard
                plans_applied += ev.reason not in ("promote", "rebuild")
            elif isinstance(ev, FlushEvent):
                assert not np.isin(owner, sorted(dead)).any()
                assert (owner < fleet).all()

        plane = engine.last_control
        assert plans_applied + plane.stale == plane.proposed
        assert report.stale_plans == plane.stale

        # Same bytes from the reference loop and from the bulk path.
        want = report.to_json()
        assert run(sc, scheduler_cls=HeapEventScheduler)[2].to_json() == want
        assert run(sc)[2].to_json() == want


# --------------------------------------------------------------------------- #
@st.composite
def fleet(draw):
    """One server-count vector, the two topology names that spell it, and
    a memsync policy, ingest mode and controller subset to run it under.

    ``n = 1``: ``pool(k)`` against ``hybrid`` over the one-shard placement
    with ``pool_servers=k`` — any controller, failures slow only (a dead
    one has no survivor under either name).  ``k = 1``: ``sharded`` over
    ``P`` against ``hybrid`` over ``P`` with ``pool_servers=1`` — no
    rebalancer, whose drift mode is the one thing ``hybrid`` selects.
    """
    sc = {"memsync": draw(st.sampled_from(MEMSYNC_POLICIES)),
          "ingest": draw(st.sampled_from(["serial", "pipelined"])),
          "batched": draw(st.booleans()),
          "autoscale": draw(st.booleans())}
    if draw(st.booleans()):
        fail_at = draw(instants())
        sc.update(
            spellings=("pool", "hybrid"), stations=1,
            k=draw(st.integers(1, 3)), layout="one-shard",
            rebalance=draw(st.booleans()),
            plans=draw(st.sampled_from([None, [FailurePlan(
                fail_at, 0, mode="slow",
                recover_at=draw(st.one_of(st.none(),
                                          instants(fail_at))))]])))
    else:
        sc.update(
            spellings=("sharded", "hybrid"), stations=SLOTS, k=1,
            layout="padded" if sc["autoscale"] else draw(
                st.sampled_from(["hash", "replicate", "hot-cold"])),
            rebalance=False,
            plans=draw(st.one_of(st.none(), chaos())))
    return sc


def run_fleet(sc, topology):
    g, _ = workload()
    n, k = sc["stations"], sc["k"]
    heat = VertexHeat.from_graph(g)
    # Built per engine: a run's ownership moves mutate the placement.
    placement = {
        "one-shard": lambda: Placement(np.zeros(g.num_nodes, dtype=np.int64),
                                       1),
        "padded": lambda: padded_hash_placement(g.num_nodes, ACTIVE, n),
        "hash": lambda: padded_hash_placement(g.num_nodes, n, n),
        "replicate": lambda: ReplicatedReadMostly(top_k=4).place(heat, n),
        "hot-cold": lambda: HotColdHybrid(hot_top_k=8).place(heat, n),
    }[sc["layout"]]()
    kwargs = {}
    if topology != "pool":          # a pool lays its one shard out itself
        kwargs["placement"] = placement
    if topology != "sharded":
        kwargs["pool_servers"] = k
    # One station starts at k servers and may grow; a sharded fleet
    # starts on its active prefix.
    auto, reb = controllers(sc, k, k + 2) if n == 1 else controllers(sc)
    engine = ServingEngine(
        [LinearCostBackend(per_edge_s=6e-3) for _ in range(n)],
        g.num_nodes, topology=topology, memsync=sc["memsync"],
        batcher=DynamicBatcher(max_edges=24, max_delay_s=MAX_DELAY_S)
        if sc["batched"] else None,
        rebalancer=reb, autoscaler=auto, failures=sc["plans"], **kwargs)
    assert engine.server_counts == [1] * (n - 1) + [k]
    initial = engine.router.assignment.copy()
    report = engine.run(g, window_s=WINDOW_S, speedup=SPEEDUP,
                        num_streams=STREAMS, ingest=sc["ingest"], trace=True)
    assert check_run(engine=engine, report=report,
                     initial_assignment=initial).ok
    return {key: value for key, value in report.to_dict().items()
            if key not in ("topology", "placement")}


class TestTopologyNamesSpellOneVector:
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(fleet())
    def test_two_spellings_of_a_vector_report_the_same_run(self, sc):
        first, second = (run_fleet(sc, name) for name in sc["spellings"])
        assert first == second
        _, ts = workload()
        assert first["windows"] + first["dropped_windows"] == len(ts)


# --------------------------------------------------------------------------- #
@functools.lru_cache(maxsize=None)
def grid_workload():
    """The drifting workload with every instant on an integer grid: at a
    window of 1 s, speedup 1 and 1 s per edge every release and every
    service end is a multiple of half a second (two streams), so jobs
    begin exactly on release instants."""
    g, _ = workload()
    return TemporalGraph(src=g.src, dst=g.dst, t=np.floor(g.t / 200.0),
                         num_nodes=g.num_nodes)


@st.composite
def rebalancing(draw):
    """A rebalancer-only serial run: overload mode on a sharded fleet or
    drift mode on a hybrid one, a station capacity, passthrough or
    batching ingest, a threshold, on either workload."""
    return {"grid": draw(st.booleans()),
            "hybrid": draw(st.booleans()),
            "capacity": draw(st.sampled_from([None, 0, 2])),
            "batched": draw(st.booleans()),
            "threshold": draw(st.sampled_from([0.05, 0.3, 0.75]))}


def rebalance_lane(rb, lane):
    """One traced run of ``rb`` on ``lane``: ``"pass"`` (the default
    scheduler, which serves it as one pass), ``"loop"`` (the event loop,
    the predicate patched) or ``"heap"`` (the pass, every release its
    own heap entry).  Returns the engine and its report, checked."""
    if rb["grid"]:
        g, run_kw = grid_workload(), dict(window_s=1.0, speedup=1.0)
        per_edge_s, window_s = 1.0, 10.0
    else:
        g, run_kw = workload()[0], dict(window_s=WINDOW_S, speedup=SPEEDUP)
        per_edge_s, window_s = 6e-3, 0.05
    if rb["hybrid"]:
        heat = VertexHeat.from_graph(g)
        kwargs = dict(topology="hybrid", pool_servers=2,
                      placement=HotColdHybrid(hot_top_k=8).place(heat, SLOTS))
    else:
        kwargs = dict(placement=padded_hash_placement(g.num_nodes, SLOTS,
                                                      SLOTS))
    engine = ServingEngine(
        [LinearCostBackend(per_edge_s=per_edge_s) for _ in range(SLOTS)],
        g.num_nodes, memsync="push",
        batcher=DynamicBatcher(max_edges=24, max_delay_s=MAX_DELAY_S)
        if rb["batched"] else None,
        rebalancer=OnlineRebalancer(window_s=window_s,
                                    util_threshold=rb["threshold"]),
        **kwargs)
    initial = engine.router.assignment.copy()
    with pytest.MonkeyPatch.context() as patch:
        if lane == "loop":
            patch.setattr(engine_module, "serves_in_one_pass",
                          lambda *_: False)
        report = engine.run(
            g, num_streams=STREAMS, queue_capacity=rb["capacity"],
            scheduler_cls=HeapEventScheduler if lane == "heap" else None,
            trace=True, **run_kw)
    assert check_run(engine=engine, report=report,
                     initial_assignment=initial).ok
    return engine, report


def lane_mismatches(rb, lanes=None) -> list:
    """Where the loop and the heap lane part from the pass (``lanes``:
    the three runs of ``rb``, by lane, when already made)."""
    lanes = lanes or {lane: rebalance_lane(rb, lane)
                      for lane in ("pass", "loop", "heap")}
    engine, report = lanes["pass"]
    trace = engine.last_event_trace
    events = [repr(e) for e in trace]
    out = []
    for lane in ("loop", "heap"):
        other, other_report = lanes[lane]
        if other_report.to_json() != report.to_json():
            out.append(f"{lane}: report bytes")
        if [repr(e) for e in other.last_event_trace] != events:
            out.append(f"{lane}: traced events")
        out += [f"{lane}: {f.check}"
                for f in check_lane_agreement(other.last_event_trace, trace)]
    return out


class TestRebalancerOnlyPass:
    @settings(max_examples=20)
    @given(rebalancing())
    def test_the_pass_is_the_event_loop(self, rb):
        """Same report bytes, same traced events, clean replays and lane
        agreement on the pass, the event loop and the per-element lane;
        and the pass fires only the releases and the proposed plans."""
        lanes = {lane: rebalance_lane(rb, lane)
                 for lane in ("pass", "loop", "heap")}
        assert lane_mismatches(rb, lanes) == []
        engine = lanes["pass"][0]
        sched, jobs = engine.last_scheduler, \
            len(engine.last_event_trace.columns(FlushEvent)["t"])
        assert sched.cohort_events == jobs
        assert sched.events_processed == jobs + engine.last_control.proposed

    def test_reading_load_before_the_release_breaks_it(self, monkeypatch):
        """Mutation check: a station that counts only the commits begun
        before a release (``begin < t``) misses the jobs the loop
        dispatched at that instant, before the flush."""
        rb = {"grid": True, "hybrid": False, "capacity": None,
              "batched": False, "threshold": 0.3}
        assert lane_mismatches(rb) == []

        def advance(group, t):
            commits, k = group._commits, group._ahead
            while k < len(commits) and commits[k][1] < t:
                group._busy += commits[k][3]
                k += 1
            group._ahead = k

        monkeypatch.setattr(ServerGroup, "advance", advance)
        assert lane_mismatches(rb) != []
