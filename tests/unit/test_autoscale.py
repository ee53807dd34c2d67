"""Elastic capacity: SLO-driven autoscaling on the event core (ISSUE 10).

Contracts pinned here:

* **Capacity identity** — :class:`CapacityConfig` validates integral
  counts and fleet bounds at construction and derives
  ``global_capacity = micro_batch x replicas``.
* **Pool elasticity** — an overloaded pool grows one replica per
  decision, a burst-then-quiet
  trace produces both ups and downs, and every admitted job is still
  serviced exactly once through the scale chain.
* **Sharded elasticity** — scale-ups split the hottest shard's
  ownership into a freshly-activated station, scale-downs merge the
  drained station's ownership away; both ride the rebalancer's
  :class:`MigrationEvent` apply path, so exactly-once ownership and
  ``--memsync push`` bit-identity survive (the split exactness test
  replays a split pattern through :class:`ShardedRuntime`).
* **Replayability** — ``tracecheck``'s ``fleet-size`` check replays the
  ScaleEvent chain and lands on the live controller's fleet; fabricated
  corrupt chains are rejected with findings.
* **No-op** — an autoscaler whose band is never crossed leaves every
  report statistic identical to the plain engine (only the ``scaling``
  block differs, and it is omitted entirely when autoscaling is off).
"""

import numpy as np
import pytest

from repro.analysis.tracecheck import check_fleet_size, check_run
from repro.autograd import no_grad
from repro.datasets import drifting_hot_set_graph, wikipedia_like
from repro.graph import TemporalGraph, iter_fixed_size
from repro.models import ModelConfig, TGNN
from repro.pipeline import LinearCostBackend
from repro.serving import (HANDOFF_ROWS_PER_VERTEX, AutoScaler,
                           CapacityConfig, ControlPlane, EventScheduler,
                           MigrationEvent, OnlineRebalancer, ScaleEvent,
                           ServerGroup, ServiceBeginEvent, ServiceEndEvent,
                           ServingEngine, ShardRouter, padded_hash_placement)
from tests.property.sharded_oracle import ShardedRuntime
from tests.property.tracecheck_oracle import trace_of

CFG = ModelConfig(memory_dim=8, time_dim=6, embed_dim=8, edge_dim=172,
                  num_neighbors=4, simplified_attention=True,
                  lut_time_encoder=True, lut_bins=8, pruning_budget=2)


def overload_graph():
    return wikipedia_like(num_edges=800, num_users=80, num_items=20)


def burst_then_quiet_graph(num_nodes=64, seed=3):
    """Dense early arrivals (queue builds, SLO breaches) followed by a
    long sparse tail (queue drains, p95 collapses into the low band)."""
    rng = np.random.default_rng(seed)
    n_burst, n_quiet = 600, 300
    t = np.concatenate([np.sort(rng.uniform(0.0, 3000.0, n_burst)),
                        np.sort(rng.uniform(3000.0, 60000.0, n_quiet))])
    n = n_burst + n_quiet
    src = rng.integers(0, num_nodes, n)
    dst = rng.integers(0, num_nodes, n)
    same = dst == src
    dst[same] = (dst[same] + 1) % num_nodes
    return TemporalGraph(src=src, dst=dst, t=t, num_nodes=num_nodes)


def pool_engine(g, auto, per_edge_s=20.0):
    return ServingEngine([LinearCostBackend(per_edge_s=per_edge_s)],
                         g.num_nodes, topology="pool", pool_servers=None,
                         autoscaler=auto)


def start(auto, sched, groups, router=None):
    """Attach ``auto`` to a bare control plane (no cache, no dies); the
    default router is one shard per group over 16 vertices."""
    router = router or ShardRouter(len(groups), 16)
    return ControlPlane(sched, groups, router, None, None, autoscaler=auto)


def overload_autoscaler(**kwargs):
    cap = CapacityConfig(micro_batch=32, replicas=1, max_replicas=4)
    defaults = dict(slo_p95_s=10.0, scale_window_s=200.0)
    defaults.update(kwargs)
    return AutoScaler(cap, **defaults)


# --------------------------------------------------------------------------- #
class TestCapacityConfig:
    def test_derives_global_capacity(self):
        cap = CapacityConfig(micro_batch=32, replicas=3, max_replicas=8)
        assert cap.global_capacity == 96

    def test_bounds_validated(self):
        with pytest.raises(ValueError, match="micro_batch"):
            CapacityConfig(micro_batch=0, replicas=1, max_replicas=2)
        with pytest.raises(ValueError, match="min_replicas"):
            CapacityConfig(micro_batch=1, replicas=1, max_replicas=2,
                           min_replicas=0)
        with pytest.raises(ValueError, match="replicas must satisfy"):
            CapacityConfig(micro_batch=1, replicas=5, max_replicas=4)
        with pytest.raises(ValueError, match="replicas must satisfy"):
            CapacityConfig(micro_batch=1, replicas=1, max_replicas=4,
                           min_replicas=2)

    @pytest.mark.parametrize("field", ["micro_batch", "replicas",
                                       "max_replicas", "min_replicas"])
    def test_non_integral_counts_rejected(self, field):
        """A fractional count is refused up front, not written to the
        report as a fractional ``global_capacity``."""
        counts = dict(micro_batch=2, replicas=2, max_replicas=4,
                      min_replicas=1)
        counts[field] += 0.5
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            CapacityConfig(**counts)

    def test_frozen(self):
        cap = CapacityConfig(micro_batch=1, replicas=1, max_replicas=2)
        with pytest.raises(AttributeError):
            cap.replicas = 3


class TestAutoScalerValidation:
    def test_parameter_validation(self):
        cap = CapacityConfig(micro_batch=1, replicas=1, max_replicas=2)
        with pytest.raises(TypeError, match="CapacityConfig"):
            AutoScaler({"replicas": 1}, slo_p95_s=1.0, scale_window_s=1.0)
        with pytest.raises(ValueError):
            AutoScaler(cap, slo_p95_s=0.0, scale_window_s=1.0)
        with pytest.raises(ValueError):
            AutoScaler(cap, slo_p95_s=1.0, scale_window_s=0.0)
        with pytest.raises(ValueError):
            AutoScaler(cap, slo_p95_s=1.0, scale_window_s=1.0,
                       low_band_frac=1.0)
        with pytest.raises(ValueError):
            AutoScaler(cap, slo_p95_s=1.0, scale_window_s=1.0,
                       cooldown_windows=-1)

    @pytest.mark.parametrize("cooldown", [1.5, float("nan"), float("inf")])
    def test_cooldown_is_a_count_of_windows(self, cooldown):
        """1.5 was cut to 1, NaN and inf died in ``int()`` with a message
        that did not name the argument."""
        cap = CapacityConfig(micro_batch=1, replicas=1, max_replicas=2)
        with pytest.raises(ValueError, match="cooldown_windows"):
            AutoScaler(cap, slo_p95_s=1.0, scale_window_s=1.0,
                       cooldown_windows=cooldown)

    def test_pool_start_checks_group_size(self):
        auto = overload_autoscaler()          # capacity.replicas == 1
        sched = EventScheduler()
        with pytest.raises(ValueError, match="capacity.replicas"):
            start(auto, sched, [ServerGroup(0, 2, lambda _p: 1.0, sched)])
        # The fleet's shape picks the mode: two one-server groups are not
        # a malformed pool but a sharded fleet, held to *its* sizing rule.
        with pytest.raises(ValueError, match="one station per fleet"):
            start(auto, sched, [ServerGroup(i, 1, lambda _p: 1.0, sched)
                                for i in range(2)])
        # ... and a lone group whose size agrees with the capacity config
        # is the station that gets resized in place.
        station = ServerGroup(0, 1, lambda _p: 1.0, sched)
        start(auto, sched, [station])
        auto.observe(0.0)                     # opens the window
        auto.record_response(1.0, 100.0)      # p95 far above the SLO
        auto.observe(200.0)                   # closes it: scale up
        sched.run()
        assert auto.fleet_size == station.num_servers == 2
        assert auto.migration_log == []

    def test_sharded_start_checks_station_count(self):
        auto = overload_autoscaler()          # max_replicas == 4
        sched = EventScheduler()
        groups = [ServerGroup(i, 1, lambda _p: 1.0, sched)
                  for i in range(2)]
        with pytest.raises(ValueError, match="one station per fleet"):
            start(auto, sched, groups, router=ShardRouter(2, 16))

    def test_sharded_start_rejects_active_tail_ownership(self):
        # replicas == 1 but a plain 4-shard hash assignment owns vertices
        # on shards 1..3: the initial active set would not cover them.
        auto = overload_autoscaler()
        sched = EventScheduler()
        groups = [ServerGroup(i, 1, lambda _p: 1.0, sched)
                  for i in range(4)]
        with pytest.raises(ValueError, match="active set"):
            start(auto, sched, groups, router=ShardRouter(4, 16))

    def test_engine_rejects_pool_size_mismatch(self):
        """The capacity-vs-fleet checks live at one site, the
        controller's ``start``: the engine builds, the run refuses."""
        g = overload_graph()
        engine = ServingEngine([LinearCostBackend()], g.num_nodes,
                               topology="pool", pool_servers=2,
                               autoscaler=overload_autoscaler())
        with pytest.raises(ValueError, match="capacity.replicas"):
            engine.run(g, window_s=3600.0)

    def test_engine_rejects_sharded_backend_count_mismatch(self):
        g = overload_graph()
        engine = ServingEngine([LinearCostBackend() for _ in range(2)],
                               g.num_nodes,
                               autoscaler=overload_autoscaler())
        with pytest.raises(ValueError, match="one station per fleet"):
            engine.run(g, window_s=3600.0)


# --------------------------------------------------------------------------- #
class TestServerGroupElastic:
    def make(self, servers=1, service_s=1.0):
        sched = EventScheduler()
        grp = ServerGroup(0, servers, lambda _p: service_s, sched)
        responses = []
        grp.on_serviced = lambda f, r: responses.append((f, r))
        return sched, grp, responses

    def test_server_ids_never_reused(self):
        sched, grp, _ = self.make(servers=2)
        assert grp.scale_up(0.0) == 2
        assert grp.scale_down(1.0) in (0, 1, 2)
        # The next scale-up mints a fresh id even though a slot just
        # left: trace rows stay unambiguous across the cycle.
        assert grp.scale_up(2.0) == 3

    def test_scale_down_prefers_idle_server(self):
        sched, grp, _ = self.make(servers=1)
        grp.submit(0.0, "a")                  # server 0 busy until 1.0
        grp.scale_up(0.0)                     # server 1 idle
        assert grp.scale_down(0.5) == 1       # the idler retires
        assert grp.num_servers == 1

    def test_scale_down_drains_busy_server(self):
        sched, grp, responses = self.make(servers=2, service_s=10.0)
        grp.submit(0.0, "a")
        grp.submit(0.0, "b")                  # both servers busy
        assert grp.scale_down(1.0) == 1       # nobody idle: drain top id
        assert grp.num_servers == 1
        sched.run()
        # The committed job still finishes (priced at begin, like a dead
        # shard's in-flight work) — then the server leaves the fleet.
        assert responses == [(10.0, 10.0), (10.0, 10.0)]
        assert grp._retired == {1}

    def test_scale_down_below_one_server_rejected(self):
        _, grp, _ = self.make(servers=1)
        with pytest.raises(ValueError, match="below one"):
            grp.scale_down(0.0)


# --------------------------------------------------------------------------- #
class TestPoolScaling:
    def run_overloaded(self, trace=False):
        g = overload_graph()
        auto = overload_autoscaler()
        engine = pool_engine(g, auto)
        rep = engine.run(g, window_s=100.0, speedup=200.0, num_streams=2,
                         trace=trace)
        return engine, auto, rep

    def test_overload_scales_to_max(self):
        engine, auto, rep = self.run_overloaded()
        assert auto.scale_ups == 3            # 1 -> 4, one per decision
        assert auto.scale_downs == 0
        assert auto.fleet_size == 4
        s = rep.scaling
        assert s is not None
        assert s["initial_servers"] == 1 and s["final_servers"] == 4
        assert s["peak_servers"] == 4
        assert s["scale_ups"] == 3 and s["scale_downs"] == 0
        assert s["handoff_rows"] == 0         # stateless pool replicas
        assert 1.0 < s["mean_servers"] < 4.0
        assert s["server_seconds"] == pytest.approx(
            s["mean_servers"] * rep.makespan_s)

    def test_scale_chain_replays_clean(self):
        engine, auto, rep = self.run_overloaded(trace=True)
        assert auto.scale_ups > 0
        report = check_run(engine=engine, report=rep)
        assert "fleet-size" in report.checks
        assert report.findings == []
        # Fleet conservation from the raw trace, independently of
        # check_run's wiring.
        scale_events = trace_of(e for e in engine.last_event_trace
                                if isinstance(e, ScaleEvent))
        assert len(scale_events) == 3
        assert check_fleet_size(scale_events, 1, 4) == []

    def test_jobs_serviced_exactly_once_through_scale_chain(self):
        engine, auto, rep = self.run_overloaded(trace=True)
        assert auto.scale_ups > 0
        assert rep.windows + rep.dropped_windows == engine.last_num_arrivals
        assert rep.dropped_windows == 0
        trace = engine.last_event_trace
        begins = [e for e in trace if isinstance(e, ServiceBeginEvent)]
        ends = [e for e in trace if isinstance(e, ServiceEndEvent)]
        assert len(begins) == len(ends) == rep.windows
        assert len({(e.group, e.index) for e in begins}) == len(begins)
        assert len({(e.group, e.index) for e in ends}) == len(ends)

    def test_burst_then_quiet_scales_both_ways(self):
        g = burst_then_quiet_graph()
        cap = CapacityConfig(micro_batch=8, replicas=1, max_replicas=4)
        auto = AutoScaler(cap, slo_p95_s=30.0, scale_window_s=20.0)
        engine = pool_engine(g, auto, per_edge_s=1.0)
        rep = engine.run(g, window_s=50.0, speedup=100.0, num_streams=2,
                         trace=True)
        assert auto.scale_ups > 0
        assert auto.scale_downs > 0
        # Band hysteresis: every decision names its edge of the band.
        reasons = {ev.reason for ev in auto.scale_log}
        assert reasons == {"slo-breach", "slo-slack"}
        assert rep.scaling["final_servers"] == auto.fleet_size
        assert check_run(engine=engine, report=rep).findings == []

    def test_cooldown_separates_decisions(self):
        engine, auto, rep = self.run_overloaded()
        closes = [ev.t for ev in auto.scale_log]
        # Decisions happen at window closes, and a cooldown window must
        # pass between consecutive ones: gaps of at least two windows.
        for a, b in zip(closes, closes[1:]):
            assert b - a >= 2 * auto.scale_window_s - 1e-9


# --------------------------------------------------------------------------- #
class TestShardedScaling:
    def sharded_engine(self, g, auto, active, per_edge_s=20.0,
                       memsync="none"):
        placement = padded_hash_placement(
            g.num_nodes, active, auto.capacity.max_replicas)
        return ServingEngine(
            [LinearCostBackend(per_edge_s=per_edge_s) for _ in range(4)],
            g.num_nodes, placement=placement, memsync=memsync,
            autoscaler=auto)

    def test_padded_placement_validation(self):
        with pytest.raises(ValueError):
            padded_hash_placement(16, 0, 4)
        with pytest.raises(ValueError):
            padded_hash_placement(16, 5, 4)
        p = padded_hash_placement(16, 2, 4)
        assert p.num_shards == 4
        assert int(p.assignment.max()) == 1   # tail owns nothing

    def test_overload_splits_ownership(self):
        g = overload_graph()
        auto = overload_autoscaler()
        engine = self.sharded_engine(g, auto, active=1, memsync="push")
        rep = engine.run(g, window_s=100.0, speedup=200.0, num_streams=2,
                         trace=True)
        assert auto.scale_ups == 3
        assert auto.migration_log                # splits actually moved
        assert {ev.reason for ev in auto.migration_log} == {"split"}
        # Each activated station now owns something, and ownership is
        # exactly-once throughout the chain.
        assert (engine.router._member.sum(axis=0) == 1).all()
        for shard in range(auto.fleet_size):
            assert (engine.router.assignment == shard).any()
        # Rows accounting: every split vertex priced the same handoff as
        # a rebalancer migration, and the report carries the total.
        expected = len(auto.migration_log) * HANDOFF_ROWS_PER_VERTEX
        assert auto.handoff_rows == expected
        assert rep.scaling["handoff_rows"] == expected
        assert check_run(engine=engine, report=rep).findings == []

    def test_split_migrations_replay_exactly_once(self):
        g = overload_graph()
        auto = overload_autoscaler()
        engine = self.sharded_engine(g, auto, active=1)
        initial = engine.router.assignment.copy()
        engine.run(g, window_s=100.0, speedup=200.0, num_streams=2,
                   trace=True)
        migrations = [e for e in engine.last_event_trace
                      if isinstance(e, MigrationEvent)]
        assert len(migrations) == len(auto.migration_log) > 0
        owner = initial.copy()
        for ev in migrations:
            assert owner[ev.vertex] == ev.from_shard
            assert ev.from_shard != ev.to_shard
            owner[ev.vertex] = ev.to_shard
        assert np.array_equal(owner, engine.router.assignment)

    def test_quiet_fleet_merges_down(self):
        g = overload_graph()
        cap = CapacityConfig(micro_batch=32, replicas=2, max_replicas=4)
        auto = AutoScaler(cap, slo_p95_s=100.0, scale_window_s=200.0,
                          low_band_frac=0.9)
        engine = self.sharded_engine(g, auto, active=2, per_edge_s=2e-3,
                                     memsync="push")
        rep = engine.run(g, window_s=100.0, speedup=200.0, num_streams=2,
                         trace=True)
        assert auto.scale_downs == 1          # 2 -> min fleet of 1
        assert auto.fleet_size == 1
        assert {ev.reason for ev in auto.migration_log} == {"merge"}
        # The drained station owns nothing: the router can never send it
        # another sub-job.
        assert not (engine.router.assignment >= 1).any()
        assert (engine.router._member.sum(axis=0) == 1).all()
        assert rep.scaling["final_servers"] == 1
        assert check_run(engine=engine, report=rep).findings == []

    def test_scaler_and_rebalancer_compose(self):
        """The pairing the engine used to refuse.  Both controllers move
        ownership off the same windows; the control plane applies the
        scaler's plans first, drops the rebalancer plans they overtook,
        and never lets the rebalancer hand a vertex to a slot the scaler
        has not activated."""
        g = drifting_hot_set_graph(1600, 4, num_nodes=128, phases=8,
                                   hot_size=6, seed=5)
        auto = AutoScaler(CapacityConfig(micro_batch=1, replicas=2,
                                         max_replicas=4),
                          slo_p95_s=0.05, scale_window_s=0.1)
        reb = OnlineRebalancer(window_s=0.05, util_threshold=0.3)
        engine = ServingEngine(
            [LinearCostBackend(per_edge_s=6e-3) for _ in range(4)],
            g.num_nodes, placement=padded_hash_placement(g.num_nodes, 2, 4),
            memsync="push", autoscaler=auto, rebalancer=reb)
        initial = engine.router.assignment.copy()
        rep = engine.run(g, window_s=250.0, speedup=2400.0, num_streams=2,
                         trace=True)
        assert check_run(engine=engine, report=rep,
                         initial_assignment=initial).ok
        assert rep.rebalance == "online" and rep.migrations > 0
        assert auto.scale_ups > 0 and auto.scale_downs > 0
        assert auto.handoff_rows > 0
        # Replay the fleet size beside the moves: every destination lies
        # inside the active prefix at its instant.
        fleet = auto.initial_servers
        for ev in engine.last_event_trace:
            if isinstance(ev, ScaleEvent):
                fleet = ev.servers_after
            elif isinstance(ev, MigrationEvent):
                assert ev.to_shard < fleet
        plane = engine.last_control
        applied = len(reb.migration_log) + len(auto.migration_log)
        assert applied + plane.stale == plane.proposed
        assert rep.stale_plans == plane.stale > 0
        assert rep.to_dict()["stale_plans"] == plane.stale


# --------------------------------------------------------------------------- #
class TestSplitExactness:
    """A split's coherence side loses nothing, bit-for-bit: migrating a
    shard's hotter half into a previously-empty padded station keeps a
    functional ``push`` replay identical to the unsharded runtime —
    the engine-level split rides exactly this transfer."""

    def test_split_into_empty_station_stays_bit_identical(self):
        g = wikipedia_like(num_edges=600, num_users=80, num_items=20)
        model = TGNN(CFG, rng=np.random.default_rng(0))
        model.calibrate(g)
        rt = model.new_runtime(g)
        with no_grad():
            for b in iter_fixed_size(g, 50):
                model.process_batch(b, rt, g)
        placement = padded_hash_placement(g.num_nodes, 2, 3)
        srt = ShardedRuntime(model, g, placement=placement, policy="push")
        batches = list(iter_fixed_size(g, 50))
        split_at = len(batches) // 2
        with no_grad():
            for i, batch in enumerate(batches):
                if i == split_at:
                    # The split: half of shard 0's ownership moves onto
                    # the empty station 2, exactly as _plan_split does.
                    owned = np.flatnonzero(srt.router.assignment == 0)
                    moved = srt.migrate(owned[:len(owned) // 2], 2)
                    assert moved > 0
                srt.process_batch(batch)
        assert (srt.router.assignment == 2).any()
        assert (srt.router._member.sum(axis=0) == 1).all()
        assert srt.stale_reads == 0
        assert srt.max_version_lag == 0
        for shard in range(3):
            held = srt.held_vertices(shard)
            st = srt.runtimes[shard].state
            assert np.array_equal(st.memory[held], rt.state.memory[held])
            assert np.array_equal(st.mailbox[held],
                                  rt.state.mailbox[held])


# --------------------------------------------------------------------------- #
class TestAutoscaleOffNoOp:
    def test_untriggered_band_leaves_statistics_identical(self):
        g = overload_graph()

        def run(auto):
            engine = ServingEngine([LinearCostBackend(per_edge_s=1e-3)],
                                   g.num_nodes, topology="pool",
                                   pool_servers=2, autoscaler=auto)
            return engine.run(g, window_s=3600.0, speedup=2.0,
                              num_streams=2)

        base = run(None)
        # A band nothing crosses: breach needs p95 > 1e6, slack needs
        # p95 <= 0 — the controller observes every window and never acts.
        cap = CapacityConfig(micro_batch=1, replicas=2, max_replicas=4)
        scaled = run(AutoScaler(cap, slo_p95_s=1e6, scale_window_s=100.0,
                                low_band_frac=0.0))
        s = scaled.to_dict()
        assert s.pop("scaling")["scale_ups"] == 0
        assert s == base.to_dict()

    def test_scaling_block_omitted_when_off(self):
        g = overload_graph()
        engine = ServingEngine([LinearCostBackend(per_edge_s=1e-3)],
                               g.num_nodes, topology="pool",
                               pool_servers=2)
        rep = engine.run(g, window_s=3600.0, speedup=2.0, num_streams=2)
        assert rep.scaling is None
        assert "scaling" not in rep.to_dict()
        assert '"scaling"' not in rep.to_json()


# --------------------------------------------------------------------------- #
def scale_ev(t, kind, before, after, reason="slo-breach"):
    return ScaleEvent(t=t, kind=kind, shard=0, servers_before=before,
                      servers_after=after, rows=0, reason=reason)


class TestCheckFleetSize:
    def test_clean_chain(self):
        trace = trace_of([
            scale_ev(1.0, "up", 1, 2), scale_ev(2.0, "up", 2, 3),
            scale_ev(3.0, "down", 3, 2)])
        assert check_fleet_size(trace, 1, 2) == []

    def test_bogus_kind(self):
        findings = check_fleet_size(trace_of([
            scale_ev(1.0, "sideways", 1, 2)]), 1)
        assert len(findings) == 1 and "sideways" in findings[0].detail

    def test_step_must_be_one(self):
        findings = check_fleet_size(trace_of([
            scale_ev(1.0, "up", 1, 3)]), 1)
        assert any("1 -> 3" in f.detail for f in findings)

    def test_stale_decision_detected(self):
        trace = trace_of([
            scale_ev(1.0, "up", 1, 2), scale_ev(2.0, "up", 1, 2)])
        findings = check_fleet_size(trace, 1)
        assert any("stale" in f.detail for f in findings)

    def test_fleet_never_empties(self):
        findings = check_fleet_size(trace_of([
            scale_ev(1.0, "down", 1, 0)]), 1)
        assert findings

    def test_final_fleet_mismatch(self):
        findings = check_fleet_size(trace_of([
            scale_ev(1.0, "up", 1, 2)]), 1, final_servers=3)
        assert any("live controller" in f.detail for f in findings)


class TestReportBlock:
    def test_server_seconds_integral(self):
        auto = overload_autoscaler()
        sched = EventScheduler()
        start(auto, sched, [ServerGroup(0, 1, lambda _p: 1.0, sched)])
        auto.scale_log.append(scale_ev(4.0, "up", 1, 2))
        auto.scale_log.append(scale_ev(7.0, "up", 2, 3))
        auto.fleet_size = 3
        block = auto.report_block(0.0, 10.0)
        # 1 server for 4s, 2 for 3s, 3 for the last 3s.
        assert block["server_seconds"] == pytest.approx(19.0)
        assert block["mean_servers"] == pytest.approx(1.9)
        assert block["peak_servers"] == 3
        assert block["initial_servers"] == 1
        assert block["final_servers"] == 3
        assert block["scale_ups"] == 2 and block["scale_downs"] == 0

    def test_events_clamped_to_run_span(self):
        auto = overload_autoscaler()
        sched = EventScheduler()
        start(auto, sched, [ServerGroup(0, 1, lambda _p: 1.0, sched)])
        auto.scale_log.append(scale_ev(50.0, "up", 1, 2))
        auto.fleet_size = 2
        block = auto.report_block(0.0, 10.0)
        # The scale instant lies past the integration end: clamped.
        assert block["server_seconds"] == pytest.approx(10.0)
        assert block["peak_servers"] == 2
