"""Unit tests for the event-trace checker (repro.analysis.tracecheck).

Two halves:

* **known-bad traces** — hand-built traces (``trace_of``) that
  violate exactly one invariant each must be flagged with the right
  finding type;
* **clean-run property** — real engine runs from the PR 4-7 suites
  (plain sharded, pipelined ingest, online rebalancing under drift,
  failure injection, heap-vs-vectorized lanes) must yield zero findings.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.analysis.tracecheck import (TraceCheckReport, TraceFinding,
                                       check_causality, check_conservation,
                                       check_mail_at_flush,
                                       check_ownership_chain, check_run,
                                       check_service_exactly_once)
from repro.datasets import drifting_hot_set_graph, wikipedia_like
from repro.pipeline import LinearCostBackend
from repro.serving import (DynamicBatcher, EventTrace, FailureEvent,
                           FailurePlan, FlushEvent, HeapEventScheduler,
                           MailEvent,
                           MigrationEvent, OnlineRebalancer, RecoveryEvent,
                           ServiceBeginEvent, ServiceEndEvent, ServingEngine)
from tests.property.lane_agreement import check_lane_agreement
from tests.property.tracecheck_oracle import trace_of


def checks_of(findings):
    return [f.check for f in findings]


# --------------------------------------------------------------------------- #
class TestKnownBadTraces:
    def test_past_scheduling_flags_causality(self):
        trace = trace_of([
            FlushEvent(1.0, "size", 1),
            FlushEvent(0.5, "timeout", 1),      # recorded into the past
            FlushEvent(2.0, "size", 1)])
        fs = check_causality(trace)
        assert checks_of(fs) == ["causality"]
        assert fs[0].t == 0.5
        assert "into the past" in fs[0].detail

    def test_a_nan_time_is_flagged_and_keeps_the_watermark(self):
        """A NaN is reported, and the watermark stays at the last finite
        time, so the back-dated event after it is reported too."""
        trace = trace_of([
            FlushEvent(1.0, "size", 1),
            FlushEvent(float("nan"), "size", 1),
            FlushEvent(0.5, "size", 1)])
        fs = check_causality(trace)
        assert checks_of(fs) == ["causality"] * 2
        assert "non-finite" in fs[0].detail
        assert fs[1].t == 0.5 and "into the past" in fs[1].detail
        assert "FlushEvent already fired at t=1" in fs[1].detail

    def test_monotone_trace_is_clean(self):
        trace = trace_of([
            FlushEvent(0.0, "size", 1), FlushEvent(0.0, "size", 1),
            FlushEvent(1.0, "timeout", 1)])
        assert check_causality(trace) == []

    def test_duplicate_begin_flags_exactly_once(self):
        trace = trace_of([
            ServiceBeginEvent(0.0, 0, 0, 7),
            ServiceBeginEvent(0.1, 0, 1, 7),    # same (group, index)
            ServiceEndEvent(0.2, 0, 0, 7)])
        fs = check_service_exactly_once(trace)
        assert "exactly-once-service" in checks_of(fs)
        assert any("began twice" in f.detail for f in fs)

    def test_lost_job_flags_exactly_once(self):
        trace = trace_of([
            ServiceBeginEvent(0.0, 0, 0, 7)])    # never ends
        fs = check_service_exactly_once(trace)
        assert checks_of(fs) == ["exactly-once-service"]
        assert "never ended" in fs[0].detail

    def test_end_without_begin_flags_exactly_once(self):
        fs = check_service_exactly_once(trace_of([
            ServiceEndEvent(0.2, 0, 0, 7)]))
        assert checks_of(fs) == ["exactly-once-service"]
        assert "without" in fs[0].detail

    def test_overlapping_service_flags_busy_overlap(self):
        trace = trace_of([
            ServiceBeginEvent(0.0, 0, 0, 1),
            ServiceBeginEvent(0.5, 0, 0, 2),    # same server, mid-span
            ServiceEndEvent(1.0, 0, 0, 1),
            ServiceEndEvent(1.5, 0, 0, 2)])
        fs = check_service_exactly_once(trace)
        assert checks_of(fs) == ["busy-overlap"]
        assert fs[0].t == 0.5

    def test_abutting_spans_are_clean(self):
        trace = trace_of([
            ServiceBeginEvent(0.0, 0, 0, 1),
            ServiceEndEvent(1.0, 0, 0, 1),
            ServiceBeginEvent(1.0, 0, 0, 2),    # back-to-back is fine
            ServiceEndEvent(2.0, 0, 0, 2)])
        assert check_service_exactly_once(trace) == []

    def test_a_nan_end_flags_exactly_once(self):
        trace = trace_of([ServiceBeginEvent(0.0, 0, 0, 1),
                          ServiceEndEvent(float("nan"), 0, 0, 1)])
        fs = check_service_exactly_once(trace)
        assert checks_of(fs) == ["exactly-once-service"]
        assert "non-finite" in fs[0].detail

    def test_a_sub_picosecond_overlap_is_flagged(self):
        """Spans compare exactly: no absolute tolerance hides an overlap
        however small (a time-scaled run has no natural second)."""
        trace = trace_of([
            ServiceBeginEvent(0.0, 0, 0, 1),
            ServiceBeginEvent(1.0 - 1e-13, 0, 0, 2),
            ServiceEndEvent(1.0, 0, 0, 1),
            ServiceEndEvent(2.0, 0, 0, 2)])
        fs = check_service_exactly_once(trace)
        assert checks_of(fs) == ["busy-overlap"]
        assert fs[0].t == 1.0 - 1e-13

    def test_overlap_on_distinct_servers_is_clean(self):
        trace = trace_of([
            ServiceBeginEvent(0.0, 0, 0, 1),
            ServiceBeginEvent(0.5, 0, 1, 2),    # different server
            ServiceEndEvent(1.0, 0, 0, 1),
            ServiceEndEvent(1.5, 0, 1, 2)])
        assert check_service_exactly_once(trace) == []

    def test_mail_away_from_flush_is_flagged(self):
        trace = trace_of([
            FlushEvent(1.0, "size", 1),
            MailEvent(1.0, 0, 1, 5),            # at the flush: fine
            MailEvent(2.5, 0, 1, 5)])            # away from any flush
        fs = check_mail_at_flush(trace)
        assert checks_of(fs) == ["mail-at-flush"]
        assert fs[0].t == 2.5

    def test_self_migration_is_flagged(self):
        trace = trace_of([
            MigrationEvent(1.0, 3, 2, 2, 4, "hot")])
        fs = check_ownership_chain(trace, [0, 0, 0, 2])
        assert checks_of(fs) == ["ownership-chain"]
        assert "own shard" in fs[0].detail

    def test_wrong_owner_is_double_ownership(self):
        trace = trace_of([
            MigrationEvent(1.0, 3, 1, 0, 4, "hot")])   # owner is 2
        fs = check_ownership_chain(trace, [0, 0, 0, 2])
        assert checks_of(fs) == ["ownership-chain"]
        assert "double ownership" in fs[0].detail

    def test_final_assignment_mismatch_is_flagged(self):
        trace = trace_of([
            MigrationEvent(1.0, 0, 0, 1, 4, "hot")])
        fs = check_ownership_chain(trace, [0, 0], final_assignment=[0, 0])
        assert checks_of(fs) == ["ownership-chain"]
        assert "disagrees" in fs[0].detail

    def test_valid_chain_is_clean(self):
        trace = trace_of([
            MigrationEvent(1.0, 0, 0, 1, 4, "hot"),
            MigrationEvent(2.0, 0, 1, 2, 4, "hot")])   # chained handoff
        assert check_ownership_chain(trace, [0, 9],
                                     final_assignment=[2, 9]) == []

    def test_move_onto_a_dead_shard_is_flagged(self):
        """The parent's overlapping-failover bug, in miniature: shard 1's
        rebuild round-robins vertex 1 onto shard 0, which died first."""
        trace = trace_of([
            FailureEvent(1.0, 0, "dead", 4.0),
            MigrationEvent(1.0, 0, 0, 2, 2, "rebuild"),
            FailureEvent(2.0, 1, "dead", 4.0),
            MigrationEvent(2.0, 1, 1, 0, 2, "rebuild")])
        fs = check_ownership_chain(trace, [0, 1, 2])
        assert checks_of(fs) == ["ownership-chain"] * 2
        assert fs[0].t == 2.0 and "which is dead" in fs[0].detail
        assert "still dead" in fs[1].detail and "vertex 1" in fs[1].detail

    def test_unevacuated_dead_shard_is_flagged(self):
        trace = trace_of([
            FailureEvent(1.0, 1, "dead", 4.0),
            MigrationEvent(1.0, 1, 1, 0, 2, "rebuild")])   # not vertex 2
        fs = check_ownership_chain(trace, [0, 1, 1])
        assert checks_of(fs) == ["ownership-chain"]
        assert "1 vertex(es) end the run" in fs[0].detail

    def test_failover_onto_live_shards_and_fail_back_is_clean(self):
        trace = trace_of([
            FailureEvent(1.0, 1, "dead", 4.0),
            FailureEvent(1.5, 2, "slow", 4.0),     # slow: still a home
            MigrationEvent(1.0, 1, 1, 2, 2, "rebuild"),
            RecoveryEvent(3.0, 1, "dead"),
            MigrationEvent(3.0, 1, 2, 1, 2, "fail-back")])
        assert check_ownership_chain(trace, [0, 1, 2],
                                     final_assignment=[0, 1, 2]) == []

    def test_dropped_job_breaks_report_conservation(self):
        report = SimpleNamespace(windows=3, dropped_windows=0)
        fs = check_conservation(4, report=report)
        assert checks_of(fs) == ["conservation"]
        assert "4 were offered" in fs[0].detail

    def test_report_with_drops_conserves(self):
        report = SimpleNamespace(windows=3, dropped_windows=1)
        assert check_conservation(4, report=report) == []

    def test_flush_sum_breaks_trace_conservation(self):
        trace = trace_of([
            FlushEvent(1.0, "size", 2), FlushEvent(2.0, "timeout", 1)])
        fs = check_conservation(4, trace=trace)
        assert checks_of(fs) == ["conservation"]
        assert "flushed 3" in fs[0].detail
        assert check_conservation(3, trace=trace) == []

    def test_equal_t_reorder_is_same_key_order(self):
        a = ServiceBeginEvent(1.0, 0, 0, 1)
        b = FlushEvent(1.0, "size", 1)
        fs = check_lane_agreement([a, b], [b, a])
        assert checks_of(fs) == ["same-key-order"]
        assert "equal" in fs[0].detail

    def test_different_t_divergence_is_lane_divergence(self):
        fs = check_lane_agreement([FlushEvent(1.0, "size", 1)],
                                  [FlushEvent(2.0, "size", 1)])
        assert checks_of(fs) == ["lane-divergence"]

    def test_length_mismatch_is_lane_divergence(self):
        ev = FlushEvent(1.0, "size", 1)
        fs = check_lane_agreement([ev, FlushEvent(2.0, "size", 1)], [ev])
        assert checks_of(fs) == ["lane-divergence"]
        assert "1 events" in fs[0].detail or "2 events" in fs[0].detail

    def test_identical_lanes_agree(self):
        trace = [FlushEvent(1.0, "size", 1), ServiceBeginEvent(1.0, 0, 0, 1)]
        assert check_lane_agreement(trace, list(trace)) == []


class TestReportObject:
    def test_render_clean_and_dirty(self):
        assert TraceCheckReport(events=5, checks=("causality",)).render() \
            == "trace check: clean (5 events, 1 checks)"
        rep = TraceCheckReport(
            findings=[TraceFinding("causality", 1.0, "boom")], events=5)
        text = rep.render()
        assert "[causality] @ t=1 boom" in text
        assert "1 finding(s) over 5 events" in text
        assert not rep.ok

    def test_check_run_requires_trace(self):
        with pytest.raises(ValueError, match="trace=True"):
            check_run(fresh_engine(wiki_graph()))


class TestTraceColumns:
    """A column has its field's dtype whatever the trace holds: strings
    are objects, ``t`` and ``degradation`` floats, the rest int64."""

    def test_an_empty_kind_has_typed_columns(self):
        cols = trace_of([FlushEvent(1.0, "size", 1)]).columns(MigrationEvent)
        assert {name: col.dtype for name, col in cols.items()} == {
            "t": np.float64, "vertex": np.int64, "from_shard": np.int64,
            "to_shard": np.int64, "rows": np.int64, "reason": object,
            "pos": np.int64}
        assert all(len(col) == 0 for col in cols.values())

    def test_degradation_stays_a_float(self):
        trace = trace_of([FlushEvent(1.0, "size", 1),
                          FailureEvent(2.0, 1, "slow", 2.5),
                          FailureEvent(3.0, 0, "slow", 1e308)])
        cols = trace.columns(FailureEvent)
        assert cols["degradation"].dtype == np.float64
        assert cols["degradation"].tolist() == [2.5, 1e308]
        assert cols["shard"].dtype == np.int64
        assert cols["mode"].tolist() == ["slow", "slow"]
        assert cols["pos"].tolist() == [1, 2]

    def test_check_run_converts_each_kind_once(self, monkeypatch):
        """``check_run`` asks for the flush columns twice (mail-at-flush
        and conservation) and gets one table back: every kind it reads
        is converted once."""
        tables = []
        honest = EventTrace.columns

        def spy(trace, cls):
            tables.append((cls, honest(trace, cls)))
            return tables[-1][1]

        monkeypatch.setattr(EventTrace, "columns", spy)
        g = wiki_graph()
        result = run_checked(fresh_engine(g), g, window_s=3600.0,
                             num_streams=2, speedup=100.0)
        assert result.ok, result.render()
        kinds = [cls for cls, _ in tables]
        assert kinds.count(FlushEvent) == 2
        assert len({id(table) for _, table in tables}) == len(set(kinds))

    def test_a_record_drops_the_converted_tables(self):
        trace = trace_of([FlushEvent(1.0, "size", 1)])
        first = trace.columns(FlushEvent)
        assert trace.columns(FlushEvent) is first
        trace.add(FlushEvent(2.0, "deadline", 3))
        assert trace.columns(FlushEvent)["windows"].tolist() == [1, 3]
        assert first["windows"].tolist() == [1]


# --------------------------------------------------------------------------- #
def wiki_graph():
    return wikipedia_like(num_edges=600, num_users=80, num_items=20)


def fresh_engine(g, shards=2, **kw):
    return ServingEngine(
        [LinearCostBackend(per_edge_s=2e-3) for _ in range(shards)],
        g.num_nodes, **kw)


def run_checked(engine, g, **run_kw):
    initial = engine.router.assignment.copy()
    rep = engine.run(g, trace=True, **run_kw)
    return check_run(engine=engine, report=rep, initial_assignment=initial)


class TestCleanRunsYieldZeroFindings:
    """The PR 4-7 behaviors pass every invariant the checker encodes."""

    def test_plain_sharded_run(self):
        result = run_checked(fresh_engine(wiki_graph()), wiki_graph(),
                             window_s=3600.0, num_streams=2, speedup=100.0)
        assert result.ok, result.render()
        assert result.events > 0
        assert set(result.checks) >= {"causality", "exactly-once-service",
                                      "mail-at-flush", "ownership-chain",
                                      "conservation"}

    def test_pipelined_ingest_run(self):
        result = run_checked(fresh_engine(wiki_graph()), wiki_graph(),
                             window_s=3600.0, num_streams=2, speedup=100.0,
                             ingest="pipelined")
        assert result.ok, result.render()

    def test_online_rebalance_under_drift(self):
        g = drifting_hot_set_graph(1600, 4, num_nodes=128, phases=8,
                                   hot_size=6, seed=5)
        reb = OnlineRebalancer(window_s=0.5, util_threshold=0.5,
                               cooldown_windows=1)
        engine = ServingEngine(
            [LinearCostBackend(per_edge_s=6e-3) for _ in range(4)],
            g.num_nodes, rebalancer=reb, memsync="push")
        initial = engine.router.assignment.copy()
        rep = engine.run(g, window_s=250.0, num_streams=2, speedup=2400.0,
                         trace=True)
        result = check_run(engine=engine, report=rep,
                           initial_assignment=initial)
        assert result.ok, result.render()
        assert rep.migrations > 0   # the drift actually moved vertices

    def test_failover_chaos_run(self):
        g = wiki_graph()
        engine = fresh_engine(
            g, shards=2,
            failures=FailurePlan(fail_at=5.0, shard=1, mode="dead",
                                 recover_at=20.0))
        result = run_checked(engine, g, window_s=3600.0, num_streams=2,
                             speedup=100.0)
        assert result.ok, result.render()

    def test_heap_and_vectorized_lanes_agree(self):
        g = wiki_graph()

        def pool():
            # A finite deadline buffers arrivals, so cohorts hold several.
            return ServingEngine([LinearCostBackend(per_edge_s=2e-3)],
                                 g.num_nodes, topology="pool",
                                 pool_servers=2,
                                 batcher=DynamicBatcher(max_delay_s=200.0))

        for build, streams in ((lambda: fresh_engine(g), 2), (pool, 8)):
            run_kw = dict(window_s=3600.0, num_streams=streams,
                          speedup=100.0)
            heap_engine = build()
            heap_engine.run(g, scheduler_cls=HeapEventScheduler, trace=True,
                            **run_kw)
            vec_engine = build()
            initial = vec_engine.router.assignment.copy()
            rep = vec_engine.run(g, trace=True, **run_kw)
            result = check_run(engine=vec_engine, report=rep,
                               initial_assignment=initial)
            assert result.ok, result.render()
            assert check_lane_agreement(heap_engine.last_event_trace,
                                        vec_engine.last_event_trace) == []
            # What the check compared: per-element delivery against the
            # cohorts a traced run dispatches like an untraced one
            # (test_ingest_properties holds the two to equal counters).
            assert heap_engine.last_scheduler.cohort_calls == 0
            vec = vec_engine.last_scheduler
            assert vec.cohort_calls > 0
        assert vec.cohort_events > vec.cohort_calls     # multi-element
