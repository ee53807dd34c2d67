"""The column trace checks return the object walk's findings.

:mod:`repro.analysis.tracecheck` evaluates its six checks as array
predicates over an :class:`~repro.serving.events.EventTrace`; the object
walk they replaced is the oracle in ``tracecheck_oracle``.  Both must
return the same findings — same ``check``, ``t`` and ``detail``, in the
same order — on fabricated traces that draw violations of every check,
and on the traces real ``ServingEngine`` runs record (read through their
reference columns), clean and with one event dropped, repeated or
swapped.  Times stay finite: the oracle is blind to a NaN (see
``test_tracecheck``), which the column checks report.
"""

import inspect
import sys
import types
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis import tracecheck
from repro.serving import (ArrivalEvent, FailureEvent, FlushEvent,
                           MailEvent, MigrationEvent, RecoveryEvent,
                           ScaleEvent, ServiceBeginEvent, ServiceEndEvent,
                           SyncEvent)
from tests.property import tracecheck_oracle as oracle
from tests.property.tracecheck_oracle import trace_of
from tests.property.test_control_properties import run, scenario

VERTICES, SHARDS = 6, 4

times = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0])
shard = st.integers(0, SHARDS - 1)
job = (times, st.integers(0, 1), st.integers(0, 1), st.integers(0, 3))
events = st.one_of(
    st.builds(ArrivalEvent, times, st.none()),
    st.builds(FlushEvent, times, st.sampled_from(["size", "deadline"]),
              st.integers(0, 3)),
    st.builds(ServiceBeginEvent, *job),
    st.builds(ServiceEndEvent, *job),
    st.builds(MailEvent, times, shard, shard, st.integers(1, 3)),
    st.builds(SyncEvent, times, shard, shard, st.integers(1, 3),
              st.sampled_from(["pull", "push"])),
    st.builds(MigrationEvent, times, st.integers(0, VERTICES - 1), shard,
              shard, st.integers(0, 2),
              st.sampled_from(["overload", "rebuild"])),
    st.builds(FailureEvent, times, shard, st.sampled_from(["dead", "slow"]),
              st.just(4.0)),
    st.builds(RecoveryEvent, times, shard,
              st.sampled_from(["dead", "slow"])),
    st.builds(ScaleEvent, times, st.sampled_from(["up", "down", "sideways"]),
              shard, st.integers(0, 3), st.integers(0, 3), st.integers(0, 2),
              st.sampled_from(["slo-breach", "slo-slack"])),
)
# A begin and its end, so spans pair up and can overlap on one server.
served = st.builds(
    lambda t, span, group, server, index: [
        ServiceBeginEvent(t, group, server, index),
        ServiceEndEvent(t + span, group, server, index)],
    times, times, st.just(0), st.integers(0, 1), st.integers(0, 9))
# Two jobs on one server, the second begun inside or right at the end of
# the first: an overlap, or spans that abut exactly.
back_to_back = st.builds(
    lambda t, gap, server, index: [
        ServiceBeginEvent(t, 0, server, index),
        ServiceEndEvent(t + 1.0, 0, server, index),
        ServiceBeginEvent(t + gap, 0, server, index + 10),
        ServiceEndEvent(t + 2.0, 0, server, index + 10)],
    times, st.sampled_from([0.5, 1.0]), st.integers(0, 1), st.integers(0, 9))
traces = st.lists(st.one_of(served, back_to_back, events.map(lambda e: [e])),
                  min_size=2, max_size=20).map(lambda parts: sum(parts, []))
assignments = st.lists(shard, min_size=VERTICES, max_size=VERTICES)


def check_agreement(events, initial, final=None, servers=(1, None),
                    offered=0, report=None, trace=None, module=tracecheck):
    """Every check of ``module`` on ``trace`` (default: the events'
    ``trace_of``) returns the oracle's findings on ``events``."""
    trace = trace_of(events) if trace is None else trace
    pairs = [
        (oracle.check_causality(events), module.check_causality(trace)),
        (oracle.check_service_exactly_once(events),
         module.check_service_exactly_once(trace)),
        (oracle.check_mail_at_flush(events),
         module.check_mail_at_flush(trace)),
        (oracle.check_ownership_chain(events, initial, final),
         module.check_ownership_chain(trace, initial, final)),
        (oracle.check_fleet_size(events, *servers),
         module.check_fleet_size(trace, *servers)),
        (oracle.check_conservation(offered, report, events),
         module.check_conservation(offered, report, trace)),
    ]
    for want, got in pairs:
        assert got == want


ABUTTING = [ServiceBeginEvent(0.0, 0, 0, 1), ServiceEndEvent(1.0, 0, 0, 1),
            ServiceBeginEvent(1.0, 0, 0, 2), ServiceEndEvent(2.0, 0, 0, 2)]


class TestColumnsEqualTheObjectWalk:
    @settings(deadline=None, max_examples=400)
    @given(traces, assignments,
           st.one_of(st.none(), assignments), st.integers(1, 3),
           st.one_of(st.none(), st.integers(0, 3)), st.integers(0, 6))
    @example(ABUTTING, [0] * VERTICES, None, 1, None, 0)
    def test_fabricated_traces(self, trace, initial, final, servers,
                               final_servers, offered):
        report = SimpleNamespace(windows=offered // 2, dropped_windows=1)
        check_agreement(trace, initial, final, (servers, final_servers),
                        offered, report)

    @settings(deadline=None, max_examples=10)
    @given(scenario(), st.data())
    def test_engine_traces(self, sc, data):
        engine, initial, report = run(sc, trace=True)
        trace = engine.last_event_trace
        auto = engine.autoscaler
        kwargs = dict(final=engine.router.assignment,
                      servers=(1, None) if auto is None
                      else (auto.initial_servers, auto.fleet_size),
                      offered=engine.last_num_arrivals, report=report)
        events = list(trace)
        check_agreement(events, initial, trace=trace, **kwargs)
        # One event dropped, repeated, or swapped with its successor.
        i = data.draw(st.integers(0, len(events) - 2))
        edit = data.draw(st.sampled_from(["drop", "repeat", "swap"]))
        if edit == "drop":
            events.pop(i)
        elif edit == "repeat":
            events.insert(i, events[i])
        else:
            events[i:i + 2] = events[i + 1], events[i]
        check_agreement(events, initial, **kwargs)

    def test_a_non_strict_overlap_fails(self, monkeypatch):
        """Mutation check: spans that abut are not an overlap; a
        busy-overlap comparing ``<=`` flags them, and the property
        catches it."""
        source = inspect.getsource(tracecheck)
        strict = "(span_b[1:] < span_e[:-1])"
        assert source.count(strict) == 1
        mutant = types.ModuleType("tracecheck_mutant")
        mutant.__package__ = tracecheck.__package__
        monkeypatch.setitem(sys.modules, mutant.__name__, mutant)
        exec(compile(source.replace(strict, "(span_b[1:] <= span_e[:-1])"),
                     tracecheck.__file__, "exec"), mutant.__dict__)
        mutant.TraceFinding = tracecheck.TraceFinding   # comparable rows
        check_agreement(ABUTTING, [0] * VERTICES)
        assert [f.check for f in mutant.check_service_exactly_once(
            trace_of(ABUTTING))] == ["busy-overlap"]
        with pytest.raises(AssertionError):
            check_agreement(ABUTTING, [0] * VERTICES, module=mutant)
