"""Dynamic event-trace checker for the serving event core.

The unit suites (tests/unit/test_events.py, test_rebalance.py,
test_failover.py) grew a family of ad-hoc invariant asserts over
``EventScheduler`` traces: timestamps are monotone, every admitted job is
serviced exactly once, per-server busy intervals never overlap, the
migration log replays to exactly-once ownership, and offered windows are
conserved.  This module generalizes them into one reusable checker that
reads a recorded trace and returns a findings report, so the same
invariants run inside the bench smoke, behind ``serve-sim
--check-trace``, and against any future actor.

Checks (finding ``check`` values)
---------------------------------
``causality``             an event recorded before one already fired —
                          a handler scheduled into the past.
``exactly-once-service``  duplicate/missing ServiceBegin-ServiceEnd
                          pairing for a ``(group, index)`` job.
``busy-overlap``          two service spans overlap on one server.
``mail-at-flush``         mail/sync recorded away from a release instant.
``ownership-chain``       a MigrationEvent whose ``from_shard`` is not
                          the current owner (double-ownership), a
                          self-migration, a move onto a shard that is
                          dead at that instant, a vertex left on a
                          shard that is still dead at the end, or a
                          final assignment the replayed log does not
                          land on.
``fleet-size``            a ScaleEvent whose ``servers_before`` is not
                          the current fleet size, a step of more than
                          one server, a shrink below one, or a final
                          fleet the replayed log does not land on.
``conservation``          offered windows != served + dropped (report)
                          or != flushed (trace).

Every check is a predicate over the columns of an
:class:`~repro.serving.events.EventTrace` — the global ``t`` and
``kind`` of each event and one table per event kind — evaluated with
array operations; only the findings are built one by one.  A test that
fabricates a trace adds its events to an empty one
(:meth:`~repro.serving.events.EventTrace.add`).  An event at a
non-finite instant is a ``causality`` finding (and a non-finite service
end an ``exactly-once-service`` one); the other checks compare finite
times exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from ..serving.events import (KINDS, EventTrace, FailureEvent, FlushEvent,
                              MailEvent, MigrationEvent, RecoveryEvent,
                              ScaleEvent, ServiceBeginEvent, ServiceEndEvent,
                              SyncEvent)

__all__ = ["TraceFinding", "TraceCheckReport", "check_causality",
           "check_service_exactly_once", "check_mail_at_flush",
           "check_ownership_chain", "check_fleet_size",
           "check_conservation", "check_run"]


@dataclass(frozen=True)
class TraceFinding:
    """One invariant violation at one instant of the replayed trace."""

    check: str
    t: float | None
    detail: str

    def render(self) -> str:
        at = "" if self.t is None else f" @ t={self.t:.6g}"
        return f"[{self.check}]{at} {self.detail}"


@dataclass
class TraceCheckReport:
    """Outcome of a :func:`check_run` pass over one (or two) traces."""

    findings: list[TraceFinding] = field(default_factory=list)
    events: int = 0
    checks: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.findings

    def render(self) -> str:
        if self.ok:
            return (f"trace check: clean ({self.events} events, "
                    f"{len(self.checks)} checks)")
        lines = [f.render() for f in self.findings]
        lines.append(f"trace check: {len(self.findings)} finding(s) over "
                     f"{self.events} events")
        return "\n".join(lines)


def _first(ids: np.ndarray, n: int) -> np.ndarray:
    """Per id in ``[0, n)``, the index of its first occurrence in ``ids``
    (-1 where it has none)."""
    first = np.full(n, -1)
    seen, at = np.unique(ids, return_index=True)
    first[seen] = at
    return first


# --------------------------------------------------------------------------- #
def check_causality(trace: EventTrace) -> list[TraceFinding]:
    """Recorded event times never move backwards.

    The scheduler raises on ``schedule(t < now)``; this is the trace-side
    mirror — it also catches an actor that *records* a back-dated event
    directly (``sched.record`` bypasses the heap).  Each event is held to
    the watermark of the finite times before it; an event at a
    non-finite time is a finding of its own and leaves the watermark
    where it was.
    """
    t, kind = trace.t, trace.kind
    finite = np.isfinite(t)
    mark = np.maximum.accumulate(np.where(finite, t, -np.inf))
    before = np.append(-np.inf, mark[:-1])
    bad = ~finite | (t < before)
    # Who set each watermark: the last good event so far.
    setter = np.maximum.accumulate(np.where(bad, -1, np.arange(len(t))))
    findings = []
    for i in np.flatnonzero(bad).tolist():
        name, ti = KINDS[kind[i]].__name__, float(t[i])
        findings.append(TraceFinding("causality", ti, (
            f"{name} recorded at non-finite t={ti}" if not finite[i] else
            f"{name} recorded at t={ti:.6g} after "
            f"{KINDS[kind[setter[i - 1]]].__name__} already fired at "
            f"t={before[i]:.6g} (scheduled into the past)")))
    return findings


def check_service_exactly_once(trace: EventTrace) -> list[TraceFinding]:
    """Begin/end pairing and per-server busy-interval disjointness.

    Every ``(group, index)`` job begins exactly once and ends exactly
    once, at a finite instant, ends never precede their begin, and the
    service spans of one ``(group, server)`` station never overlap — by
    any margin: a begin is ``max(free_t, arrival)`` taken on the
    previous finish itself, so abutting spans are exact.  Migrations and
    failovers reroute *future* jobs; they may never duplicate or lose an
    admitted one.
    """
    b, e = trace.columns(ServiceBeginEvent), trace.columns(ServiceEndEvent)
    nb = len(b["pos"])
    group = np.append(b["group"], e["group"])
    index = np.append(b["index"], e["index"])
    width = int(index.max(initial=0)) + 1
    keys, ids = np.unique(group * width + index, return_inverse=True)
    jobs = [f"job group={k // width} index={k % width}"
            for k in keys.tolist()]
    first_b = _first(ids[:nb], len(keys))
    first_e = _first(ids[nb:], len(keys))
    rows = []                       # (trace position, t, detail)
    for i in np.flatnonzero(first_b[ids[:nb]] != np.arange(nb)).tolist():
        rows.append((b["pos"][i], float(b["t"][i]), f"{jobs[ids[i]]} began "
                     f"twice (first at t={b['t'][first_b[ids[i]]]:.6g})"))
    ends = ids[nb:]
    for i in np.flatnonzero(first_e[ends] != np.arange(len(ends))).tolist():
        rows.append((e["pos"][i], float(e["t"][i]),
                     f"{jobs[ends[i]]} ended twice"))
    # Each job's first end, held to its first begin.
    key = np.flatnonzero(first_e >= 0)
    end, begin = first_e[key], first_b[key]
    begun = begin >= 0
    begun[begun] = b["pos"][begin[begun]] < e["pos"][end[begun]]
    t_end, t_begin = e["t"][end], np.full(len(key), np.nan)
    t_begin[begun] = b["t"][begin[begun]]
    finite = np.isfinite(t_end)
    for i in np.flatnonzero(~begun | ~finite | (t_end < t_begin)).tolist():
        at = float(t_end[i])
        rows.append((e["pos"][end[i]], at, f"{jobs[key[i]]} " + (
            "ended without a ServiceBeginEvent" if not begun[i] else
            f"ends at non-finite t={at}" if not finite[i] else
            f"ends at t={at:.6g} before its begin at t={t_begin[i]:.6g}")))
    # In trace order: no two rows share a position.
    findings = [TraceFinding("exactly-once-service", t, detail)
                for _, t, detail in sorted(rows)]
    for k in np.flatnonzero((first_b >= 0) & (first_e < 0)).tolist():
        findings.append(TraceFinding(
            "exactly-once-service", float(b["t"][first_b[k]]),
            f"{jobs[k]} began but never ended (lost in service)"))
    # Per-(group, server) stations: spans sorted by begin are disjoint.
    paired = begun & finite
    g, srv = b["group"][begin[paired]], b["server"][begin[paired]]
    order = np.lexsort((t_end[paired], t_begin[paired], srv, g))
    g, srv = g[order], srv[order]
    span_b, span_e = t_begin[paired][order], t_end[paired][order]
    clash = (g[1:] == g[:-1]) & (srv[1:] == srv[:-1]) \
        & (span_b[1:] < span_e[:-1])
    for i in np.flatnonzero(clash).tolist():
        findings.append(TraceFinding(
            "busy-overlap", float(span_b[i + 1]),
            f"group={g[i]} server={srv[i]} begins a job at "
            f"t={span_b[i + 1]:.6g} while the previous one runs until "
            f"t={span_e[i]:.6g}"))
    return findings


def check_mail_at_flush(trace: EventTrace) -> list[TraceFinding]:
    """Mail and sync rows are recorded at a job release instant.

    The router forks a job the moment the batcher releases it; mail and
    sync events time-stamped away from any flush mean traffic was
    recorded outside the release path (e.g. back-dated by a handler).
    """
    t, kind = trace.t, trace.kind
    off = np.isin(kind, [KINDS.index(MailEvent), KINDS.index(SyncEvent)]) \
        & ~np.isin(t, trace.columns(FlushEvent)["t"])
    return [TraceFinding("mail-at-flush", ti,
                         f"{KINDS[k].__name__} at t={ti:.6g} matches no "
                         f"FlushEvent instant")
            for k, ti in zip(kind[off].tolist(), t[off].tolist())]


def check_ownership_chain(trace: EventTrace,
                          initial_assignment: Sequence[int],
                          final_assignment: Sequence[int] | None = None,
                          ) -> list[TraceFinding]:
    """Replay the migration log: ownership moves exactly-once.

    Each ``MigrationEvent`` must consume the current owner — a vertex can
    never be owned by two shards, because every handoff names the owner
    it takes from.  ``FailureEvent(mode="dead")`` / ``RecoveryEvent``
    are replayed beside it: ownership may never move *onto* a dead
    shard, and a shard still dead when the trace ends owns nothing (its
    failover evacuated it).  When ``final_assignment`` is given the
    replay must land exactly on it (the live router agrees with its own
    log).
    """
    m = trace.columns(MigrationEvent)
    v, src, dst = m["vertex"], m["from_shard"], m["to_shard"]
    owner = np.array(initial_assignment, dtype=np.int64)
    # A vertex's moves, in order, hand it from one to the next; a
    # self-migration moves nothing.
    moves = np.flatnonzero(src != dst)
    moves = moves[np.argsort(v[moves], kind="stable")]
    again = np.flatnonzero(v[moves][1:] == v[moves][:-1])
    found = owner[v]
    found[moves[again + 1]] = dst[moves[again]]
    last = np.ones(len(moves), dtype=bool)
    last[again] = False
    owner[v[moves[last]]] = dst[moves[last]]
    # A dead failure marks its shard dead and any recovery clears it: a
    # move sees the last mark on its target before it, the end of the
    # trace the last mark on each shard.
    fail, rec = trace.columns(FailureEvent), trace.columns(RecoveryEvent)
    dead = fail["mode"] == "dead"
    shard = np.append(fail["shard"][dead], rec["shard"])
    pos = np.append(fail["pos"][dead], rec["pos"])
    kills = pos[:dead.sum()]
    prior = np.where((shard == dst[:, None]) & (pos < m["pos"][:, None]),
                     pos, -1).max(axis=1, initial=-1)
    latest = np.where(shard == shard[:, None], pos, -1).max(axis=1,
                                                           initial=-1)
    still_dead = shard[np.isin(pos, kills) & (pos == latest)]
    onto_dead = np.isin(prior, kills)
    findings = []
    for i in np.flatnonzero((src == dst) | (found != src)
                            | onto_dead).tolist():
        t, why = float(m["t"][i]), m["reason"][i]
        if src[i] == dst[i]:
            findings.append(TraceFinding(
                "ownership-chain", t, f"vertex {v[i]} migrated to its own "
                f"shard {src[i]} ({why})"))
            continue
        if found[i] != src[i]:
            findings.append(TraceFinding(
                "ownership-chain", t, f"vertex {v[i]} migrated from shard "
                f"{src[i]} but is owned by shard {found[i]} ({why}): "
                f"double ownership"))
        if onto_dead[i]:
            findings.append(TraceFinding(
                "ownership-chain", t, f"vertex {v[i]} migrated onto shard "
                f"{dst[i]}, which is dead ({why})"))
    stranded = np.flatnonzero(np.isin(owner, still_dead))
    if len(stranded):
        first = stranded[0]
        findings.append(TraceFinding(
            "ownership-chain", None,
            f"{len(stranded)} vertex(es) end the run owned by a shard "
            f"that is still dead (first: vertex {first} on shard "
            f"{owner[first]})"))
    if final_assignment is not None:
        live = np.asarray(final_assignment)
        wrong = np.flatnonzero(owner != live)
        if len(wrong):
            head = ", ".join(f"{w}: log={owner[w]} live={live[w]}"
                             for w in wrong[:5])
            findings.append(TraceFinding(
                "ownership-chain", None,
                f"replayed migration log disagrees with the live "
                f"assignment on {len(wrong)} vertex(es) ({head}"
                f"{', ...' if len(wrong) > 5 else ''})"))
    return findings


def check_fleet_size(trace: EventTrace, initial_servers: int,
                     final_servers: int | None = None,
                     ) -> list[TraceFinding]:
    """Replay the scale log: the fleet changes one server at a time.

    Each ``ScaleEvent`` must consume the current fleet size (the same
    decision-to-application discipline as ``MigrationEvent`` ownership):
    ``servers_before`` names the fleet it resizes, ``servers_after``
    moves it by exactly one in the direction ``kind`` claims, and the
    fleet never drops below one server.  When ``final_servers`` is given
    the replay must land exactly on it (the live controller agrees with
    its own log).
    """
    s = trace.columns(ScaleEvent)
    kind, before, after = s["kind"], s["servers_before"], s["servers_after"]
    # The fleet each valid event finds: the one the last valid one left.
    steps = np.flatnonzero(np.isin(kind, ["up", "down"]))
    fleet = np.full(len(after), int(initial_servers))
    fleet[steps[1:]] = after[steps[:-1]]
    findings = []
    for i, k in enumerate(kind):
        t, why = float(s["t"][i]), s["reason"][i]
        if k not in ("up", "down"):
            findings.append(TraceFinding(
                "fleet-size", t, f"ScaleEvent kind {k!r} is neither 'up' "
                f"nor 'down' ({why})"))
            continue
        if after[i] != before[i] + (1 if k == "up" else -1):
            findings.append(TraceFinding(
                "fleet-size", t, f"scale-{k} moves the fleet {before[i]} -> "
                f"{after[i]}: capacity must change one server at a time "
                f"({why})"))
        if before[i] != fleet[i]:
            findings.append(TraceFinding(
                "fleet-size", t, f"scale-{k} expected a fleet of "
                f"{before[i]} but the replayed log stands at {fleet[i]} "
                f"({why}): stale decision applied"))
        if after[i] <= 0:
            findings.append(TraceFinding(
                "fleet-size", t, f"scale-{k} shrinks the fleet to "
                f"{after[i]}: a run needs at least one server ({why})"))
    final = after[steps[-1]] if len(steps) else int(initial_servers)
    if final_servers is not None and final != int(final_servers):
        findings.append(TraceFinding(
            "fleet-size", None,
            f"replayed scale log lands on a fleet of {final} but the "
            f"live controller reports {int(final_servers)}"))
    return findings


def check_conservation(num_arrivals: int, report: Any = None,
                       trace: EventTrace | None = None,
                       ) -> list[TraceFinding]:
    """Every offered window is accounted for: served, dropped, or flushed.

    With a report: ``windows + dropped_windows == offered``.  With a
    trace: the batcher's FlushEvents must release every offered window
    exactly once (drops happen downstream, at admission).
    """
    findings = []
    if report is not None:
        served = int(report.windows) + int(report.dropped_windows)
        if served != num_arrivals:
            findings.append(TraceFinding(
                "conservation", None,
                f"report accounts for {report.windows} served + "
                f"{report.dropped_windows} dropped windows, but "
                f"{num_arrivals} were offered"))
    if trace is not None:
        flushed = int(trace.columns(FlushEvent)["windows"].sum())
        if flushed != num_arrivals:
            findings.append(TraceFinding(
                "conservation", None,
                f"batcher flushed {flushed} windows but {num_arrivals} "
                f"were offered (arrivals lost before admission)"))
    return findings


# --------------------------------------------------------------------------- #
def check_run(engine: Any, report: Any = None,
              initial_assignment: Sequence[int] | None = None
              ) -> TraceCheckReport:
    """Run every applicable check over ``engine``'s last run.

    Run the engine with ``run(..., trace=True)`` first: the trace, the
    offered-arrival count, the final assignment and (with an autoscaler)
    the initial and final fleet sizes are read off it.  The ownership
    chain is checked when ``initial_assignment`` is given; it must be a
    *pre-run* copy, since the router mutates in place.
    """
    trace = engine.last_event_trace
    if trace is None:
        raise ValueError("check_run needs a trace: run the engine with "
                         "trace=True (tracing is off by default — it "
                         "costs memory)")
    findings: list[TraceFinding] = []
    checks = ["causality", "exactly-once-service", "busy-overlap",
              "mail-at-flush"]
    findings += check_causality(trace)
    findings += check_service_exactly_once(trace)
    findings += check_mail_at_flush(trace)
    if initial_assignment is not None:
        checks.append("ownership-chain")
        findings += check_ownership_chain(trace, initial_assignment,
                                          engine.router.assignment)
    auto = engine.autoscaler
    if auto is not None:
        checks.append("fleet-size")
        findings += check_fleet_size(trace, auto.initial_servers,
                                     auto.fleet_size)
    checks.append("conservation")
    findings += check_conservation(engine.last_num_arrivals, report=report,
                                   trace=trace)
    return TraceCheckReport(findings=findings, events=len(trace),
                            checks=tuple(checks))
