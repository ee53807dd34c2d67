"""Dynamic event-trace checker for the serving event core.

The unit suites (tests/unit/test_events.py, test_rebalance.py,
test_failover.py) grew a family of ad-hoc invariant asserts over
``EventScheduler`` traces: timestamps are monotone, every admitted job is
serviced exactly once, per-server busy intervals never overlap, the
migration log replays to exactly-once ownership, and offered windows are
conserved.  This module generalizes them into one reusable checker that
replays a recorded trace and returns a findings report, so the same
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

The checker matches events by type *name*, not class identity, so it
stays stdlib-only (importable without numpy) and works with any
duck-typed trace a test fabricates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

__all__ = ["TraceFinding", "TraceCheckReport", "check_causality",
           "check_service_exactly_once", "check_mail_at_flush",
           "check_ownership_chain", "check_fleet_size",
           "check_conservation", "check_run"]

# Service spans may abut exactly; anything closer than this is overlap.
_OVERLAP_TOL = 1e-12


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

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for f in self.findings:
            out[f.check] = out.get(f.check, 0) + 1
        return out

    def render(self) -> str:
        if self.ok:
            return (f"trace check: clean ({self.events} events, "
                    f"{len(self.checks)} checks)")
        lines = [f.render() for f in self.findings]
        lines.append(f"trace check: {len(self.findings)} finding(s) over "
                     f"{self.events} events")
        return "\n".join(lines)


def _kind(event: Any) -> str:
    return type(event).__name__


# --------------------------------------------------------------------------- #
def check_causality(trace: Sequence[Any]) -> list[TraceFinding]:
    """Recorded event times never move backwards.

    The scheduler raises on ``schedule(t < now)``; this is the trace-side
    mirror — it also catches an actor that *records* a back-dated event
    directly (``sched.record`` bypasses the heap).
    """
    findings = []
    prev = float("-inf")
    prev_kind = "start-of-trace"
    for event in trace:
        t = float(event.t)
        if t < prev:
            findings.append(TraceFinding(
                "causality", t,
                f"{_kind(event)} recorded at t={t:.6g} after "
                f"{prev_kind} already fired at t={prev:.6g} "
                f"(scheduled into the past)"))
        else:
            prev, prev_kind = t, _kind(event)
    return findings


def check_service_exactly_once(trace: Sequence[Any]) -> list[TraceFinding]:
    """Begin/end pairing and per-server busy-interval disjointness.

    Every ``(group, index)`` job begins exactly once and ends exactly
    once, ends never precede their begin, and the service spans of one
    ``(group, server)`` station never overlap — migrations and failovers
    reroute *future* jobs; they may never duplicate or lose an admitted
    one.
    """
    findings = []
    begun: dict[tuple[int, int], Any] = {}
    spans: dict[tuple[int, int], list[float]] = {}
    ended: set[tuple[int, int]] = set()
    for event in trace:
        kind = _kind(event)
        if kind == "ServiceBeginEvent":
            key = (event.group, event.index)
            if key in begun:
                findings.append(TraceFinding(
                    "exactly-once-service", float(event.t),
                    f"job group={key[0]} index={key[1]} began twice "
                    f"(first at t={float(begun[key].t):.6g})"))
            else:
                begun[key] = event
                spans[key] = [float(event.t), float("nan")]
        elif kind == "ServiceEndEvent":
            key = (event.group, event.index)
            if key in ended:
                findings.append(TraceFinding(
                    "exactly-once-service", float(event.t),
                    f"job group={key[0]} index={key[1]} ended twice"))
                continue
            ended.add(key)
            if key not in begun:
                findings.append(TraceFinding(
                    "exactly-once-service", float(event.t),
                    f"job group={key[0]} index={key[1]} ended without "
                    f"a ServiceBeginEvent"))
            else:
                spans[key][1] = float(event.t)
                if spans[key][1] < spans[key][0]:
                    findings.append(TraceFinding(
                        "exactly-once-service", float(event.t),
                        f"job group={key[0]} index={key[1]} ends at "
                        f"t={spans[key][1]:.6g} before its begin at "
                        f"t={spans[key][0]:.6g}"))
    for key in sorted(begun):
        if key not in ended:
            findings.append(TraceFinding(
                "exactly-once-service", float(begun[key].t),
                f"job group={key[0]} index={key[1]} began but never "
                f"ended (lost in service)"))
    # Per-(group, server) stations: spans sorted by begin must be disjoint.
    by_server: dict[tuple[int, int], list[tuple[float, float]]] = {}
    for key, event in begun.items():        # insertion == trace order
        b, e = spans[key]
        if e == e:                          # paired (not NaN)
            by_server.setdefault((event.group, event.server),
                                 []).append((b, e))
    for station in sorted(by_server):
        intervals = sorted(by_server[station])
        for (b0, e0), (b1, _) in zip(intervals, intervals[1:]):
            if b1 < e0 - _OVERLAP_TOL:
                findings.append(TraceFinding(
                    "busy-overlap", b1,
                    f"group={station[0]} server={station[1]} begins a "
                    f"job at t={b1:.6g} while the previous one runs "
                    f"until t={e0:.6g}"))
    return findings


def check_mail_at_flush(trace: Sequence[Any]) -> list[TraceFinding]:
    """Mail and sync rows are recorded at a job release instant.

    The router forks a job the moment the batcher releases it; mail and
    sync events time-stamped away from any flush mean traffic was
    recorded outside the release path (e.g. back-dated by a handler).
    """
    flush_ts = {float(e.t) for e in trace if _kind(e) == "FlushEvent"}
    findings = []
    for event in trace:
        if _kind(event) in ("MailEvent", "SyncEvent") \
                and float(event.t) not in flush_ts:
            findings.append(TraceFinding(
                "mail-at-flush", float(event.t),
                f"{_kind(event)} at t={float(event.t):.6g} matches no "
                f"FlushEvent instant"))
    return findings


def check_ownership_chain(trace: Sequence[Any],
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
    findings = []
    owner = [int(s) for s in initial_assignment]
    dead: set[int] = set()
    for event in trace:
        if _kind(event) == "FailureEvent" and event.mode == "dead":
            dead.add(int(event.shard))
        elif _kind(event) == "RecoveryEvent":
            dead.discard(int(event.shard))
        if _kind(event) != "MigrationEvent":
            continue
        t = float(event.t)
        v, src, dst = int(event.vertex), int(event.from_shard), \
            int(event.to_shard)
        if src == dst:
            findings.append(TraceFinding(
                "ownership-chain", t,
                f"vertex {v} migrated to its own shard {src} "
                f"({event.reason})"))
            continue
        if owner[v] != src:
            findings.append(TraceFinding(
                "ownership-chain", t,
                f"vertex {v} migrated from shard {src} but is owned by "
                f"shard {owner[v]} ({event.reason}): double ownership"))
        if dst in dead:
            findings.append(TraceFinding(
                "ownership-chain", t,
                f"vertex {v} migrated onto shard {dst}, which is dead "
                f"({event.reason})"))
        owner[v] = dst
    stranded = [v for v, s in enumerate(owner) if s in dead]
    if stranded:
        findings.append(TraceFinding(
            "ownership-chain", None,
            f"{len(stranded)} vertex(es) end the run owned by a shard "
            f"that is still dead (first: vertex {stranded[0]} on shard "
            f"{owner[stranded[0]]})"))
    if final_assignment is not None:
        wrong = [v for v, (a, b) in
                 enumerate(zip(owner, final_assignment))
                 if int(a) != int(b)]
        if wrong:
            head = ", ".join(
                f"{v}: log={owner[v]} live={int(final_assignment[v])}"
                for v in wrong[:5])
            findings.append(TraceFinding(
                "ownership-chain", None,
                f"replayed migration log disagrees with the live "
                f"assignment on {len(wrong)} vertex(es) ({head}"
                f"{', ...' if len(wrong) > 5 else ''})"))
    return findings


def check_fleet_size(trace: Sequence[Any], initial_servers: int,
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
    findings = []
    fleet = int(initial_servers)
    for event in trace:
        if _kind(event) != "ScaleEvent":
            continue
        t = float(event.t)
        before, after = int(event.servers_before), int(event.servers_after)
        if event.kind not in ("up", "down"):
            findings.append(TraceFinding(
                "fleet-size", t,
                f"ScaleEvent kind {event.kind!r} is neither 'up' nor "
                f"'down' ({event.reason})"))
            continue
        step = 1 if event.kind == "up" else -1
        if after != before + step:
            findings.append(TraceFinding(
                "fleet-size", t,
                f"scale-{event.kind} moves the fleet {before} -> {after}: "
                f"capacity must change one server at a time "
                f"({event.reason})"))
        if before != fleet:
            findings.append(TraceFinding(
                "fleet-size", t,
                f"scale-{event.kind} expected a fleet of {before} but the "
                f"replayed log stands at {fleet} ({event.reason}): stale "
                f"decision applied"))
        if after <= 0:
            findings.append(TraceFinding(
                "fleet-size", t,
                f"scale-{event.kind} shrinks the fleet to {after}: a run "
                f"needs at least one server ({event.reason})"))
        fleet = after
    if final_servers is not None and fleet != int(final_servers):
        findings.append(TraceFinding(
            "fleet-size", None,
            f"replayed scale log lands on a fleet of {fleet} but the "
            f"live controller reports {int(final_servers)}"))
    return findings


def check_conservation(num_arrivals: int, report: Any = None,
                       trace: Sequence[Any] | None = None,
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
        flushed = 0
        for event in trace:
            if _kind(event) == "FlushEvent":
                flushed += int(event.windows)
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
