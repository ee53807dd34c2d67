"""Heap-vs-cohort lane differential for the serving event core.

:class:`~repro.serving.events.HeapEventScheduler` is the event loop with
every cohort cut to one, so a run on it and the same run on
:class:`~repro.serving.events.EventScheduler` must record the identical
typed-event sequence.  :func:`check_lane_agreement` compares two such
traces and reports, as :class:`~repro.analysis.tracecheck.TraceFinding`
rows, the first place they part:

``same-key-order``   per-element and cohort delivery disagree on the
                     relative order of equal-timestamp events.
``lane-divergence``  the lanes disagree outright (different event at
                     different times, or different counts).

Only tests hold two traces of one workload, so the check lives here,
beside ``test_ingest_properties`` and ``test_tracecheck``.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.analysis.tracecheck import TraceFinding


def _kind(event: Any) -> str:
    return type(event).__name__


def _event_key(event: Any) -> tuple:
    """Comparable identity of one event: type name + scalar fields.

    Payload fields that are not scalars (an ArrivalEvent's batch holds
    numpy arrays) are skipped — array equality is elementwise, and the
    lanes share the batch objects anyway; the ordering contract is about
    *which event fired when*, which the scalars pin down.
    """
    fields = getattr(event, "__dict__", None)
    if fields is None:
        return (_kind(event), float(event.t))
    scalars = tuple(
        (name, value) for name, value in sorted(fields.items())
        if isinstance(value, (bool, int, float, str)))
    return (_kind(event), scalars)


def check_lane_agreement(heap_trace: Sequence[Any],
                         vec_trace: Sequence[Any]) -> list[TraceFinding]:
    """Per-element vs cohort delivery: same workload, same event order.

    Both lanes must produce the identical typed-event sequence.
    ``vec_trace`` is what :class:`~repro.serving.events.EventScheduler`
    recorded while delivering arrivals in cohorts — tracing observes the
    loop, so these are the cohorts an untraced run cuts — and
    ``heap_trace`` what :class:`~repro.serving.events.HeapEventScheduler`
    recorded offering the same handlers one element at a time off its
    ``(t, priority, seq)`` heap.  A divergence is a cohort cut or a bulk
    admission that let an event fire out of order.  The first divergence
    at *equal* timestamps is same-key nondeterminism — two events with
    equal ``(t, priority)`` whose relative order differs between the
    lanes, exactly the bug class the seq tie-break exists to exclude.
    """
    findings = []
    for i, (a, b) in enumerate(zip(heap_trace, vec_trace)):
        if _event_key(a) == _event_key(b):
            continue
        if float(a.t) == float(b.t):
            findings.append(TraceFinding(
                "same-key-order", float(a.t),
                f"lanes diverge at trace position {i} with equal "
                f"timestamps: heap recorded {_kind(a)}, vectorized "
                f"recorded {_kind(b)} — equal-(t, priority) events "
                f"reordered between lanes"))
        else:
            findings.append(TraceFinding(
                "lane-divergence", float(a.t),
                f"lanes diverge at trace position {i}: heap "
                f"{_kind(a)} at t={float(a.t):.6g} vs vectorized "
                f"{_kind(b)} at t={float(b.t):.6g}"))
        break                    # everything after the fork is noise
    if len(heap_trace) != len(vec_trace) and not findings:
        findings.append(TraceFinding(
            "lane-divergence", None,
            f"heap lane recorded {len(heap_trace)} events, vectorized "
            f"{len(vec_trace)}"))
    return findings
