r"""Discrete-event serving core: one scheduler, typed events, pluggable actors.

Every serving composition in this package — single queue, partitioned
shards, shared-queue pool, and the hybrid hot/cold topology — runs on the
same event loop.  The paper's accelerator overlaps sampling, memory
update, and attention in a hardware dataflow pipeline; this module is the
deployment-level analogue: ingest (batching), routing, shard compute,
mailbox, and memory-sync traffic all advance on **one clock**, so stages
can overlap instead of being modeled as independent batch simulations
that cannot interact mid-run.

Scheduler design (one run + cohort dispatch)
--------------------------------------------
The loop spends most of its time delivering its bulk — the arrivals of
a replay with S streams and W windows, ``S x W`` of them known up front,
or in a one-pass run its releases — so :class:`EventScheduler` holds
that bulk as **one run**: a contiguous, pre-sorted numpy timestamp
array from the loop's one :meth:`EventScheduler.schedule_run` call and
a single consumption pointer, instead of one heap entry per event.
Dynamically created events (service ends, dispatches, deadline flushes,
migrations) live on a conventional ``(t, priority, seq)`` heap, so the
documented equal-timestamp priority order and schedule-order
tie-breaking hold among them.  A run element fires after every heap
event at its instant — arrivals come last in that order, and a one-pass
run's releases share the heap only with ownership plans, which precede
them — so the loop fires the run's head exactly when it is earlier than
the heap's.

When it is, the scheduler delivers a **cohort**: the maximal prefix of
the run before the heap head's instant.  The cohort handler — an actor
that opted in, like :class:`BatcherActor` — consumes as many of those
events as it can prove need no interleaving (pure buffering), and
*returns the consumed count*: any event whose admission could trigger a
same-instant reaction (a size flush, a drain flush, a deadline at the
same instant) is left unconsumed, and the next loop iteration delivers
it alone with exact heap semantics.  Actors that have not opted in — the
:class:`~repro.serving.control.ControlPlane` among them — use
:meth:`EventScheduler.schedule` and keep per-event dispatch unchanged.

A run in which nothing reacts to a service end — serial ingest, modeled
stations, no controller but an online rebalancer — needs no event but
its releases and the rebalancer's plans.  Every release is known up
front (:meth:`~repro.serving.batcher.DynamicBatcher.releases`) and a
FIFO station with nothing wired to its service ends fixes a job's
outcome when it admits it (:meth:`ServerGroup.admit`), so the engine
serves such a run as **one pass**: its releases are the loop's run,
which :class:`EventScheduler` delivers as one cohort (cut after
each release that proposed a plan, which fires before the next), and no
arrival, deadline, service end or dispatch is an event.  A rebalancer
reads each station's load as of the release (:meth:`ServerGroup.advance`).
Every other run takes the per-event path, and that path is the pass's
oracle: the engine tests require the same report bytes and the same
traced events.
They agree when every service takes a positive time; a zero-second job
frees its server at once in the pass but only at its end event on the
loop (see :func:`~repro.serving.engine.serves_in_one_pass`).

There is one way into the loop.  Tracing (``trace=True``) is an observer
of it, not a lane through it: the loop records the typed event of every
heap entry it pops and a cohort handler records the span of the elements
it consumes, so a traced run makes the cohort cuts, fires the events and
writes the report of the untraced run.  A traced pass records, before
each release, the rows of the events the loop would have fired first
(:class:`LoopOrder`), keyed as the loop keys them.  The record is one
:class:`EventTrace`, not a list of event objects: an event is a tuple of
its fields as recorded, and where the run already keeps the row — an
arrival in the :class:`ArrivalTrace`, a sub-job's traffic in its
:class:`~repro.serving.router.RoutePlan` — the trace points at it.
:class:`HeapEventScheduler` is the same loop with every cohort cut to
one — its single override expands the run into one heap entry per
element — which makes it the reference the cohort optimisation is held
to: the scheduler-equivalence property tests require bit-identical
outcomes and traces between the two, and the serving bench uses it as
the "before" lane.  (The verbatim historical queue loop lives on, independently, as
the reference oracle in ``tests/unit/test_events.py``.)

Nothing is ever cancelled.  An event that may have gone stale by the
time it fires vets itself instead, as an ownership plan does (below): a
batcher deadline is bound to the start of the buffer it guards, and once
that buffer has flushed by size or drain the deadline does nothing.  So
the loop needs no liveness check per pop, and the run stays one
consumption pointer over a contiguous block.

Event types
-----------
Each is a kind of :class:`EventTrace` row, and what reading the trace
materialises; the trace column it comes from is in brackets.

:class:`ArrivalEvent`       a stream window reaches the ingest tier
                            (a cohort's span of the :class:`ArrivalTrace`)
:class:`FlushEvent`         the batcher releases its pending buffer
:class:`ServiceBeginEvent`  a server starts a job
:class:`ServiceEndEvent`    a server finishes a job (frees the server)
:class:`MailEvent`          cross-shard edge mail, at delivery time (the
                            sub-job's run of its route plan)
:class:`SyncEvent`          memory rows pulled/pushed between shards (the
                            same run, per owner of the rows)
:class:`MigrationEvent`     a vertex changes owner mid-run (recorded when
                            the control plane applies the change)
:class:`FailureEvent`       a shard degrades or dies mid-run (scheduled)
:class:`RecoveryEvent`      a failed shard comes back (scheduled)
:class:`ScaleEvent`         the fleet grows or shrinks by one server
                            (scheduled)

At equal timestamps events fire in a fixed priority order (service ends,
then dispatches, then migrations, then flushes, then arrivals) so that
e.g. a deadline flush scheduled at ``t`` releases *before* an arrival at
``t`` is admitted — exactly the tie-breaking the batching rule,
:meth:`DynamicBatcher.ends`, assumes, which is what makes
``ingest="serial"`` replays byte-identical to the pre-event-core engine.

Ownership plan lifecycle (propose → vet → apply / drop)
-------------------------------------------------------
Who owns a vertex changes mid-run for three reasons — load
(:class:`~repro.serving.rebalance.OnlineRebalancer`), capacity
(:class:`~repro.serving.autoscale.AutoScaler`) and faults
(:class:`~repro.serving.control.FailureInjector`) — and all three go
through the run's one :class:`~repro.serving.control.ControlPlane`, so
they compose.

*Propose.*  A policy reads the plane's samples (windowed per-vertex heat
and per-shard busy time; the scaler adds windowed p95 latency against
its SLO band) and its eligibility mask (a shard may receive ownership
only while its group is accepting and it lies inside the scaler's active
prefix), and proposes per-vertex plans: the rebalancer's ``"overload"``
/ ``"heat-up"`` / ``"cool-down"`` moves, the scaler's ``"split"`` into a
newly activated slot or ``"merge"`` off a drained one (behind the
:class:`ScaleEvent` that resizes the fleet — in the pool topology that
event alone does the work, through :meth:`ServerGroup.scale_up` or
:meth:`ServerGroup.scale_down`, which lets a busy replica drain), and the injector's ``"fail-back"`` of a
recovered shard's ownership snapshot.  Every plan is scheduled at the
current instant with the ``_MIGRATE`` priority and names the owner it
was computed against: decided at ``t``, it fires before the next job
released at ``t`` is routed, and in-flight sub-jobs complete under the
old ownership, exactly like a real handoff.

*Vet.*  When a plan fires, the plane checks that the named owner still
owns the vertex and that the target is still eligible.  If not — another
policy moved the vertex first, or the target died or was merged away —
the plan is **dropped and counted** (``ServingReport.stale_plans``) and
leaves no event in the trace.

*Apply.*  Otherwise :func:`~repro.serving.memsync.hand_off` flips the
:class:`~repro.serving.router.ShardRouter` and stamps the
:class:`~repro.serving.memsync.VersionedMemoryCache` so version counters
stay exact across the change, the ``HANDOFF_ROWS_PER_VERTEX`` rows are
priced through the same ``mail_hop_s`` die-crossing machinery as
:class:`SyncEvent` traffic, and one :class:`MigrationEvent` lands in the
trace.

Failures themselves are events: a :class:`FailurePlan` becomes a
:class:`FailureEvent` / :class:`RecoveryEvent` pair at ``_MIGRATE``
priority.  A **slow** failure sets the :class:`ServerGroup`'s
``service_factor`` until recovery resets it.  A **dead** failure is
fail-stop — the group stops accepting (queued jobs drop, jobs in service
complete: their service time was committed at begin) — and because its
state is gone, ownership is evacuated *at that instant*, not planned:
:func:`~repro.serving.memsync.fail_over` promotes a live replica where
one exists (a full holder, so nothing moves) and reassigns the rest
round-robin over the eligible shards, rebuilt by memsync replay from
peers at ``HANDOFF_ROWS_PER_VERTEX`` priced rows each.  These land in
the trace as ``"promote"`` / ``"rebuild"`` :class:`MigrationEvent`\ s
through the same accounting as applied plans, so ``tracecheck``'s
``ownership-chain`` replay covers rebalancing, elastic capacity and
failover as one exactly-once history (and ``fleet-size`` replays the
:class:`ScaleEvent` chain beside it).

Actors
------
:class:`ServerGroup`
    A FIFO service station with ``num_servers`` identical servers sharing
    one queue: a dedicated shard is a 1-server group, a replica pool is a
    K-server group.  It keeps columns, not job objects: per offer the
    arrival instant and a drop mark, per commit one ``(index, begin,
    finish, service, server)`` row; a payload lives only while its job
    waits.  :meth:`~ServerGroup.finalize` folds them into a
    :class:`SimulationResult` of per-offer arrays whose values and
    statistics equal the historical standalone queue loop's bit for bit
    (same formulas, same tie-breaking, same ``service_fn`` call order) —
    property-tested in ``tests/unit/test_events.py``, where one group fed
    hand-built arrivals (``tests/property/queue_oracle.py``) is held to a
    verbatim copy of that loop.  A job enters by :meth:`~ServerGroup.submit`
    on the loop (begin at dispatch, an end event per job) or by
    :meth:`~ServerGroup.admit` in a one-pass run (the same commit, fixed
    at admission in that loop's closed form, and no event).
:class:`BatcherActor`
    :class:`~repro.serving.batcher.DynamicBatcher` run *online*: each
    pending job ends where the batcher's table of job ends says (in a
    one-pass run, its releases computed up front and scheduled as the
    loop's run), plus — under
    ``ingest="pipelined"`` — a double-buffered drain trigger: while the
    fleet serves window *n* the buffer accumulates window *n+1* for
    free, and the moment the fleet goes hungry (an idle server with
    nothing queued) the buffer flushes immediately.  Batching delay is
    paid only when it can hide behind in-flight compute; on an idle fleet
    it is skipped entirely.

A released job goes to the batcher's sink as ``(t, lo, hi)``: its release
instant and its span ``[lo, hi)`` of the :class:`ArrivalTrace`.  In the
serving engine the sink is the fork point, ``route``: the router's plan
hands the job out as ``(run, shard, batch)`` and already carries each
run's mail and sync traffic in its columns, so ``route`` records the run
itself (the trace reads its :class:`MailEvent` / :class:`SyncEvent` rows
off the plan) and submits the sub-batch to its group, all at the release
instant.  The
memsync cache (:class:`~repro.serving.memsync.VersionedMemoryCache`)
advances as the plan hands jobs out, in flush order, which the scheduler
guarantees is release order.
"""

from __future__ import annotations

import heapq
import math
import numbers
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, fields
from functools import cached_property, partial
from itertools import chain, repeat
from operator import attrgetter
from typing import Any, Callable

import numpy as np

from .batcher import ArrivalTrace, DynamicBatcher, Releases

__all__ = [
    "ArrivalEvent", "FlushEvent", "ServiceBeginEvent", "ServiceEndEvent",
    "MailEvent", "SyncEvent", "MigrationEvent", "FailureEvent",
    "RecoveryEvent", "ScaleEvent", "KINDS", "EventTrace", "FailurePlan",
    "EventScheduler", "HeapEventScheduler", "SimulationResult",
    "sorted_percentile", "ServerGroup", "BatcherActor", "INGEST_MODES",
]

INGEST_MODES = ("serial", "pipelined")

# How far a committed service may drift from ``finish - begin``, relative
# to the service.  Event time is absolute (stream seconds over speedup),
# so a slow replay puts the instants where one float64 step is a sizeable
# part of a short service; past this bound a station refuses the run
# (``ServerGroup.finalize``) instead of reporting rounded latencies.
SERVICE_REL_TOL = 1e-3

# Priority of event kinds at equal timestamps (lower fires first).
# Migrations land between dispatches and flushes: a placement change
# decided at ``t`` applies before the next job released at ``t`` is
# routed, but never retracts a submission already made.  Arrivals come
# last, and the loop's run (arrivals, or a one-pass run's releases, which
# share the heap only with ``_MIGRATE`` plans) fires after every heap
# event at its instant: ``_RUN`` is how the heap reference keys it.
_END, _DISPATCH, _MIGRATE, _FLUSH, _ARRIVAL, _RUN = range(6)


# --------------------------------------------------------------------------- #
# Typed events.  Heap-scheduled events drive handlers; trace-only events
# (begin / mail / sync) document *when* something happened for the
# conservation and ordering invariant tests.

@dataclass(frozen=True)
class ArrivalEvent:
    """A stream window reaches the ingest tier at time ``t``."""

    t: float
    arrival: Any


@dataclass(frozen=True)
class FlushEvent:
    """The batcher released its pending buffer (cause: ``deadline`` /
    ``size`` / ``drain`` / ``eos``)."""

    t: float
    cause: str
    windows: int


@dataclass(frozen=True)
class ServiceBeginEvent:
    """Server ``server`` of group ``group`` begins job ``index``."""

    t: float
    group: int
    server: int
    index: int


@dataclass(frozen=True)
class ServiceEndEvent:
    """Server ``server`` of group ``group`` finishes job ``index``."""

    t: float
    group: int
    server: int
    index: int


@dataclass(frozen=True)
class MailEvent:
    """``edges`` forwarded from ``from_shard`` to ``to_shard`` at ``t``."""

    t: float
    from_shard: int
    to_shard: int
    edges: int


@dataclass(frozen=True)
class SyncEvent:
    """``rows`` memory rows moved ``owner -> shard`` (kind: pull/push)."""

    t: float
    owner: int
    shard: int
    rows: int
    kind: str


@dataclass(frozen=True)
class MigrationEvent:
    """Vertex ``vertex`` changes owner ``from_shard -> to_shard`` at ``t``.

    ``rows`` is the priced state handoff (memory row + neighbor-table
    slice); ``reason`` names the trigger: ``"overload"`` (donor shard above
    the utilization threshold), ``"heat-up"`` (hybrid pool vertex promoted
    to a dedicated shard), ``"cool-down"`` (hybrid hot-shard vertex
    demoted to the pool), ``"split"`` / ``"merge"`` (elastic capacity),
    ``"promote"`` / ``"rebuild"`` / ``"fail-back"`` (failover).  Recorded
    by the control plane at the instant it applied the change, so the
    trace position is exactly the instant routing semantics changed; a
    plan dropped at vetting records nothing.
    """

    t: float
    vertex: int
    from_shard: int
    to_shard: int
    rows: int
    reason: str


@dataclass(frozen=True)
class FailureEvent:
    """Shard ``shard`` fails at ``t``.

    Two modes.  ``"slow"``: the shard keeps serving but every service time
    is multiplied by ``degradation`` (a brown-out — thermal throttling, a
    noisy neighbor) until recovery.  ``"dead"``: the shard stops accepting
    sub-jobs, its queue drains to drops, and its vertex state is *lost* —
    the handler evacuates ownership at this instant (replica promotion /
    memsync rebuild, recorded as ``"promote"`` / ``"rebuild"``
    :class:`MigrationEvent` trace rows), so no job released after ``t``
    is ever routed to the dead shard.  Scheduled at ``_MIGRATE`` priority:
    the failure applies before the next same-instant flush routes.
    """

    t: float
    shard: int
    mode: str
    degradation: float


@dataclass(frozen=True)
class RecoveryEvent:
    """Shard ``shard`` recovers at ``t`` from a ``mode`` failure.

    A slow shard simply returns to full speed.  A dead shard resumes
    accepting and **fails back**: every vertex it owned at failure time
    migrates home through the ordinary exact handoff path (priced rows,
    ``"fail-back"`` :class:`MigrationEvent` trace entries), which restores
    promoted replicas into their replica sets.
    """

    t: float
    shard: int
    mode: str


@dataclass(frozen=True)
class ScaleEvent:
    """The serving fleet grows (``kind="up"``) or shrinks (``"down"``) by
    exactly one server at ``t``.

    ``shard`` names the affected station: the pool group in pool
    topology, or the shard being activated (split) / drained (merge) in
    sharded topology.  ``servers_before`` / ``servers_after`` are the
    *active-fleet* sizes around the change — always one apart, which is
    what ``tracecheck``'s ``fleet-size`` replay asserts.  ``rows`` is
    the priced state handoff the change triggered (the split/merge
    migration rows; 0 for a stateless pool replica) and ``reason`` names
    the controller trigger (``"slo-breach"`` above the SLO band,
    ``"slo-slack"`` below it).  Like :class:`MigrationEvent` this event
    is *scheduled*: its handler applies the capacity change, so the
    trace position is exactly the instant the fleet size changed.
    """

    t: float
    kind: str
    shard: int
    servers_before: int
    servers_after: int
    rows: int
    reason: str


@dataclass(frozen=True)
class FailurePlan:
    """One scheduled failure (and optional recovery) for the chaos driver.

    ``fail_at``/``recover_at`` are finite event-loop instants;
    ``recover_at=None`` leaves the shard failed for the rest of the run.
    ``degradation`` is the slow-mode service-time multiplier and must
    exceed 1 (a factor of 1 would be byte-invisible, which is what
    ``mode="slow"`` exists to not be) and be finite.
    """

    fail_at: float
    shard: int
    mode: str = "dead"
    recover_at: float | None = None
    degradation: float = 4.0

    def __post_init__(self):
        if self.mode not in ("slow", "dead"):
            raise ValueError(f"unknown failure mode {self.mode!r}; "
                             "expected 'slow' or 'dead'")
        if not (isinstance(self.shard, numbers.Integral)
                and self.shard >= 0):
            raise ValueError("shard must be a non-negative integer")
        if not math.isfinite(self.fail_at):
            raise ValueError("fail_at must be finite")
        # A recovery at t = inf never happens; None says so.
        if self.recover_at is not None \
                and not self.fail_at < self.recover_at < math.inf:  # NaN too
            raise ValueError("recover_at must be finite and after fail_at")
        if self.mode == "slow" and not 1.0 < self.degradation < math.inf:
            raise ValueError("slow-mode degradation must exceed 1.0 and "
                             "be finite")


# --------------------------------------------------------------------------- #
# The trace.  An event kind's code is its index here and its row is its
# fields as recorded, ``t`` first.
KINDS: tuple[type, ...] = (
    ArrivalEvent, FlushEvent, ServiceBeginEvent, ServiceEndEvent, MailEvent,
    SyncEvent, MigrationEvent, FailureEvent, RecoveryEvent, ScaleEvent)
_KIND = {cls: k for k, cls in enumerate(KINDS)}
_FIELDS = tuple(tuple(f.name for f in fields(cls)) for cls in KINDS)
_ROW = tuple(attrgetter(*names) for names in _FIELDS)
_NAMED = ("cause", "kind", "mode", "reason")
_A, _M, _S = (_KIND[c] for c in (ArrivalEvent, MailEvent, SyncEvent))
# Records that point at a row the run keeps instead of copying it.
_SPAN, _SUBJOB = range(len(KINDS), len(KINDS) + 2)
_WIDE = 1 << 32         # orders a sub-job's mail, then pulls, then pushes


def _ranges(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every element of the ranges ``[lo, hi)``, in order: the range it
    belongs to and its index."""
    n = hi - lo
    which = np.repeat(np.arange(len(n)), n)
    return which, np.arange(n.sum()) + np.repeat(lo - np.cumsum(n) + n, n)


class EventTrace(Sequence):
    """The typed-event record of one traced run, held as columns.

    Recording appends a code and one tuple of fields per record and
    builds no event object.  Most records are an event's row
    (:meth:`add`, or :meth:`row` from its fields); two point at rows the
    run already keeps instead of copying them:

    * a cohort of arrivals is ``(source, lo, hi)``, a span of the
      :class:`ArrivalTrace` the batcher admits;
    * a sub-job is ``(t, plan, run, shard)``, run ``run`` of a
      :class:`~repro.serving.router.RoutePlan`, whose :class:`MailEvent`
      rows count its ``mail_from`` column per source shard and whose
      :class:`SyncEvent` rows count its pulled and pushed rows per owner.
      The owners are read once per plan: they cannot move while it hands
      out jobs, because the engine re-plans whenever
      ``router.generation`` does.

    Reading puts the records in event order once (again after more
    records): every event's ``t`` and ``kind`` (its index into
    :data:`KINDS`) as arrays, beside one tuple of its fields as recorded
    (an arrival as ``(t, item, source)``, its item's index in its
    source), and per kind a :meth:`columns` table of those tuples.
    :mod:`repro.analysis.tracecheck` reads only these.  The trace is
    still a ``Sequence`` of the typed events, as an :class:`ArrivalTrace`
    is one of :class:`StreamArrival`: indexing or iterating materialises
    them.
    """

    def __init__(self):
        self._code: list[int] = []      # a kind's index, _SPAN or _SUBJOB
        self._fields: list[tuple] = []
        self._plans: list[tuple] = []
        self._plan = None
        self._built: tuple = (-1,)
        self._tables: dict[int, dict] = {}  # columns() per kind, as built

    def add(self, event) -> None:
        """Record a typed event, one of :data:`KINDS`, as its row."""
        k = _KIND[type(event)]
        self._code.append(k)
        # An arrival is the one item of a source of its own.
        self._fields.append((event.t, 0, (event.arrival,)) if k == _A
                            else _ROW[k](event))

    def row(self, cls: type, *values) -> None:
        """Record an event of kind ``cls`` from its field ``values``,
        without building it."""
        self._code.append(_KIND[cls])
        self._fields.append(values)

    def arrivals(self, source: ArrivalTrace, lo: int, hi: int) -> None:
        """Record the :class:`ArrivalEvent` of ``source[lo:hi]``."""
        self._code.append(_SPAN)
        self._fields.append((source, lo, hi))

    def sub_job(self, t: float, plan, run: int, shard: int,
                owner: np.ndarray) -> None:
        """Record the mail and sync traffic of ``plan``'s run ``run``,
        released to ``shard`` at ``t``; ``owner`` is the ownership table
        the plan was routed under."""
        if plan is not self._plan:
            self._plan = plan
            self._plans.append(((plan.mail_from, plan.mail_bounds),
                                (owner[plan.pull], plan.pull_bounds),
                                (owner[plan.push], plan.push_bounds)))
        self._code.append(_SUBJOB)
        self._fields.append((t, len(self._plans) - 1, run, shard))

    # ------------------------------------------------------------------ #
    @property
    def t(self) -> np.ndarray:
        return self._build()[1]

    @property
    def kind(self) -> np.ndarray:
        return self._build()[2]

    def columns(self, cls: type) -> dict[str, np.ndarray]:
        """The events of kind ``cls``, in record order: one column per
        field (an arrival as its item) and ``pos``, each one's index in
        the whole trace.  A string column holds objects, ``t`` and
        ``degradation`` floats and every other column int64.  Each kind
        is converted once: until the next record, every call returns the
        same table (read it, do not write it)."""
        _, t, kind, rows = self._build()
        k = _KIND[cls]
        if k in self._tables:
            return self._tables[k]
        pos = np.flatnonzero(kind == k)
        names = _FIELDS[k][1:]      # after ``t``
        cols = list(zip(*rows[pos]))[1:] or [()] * len(names)
        self._tables[k] = table = {"t": t[pos], **{
            name: np.array(col, dtype=object if name in _NAMED
                           else np.float64 if name == "degradation"
                           else np.int64)
            for name, col in zip(names, cols)}, "pos": pos}
        return table

    def __len__(self) -> int:
        return len(self._build()[2])

    def __getitem__(self, i: int):
        _, _, kind, rows = self._build()
        return self._event(int(kind[i]), rows[i])

    def __iter__(self):
        _, _, kind, rows = self._build()
        return map(self._event, kind.tolist(), rows)

    @staticmethod
    def _event(k: int, row: tuple):
        if k == _A:
            t, item, source = row
            return ArrivalEvent(t, source[item])
        return KINDS[k](*row)

    # ------------------------------------------------------------------ #
    def _build(self) -> tuple:
        """``(records, t, kind, rows)`` of everything recorded so far, in
        event order; ``rows`` is an object array of each event's fields
        as recorded, ``t`` first."""
        if self._built[0] == len(self._code):
            return self._built
        code, fields = np.array(self._code, dtype=np.int64), self._fields

        def records(at: np.ndarray) -> list:
            return [fields[i] for i in at.tolist()]

        # (record, place in it, kind, t, rows) per block of events.
        at = np.flatnonzero(code < _SPAN)
        rows = records(at)
        blocks = [(at, 0, code[at], [r[0] for r in rows], rows)]
        at = np.flatnonzero(code == _SPAN)
        if len(at):
            source, lo, hi = zip(*records(at))
            which, item = _ranges(np.array(lo), np.array(hi))
            t = np.concatenate([s.t[a:b] for s, a, b in zip(source, lo, hi)])
            source = [source[w] for w in which.tolist()]
            blocks.append((at[which], item, _A, t,
                           list(zip(t.tolist(), item.tolist(), source))))
        at = np.flatnonzero(code == _SUBJOB)
        if len(at):
            t, plan, run, shard = map(np.array, zip(*records(at)))
            used = np.zeros(len(self._plans), dtype=np.int64)
            np.maximum.at(used, plan, run + 2)
            for c, tail in enumerate(((), ("pull",), ("push",))):
                # Every plan's column (mail, pulls, pushes), and its run
                # bounds up to the last run handed out, laid end to end.
                values, bounds = zip(*(p[c] for p in self._plans))
                bounds = [np.asarray(b[:n], dtype=np.int64)
                          for b, n in zip(bounds, used.tolist())]
                first = np.cumsum([0] + [len(b) for b in bounds])[plan] + run
                base = np.cumsum([0] + [len(v) for v in values])
                bounds = np.concatenate(
                    [b + o for b, o in zip(bounds, base.tolist())])
                sub, item = _ranges(bounds[first], bounds[first + 1])
                value = np.concatenate(values)[item]
                # Per run, one row per distinct value, ascending.
                key, n = np.unique(sub * _WIDE + value, return_counts=True)
                sub, value = key // _WIDE, key % _WIDE
                # A sync row ends with its kind: pull, or push.
                blocks.append((at[sub], c * _WIDE + value, _S if c else _M,
                               t[sub], list(zip(
                                   t[sub].tolist(), value.tolist(),
                                   shard[sub].tolist(), n.tolist(),
                                   *map(repeat, tail)))))
        record, place, kind, t = (np.concatenate(
            [np.broadcast_to(b[j], len(b[0])) for b in blocks])
            for j in range(4))
        order = np.lexsort((place, record))
        rows = np.fromiter(chain.from_iterable(b[4] for b in blocks),
                           dtype=object, count=len(order))
        self._built = (len(code), t[order].astype(np.float64),
                       kind[order].astype(np.int8), rows[order])
        self._tables = {}
        return self._built


# --------------------------------------------------------------------------- #
class _EventRun:
    """The loop's run, from :meth:`EventScheduler.schedule_run`.

    ``ts`` holds the sorted timestamps and ``pos`` is the consumption
    pointer — everything before it has fired.  An element fires after
    every heap event at its instant and before any later one, and the
    elements fire in order.
    """

    __slots__ = ("ts", "handler", "pos", "n")

    def __init__(self, ts: np.ndarray, handler: Callable):
        self.ts = ts
        self.handler = handler
        self.pos = 0
        self.n = len(ts)


class EventScheduler:
    """Vectorized event loop: one run + a dynamic heap overlay.

    The loop's pre-sorted bulk (the arrival trace, or a one-pass run's
    releases) is its one :class:`_EventRun`, from :meth:`schedule_run`;
    dynamically created events use :meth:`schedule` and live on a ``(t,
    priority, seq)`` heap, where seq is the schedule order, so equal
    ``(t, priority)`` events fire in the order they were scheduled.  A
    run element fires after every heap event at its instant, so the loop
    decides which fires next by comparing two instants.  It asserts
    global timestamp monotonicity: an event firing before ``now`` is a
    scheduler bug, not a recoverable condition.

    When the run's head comes first, its handler is offered the maximal
    *cohort*: the prefix of unconsumed elements before the heap head's
    instant.  The handler returns how many it consumed (at least the
    head element, which is trivially heap-equivalent); elements whose
    admission could schedule an event that lands inside the offered
    prefix must be left unconsumed.  Firing order is therefore
    bit-identical to per-element delivery (:class:`HeapEventScheduler`)
    — the cohort is an optimization of *delivery*, not of ordering —
    which the equivalence property tests assert directly.
    """

    def __init__(self, trace: bool = False):
        self._heap: list = []
        self._run: _EventRun | None = None
        self._seq = 0
        self.now = -math.inf
        self.events_processed = 0
        self.cohort_calls = 0
        self.cohort_events = 0
        self.trace: EventTrace | None = EventTrace() if trace else None

    def schedule(self, t: float, priority: int, event,
                 handler: Callable) -> None:
        """Queue ``handler(event)`` at ``(t, priority)``."""
        if not t >= self.now:       # also true of NaN, which no heap orders
            raise RuntimeError(
                f"cannot schedule an event at t={t} before now={self.now}")
        heapq.heappush(self._heap, (t, priority, self._seq, event, handler))
        self._seq += 1

    def _new_run(self, ts: np.ndarray, handler: Callable) -> _EventRun:
        """Validate the loop's one run and hold it."""
        if self._run is not None:
            raise RuntimeError("the event loop already holds a run")
        ts = np.ascontiguousarray(ts, dtype=np.float64)
        if not np.all(ts[1:] >= ts[:-1]):       # NaN-proof, as in schedule
            raise ValueError("run timestamps must be sorted")
        if len(ts) and not ts[0] >= self.now:
            raise RuntimeError(
                f"cannot schedule an event at t={ts[0]} before now={self.now}")
        self._run = _EventRun(ts, handler)
        return self._run

    def schedule_run(self, ts: np.ndarray, handler: Callable) -> None:
        """Queue the loop's pre-sorted bulk of events as its one run.

        ``handler(t0, start, stop)`` is called with the cohort bounds
        (elements ``[start, stop)``, the first at ``t0``) and must return
        the number of elements consumed, in ``[1, stop - start]``.  Each
        element fires after every heap event at its instant.  The run
        holds no typed events, so the loop records nothing for it: a
        handler that wants its elements in ``trace`` records the span it
        consumes (:meth:`EventTrace.arrivals`).  A loop holds one run; a
        second raises ``RuntimeError``.
        """
        self._new_run(ts, handler)

    def before(self, t: float) -> bool:
        """Whether the heap's head fires before a run element at ``t``: a
        cohort handler whose element scheduled an event asks it before
        going on to the next one."""
        return bool(self._heap) and self._heap[0][0] <= t

    def record(self, event) -> None:
        """Record a typed event that no heap entry carries (an applied
        migration) as one row of ``trace``; a no-op when not tracing."""
        if self.trace is not None:
            self.trace.add(event)

    # ------------------------------------------------------------------ #
    @staticmethod
    def _run_cut(run: _EventRun, t: float) -> int:
        """Index of the first run element that fires after a heap event at
        ``t``: the first at or after ``t``."""
        return int(np.searchsorted(run.ts, t, side="left"))

    def run(self) -> None:
        heap = self._heap
        trace = self.trace
        while True:
            run = self._run
            if run is not None and run.pos < run.n:
                pos = run.pos
                t0 = float(run.ts[pos])
            else:
                run = None
            if heap and (run is None or heap[0][0] <= t0):
                t, _prio, _seq, event, handler = heapq.heappop(heap)
                if t < self.now:
                    raise RuntimeError(
                        f"event fired out of timestamp order: t={t} < "
                        f"now={self.now}")
                self.now = t
                self.events_processed += 1
                if event is not None and trace is not None:
                    trace.add(event)
                handler(event)
                continue
            if run is None:
                return      # drained: the heap is empty too
            if t0 < self.now:
                raise RuntimeError(
                    f"event fired out of timestamp order: t={t0} < "
                    f"now={self.now}")
            # The head element precedes the heap head, so the cut lies
            # past it.  When the run's next element already trails the
            # heap head the cut is exactly that one element, and no
            # search is needed.
            stop = pos + 1
            if stop < run.n and not (heap and run.ts[stop] >= heap[0][0]):
                stop = self._run_cut(run, heap[0][0]) if heap else run.n
            consumed = int(run.handler(t0, pos, stop))
            if not 1 <= consumed <= stop - pos:
                raise RuntimeError(
                    f"cohort handler consumed {consumed} of "
                    f"[1, {stop - pos}] offered events")
            run.pos = pos + consumed
            self.now = float(run.ts[run.pos - 1])
            self.events_processed += consumed
            self.cohort_calls += 1
            self.cohort_events += consumed


class HeapEventScheduler(EventScheduler):
    """:class:`EventScheduler` with every cohort cut to one.

    The run is expanded into one heap entry per element, keyed after
    every heap priority at its instant and in run order, and each is
    offered to the run's handler as a cohort of one.  This is the
    reference the cohort optimisation is held to: the merge of the run
    against the heap, :meth:`_run_cut` and a handler's bulk admission all
    lie on the other side of the comparison, so the equivalence property
    tests replay one workload through both and require bit-identical
    outcomes, and the serving bench uses this class as its "before"
    lane.
    """

    def schedule_run(self, ts: np.ndarray, handler: Callable) -> None:
        run = self._new_run(ts, handler)
        run.n = 0       # the heap delivers it, element by element

        def deliver(i: int, _event) -> None:
            if handler(self.now, i, i + 1) != 1:
                raise RuntimeError("a cohort of one was not consumed")

        for i, t in enumerate(run.ts.tolist()):
            heapq.heappush(self._heap, (t, _RUN, i, None,
                                        partial(deliver, i)))


# --------------------------------------------------------------------------- #
def sorted_percentile(s: np.ndarray, q: float) -> float:
    """``np.percentile(s, q)`` (method ``linear``) of an ascending array.

    The closed form of numpy's interpolation, with its IEEE operations in
    its order (``_lerp``: ``b - d * (1 - g)`` from ``g >= 0.5``, else
    ``a + d * g``), so the result is bit for bit numpy's, without its
    partition of an array that is already sorted.  Defined for a
    non-empty, finite ``s`` only: at ``v >= n - 1`` over ``[.., inf]``
    numpy returns ``nan`` and this ``inf``.
    """
    n = len(s)
    v = (n - 1) * (q / 100)
    if v >= n - 1:
        return float(s[n - 1])
    lo = math.floor(v)
    g = v - lo
    a, b = float(s[lo]), float(s[lo + 1])
    d = b - a
    return b - d * (1 - g) if g >= 0.5 else a + d * g


@dataclass(frozen=True, eq=False)
class SimulationResult:
    """Outcome of a queue simulation: per-offer columns and aggregates.

    The five arrays hold one entry per offered job, in offer order.  An
    offer that was dropped has ``NaN`` begin, finish and service and
    server ``-1``; every statistic below runs over the served offers, in
    offer order.
    """

    t_arrive: np.ndarray
    t_begin: np.ndarray
    t_finish: np.ndarray
    service_s: np.ndarray
    server: np.ndarray
    num_servers: int
    busy_s: float
    makespan_s: float       # first arrival -> last service completion
    utilization: float      # busy / (num_servers * makespan), in [0, 1]
    offered_load: float     # arrival rate * mean service / num_servers
    max_queue_depth: int    # waiting jobs only (in-service excluded)

    @cached_property
    def _served(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Waits, responses and the responses sorted ascending, over the
        served offers, folded once for every statistic below.

        Percentiles are order statistics, so both read the one sort
        through :func:`sorted_percentile`.  Means stay on the *unsorted*
        arrays: summation order changes the last bits.  Every caller
        shares them, so they are read-only.
        """
        served = self.server >= 0
        arrive = self.t_arrive[served]
        responses = self.t_finish[served] - arrive
        folded = self.t_begin[served] - arrive, responses, np.sort(responses)
        for column in folded:
            column.flags.writeable = False
        return folded

    @property
    def jobs(self) -> int:
        return len(self._served[1])

    @property
    def dropped(self) -> int:
        return len(self.server) - self.jobs

    # ------------------------------------------------------------------ #
    def waits(self) -> np.ndarray:
        return self._served[0]

    def responses(self) -> np.ndarray:
        return self._served[1]

    @property
    def mean_wait_s(self) -> float:
        return float(self.waits().mean()) if self.jobs else 0.0

    @property
    def mean_response_s(self) -> float:
        return float(self.responses().mean()) if self.jobs else 0.0

    @property
    def p95_response_s(self) -> float:
        return sorted_percentile(self._served[2], 95) if self.jobs else 0.0

    @property
    def p99_response_s(self) -> float:
        return sorted_percentile(self._served[2], 99) if self.jobs else 0.0


# --------------------------------------------------------------------------- #
class ServerGroup:
    """A FIFO station of ``num_servers`` identical servers on the loop.

    A dedicated shard is a 1-server group; a replica pool is a K-server
    group.  ``service_fn`` is called once per *admitted* job at service
    begin — FIFO dispatch makes begin order equal admission order, so
    stateful backends see the stream exactly as the historical offline
    queue loop presented it (the byte-identity contract).

    Tie-breaking matches the historical loop bit-for-bit for positive
    service times: when several servers are idle (or free at the same
    instant) the job goes to the one with the earliest ``(freed_at,
    server_id)``.  Same-time service ends all land *before* the dispatch
    that assigns the freed servers, so the winner is chosen over the full
    set, not by end-event order.  A zero-second job begun in a dispatch
    frees its server only after that dispatch, so on a station of two or
    more servers the next waiting job can take another idle server where
    the historical loop (and :meth:`admit`) reuses the freed one: the
    server ids differ, the begins, finishes and depths do not.

    A job enters one of two ways.  :meth:`submit` is the event loop's:
    the job begins now or at a dispatch, and its end is an event that
    frees the server — what the reactions (``on_hungry``,
    ``on_serviced``, failures, scaling) hang on.  :meth:`admit` is the
    one-pass run's, where none is wired: it commits the same row at
    admission, from the historical loop's closed form, and schedules
    nothing.  A station takes its jobs one way for a whole run.  Its
    load, :attr:`busy_s` and :attr:`queue_depth`, is live on the loop;
    under :meth:`admit` it is read as of the instant :meth:`advance`
    last moved the station to, which is what the loop holds live when a
    release at that instant fires.
    """

    def __init__(self, gid: int, num_servers: int, service_fn: Callable,
                 sched: EventScheduler, queue_capacity: int | None = None):
        # Counts, not quantities: 2.5 servers or a NaN capacity would be
        # silently rounded or compare as unbounded.
        if not (isinstance(num_servers, numbers.Integral)
                and num_servers > 0):
            raise ValueError("num_servers must be a positive integer")
        if queue_capacity is not None \
                and not (isinstance(queue_capacity, numbers.Integral)
                         and queue_capacity >= 0):
            raise ValueError("queue_capacity must be a non-negative integer")
        self.gid = int(gid)
        self.num_servers = int(num_servers)
        self._service_fn = service_fn
        self._sched = sched
        self._capacity = queue_capacity
        # Idle servers as (freed_at, server_id); servers are born free at
        # t=0 like the historical loop's ``free`` heap.  Under ``admit``
        # every server stays in it, keyed by the instant its last
        # committed job ends.  The commits before ``_ahead`` have begun
        # and their services are summed in ``_busy``; on the loop that is
        # every commit, under ``admit`` the ones begun by the instant the
        # station was last moved to (:meth:`advance`; begins never fall).
        self._idle: list[tuple[float, int]] = [(0.0, s)
                                               for s in range(num_servers)]
        self._ahead = 0
        # The station's record, as columns: per offer its arrival instant
        # and an explicit drop mark, per commit one ``(index, begin,
        # finish, service, server)`` row.  A payload is held only while
        # its job waits.
        self._t_arrive: list[float] = []
        self._drop_mark: list[bool] = []
        self._commits: list[tuple[int, float, float, float, int]] = []
        self._waiting: deque[tuple[int, Any]] = deque()
        self._busy = 0.0
        self._max_depth = 0
        self._dispatch_pending = False
        # Set by pipelined ingest: the batcher's drain trigger.
        self.on_hungry: Callable[[float], None] | None = None
        # Failure-injection state (see FailureEvent): a slow failure sets
        # the service-time multiplier, a dead failure clears ``accepting``.
        self.service_factor = 1.0
        self.accepting = True
        # Elastic-capacity state (see ScaleEvent): server ids are never
        # reused across a scale-down/up cycle, so trace rows stay
        # unambiguous; ``_draining`` holds busy servers retired by
        # scale_down — they finish their committed job and leave at the
        # service end instead of rejoining the idle heap.  ``on_serviced``
        # (when set) receives ``(t_finish, response_s)`` per committed job
        # — the autoscaler's latency feed.
        self._next_server = int(num_servers)
        self._draining: set[int] = set()
        self._retired: set[int] = set()
        self.on_serviced: Callable[[float, float], None] | None = None

    # ------------------------------------------------------------------ #
    @property
    def hungry(self) -> bool:
        """An idle server with nothing queued: batching gains nothing."""
        return bool(self._idle) and not self._waiting

    @property
    def busy_s(self) -> float:
        """Service seconds of the jobs begun so far: on the loop, live
        mid-run; under :meth:`admit`, of the commits begun by the instant
        of the last :meth:`advance` (``begin <= t``: on the loop the ends
        and dispatches at ``t`` fire before a release at ``t``).  Summed
        in commit order either way, so the two read the same float."""
        return self._busy

    @property
    def queue_depth(self) -> int:
        """Jobs waiting (in-service excluded): on the loop, live mid-run;
        under :meth:`admit`, the commits that begin after the instant of
        the last :meth:`advance`."""
        return len(self._waiting) + len(self._commits) - self._ahead

    def advance(self, t: float) -> None:
        """Move the station to instant ``t``: count the commits begun by
        ``t`` in :attr:`busy_s` and take them out of :attr:`queue_depth`.
        Only :meth:`admit` commits ahead of time, so on the loop every
        commit has begun and this does nothing."""
        commits, k, busy = self._commits, self._ahead, self._busy
        while k < len(commits) and commits[k][1] <= t:
            busy += commits[k][3]
            k += 1
        self._ahead, self._busy = k, busy

    def submit(self, t: float, payload) -> None:
        """Admit (or drop) a job arriving at the current event time."""
        i = len(self._t_arrive)
        self._t_arrive.append(t)
        self._drop_mark.append(False)
        if not self.accepting:
            # Dead shard: the offer is recorded (conservation — served +
            # dropped must still equal offered) but the job is dropped.
            self._drop_mark[i] = True
            return
        if self._idle and not self._waiting:
            self._begin(t, i, payload)
            return
        # A full buffer only rejects jobs that would have to wait: with an
        # idle server the job starts immediately and never occupies a slot
        # (``queue_capacity=0`` is a bufferless loss system, not a server
        # that drops everything).
        if self._capacity is not None and len(self._waiting) >= self._capacity:
            self._drop_mark[i] = True
            return
        self._waiting.append((i, payload))
        self._max_depth = max(self._max_depth, len(self._waiting))

    # ------------------------------------------------------------------ #
    def admit(self, t: float, payload) -> None:
        """Admit (or drop) a job arriving at ``t`` and fix its outcome now:
        its commit row, or its drop mark.

        The one-pass path: with nothing wired to react to a service end,
        FIFO makes a job's outcome a function of the jobs admitted before
        it, so no end or dispatch event is needed.  The job takes the
        server with the least ``(freed_at, server_id)`` and begins at
        ``max(freed_at, t)``; it waits exactly when that is later than
        ``t``, behind the jobs whose begins are later than ``t``, and a
        job that would wait finds the buffer full at ``queue_capacity``
        of them.  For positive service times that is the loop's outcome
        bit for bit (held to the historical queue loop in
        ``tests/unit/test_events.py``); a zero-second job is free at once
        here, but busy on the loop until its end event fires.
        ``service_fn`` is called here, in admission order, which is the
        loop's begin order.
        """
        if self.on_hungry is not None or self.on_serviced is not None:
            raise RuntimeError(
                f"station {self.gid} has a reaction to service ends wired, "
                f"so it cannot commit a job at admission")
        i = len(self._t_arrive)
        self._t_arrive.append(t)
        self._drop_mark.append(False)
        free_t, srv = self._idle[0]
        begin = max(free_t, t)
        if begin > t:
            self.advance(t)
            waiting = len(self._commits) - self._ahead
            if self._capacity is not None and waiting >= self._capacity:
                self._drop_mark[i] = True
                return
            self._max_depth = max(self._max_depth, waiting + 1)
        finish = self._commit(i, srv, begin,
                              float(self._service_fn(payload)), live=False)
        heapq.heapreplace(self._idle, (finish, srv))

    def _begin(self, t: float, i: int, payload: Any) -> None:
        service = float(self._service_fn(payload))
        free_t, srv = heapq.heappop(self._idle)
        self._commit(i, srv, max(free_t, self._t_arrive[i]), service)

    def _commit(self, i: int, srv: int, begin: float, service: float,
                live: bool = True) -> float:
        """Commit offer ``i``'s service interval and return its finish:
        one commit row and, on the loop (``live``), the begin trace row
        and the end event.  The single service-accounting path —
        :meth:`admit` reuses it, and so do subclasses that *measure*
        service times (``repro.serving.measured``), so traced runs stay
        invariant-checkable regardless of where the duration came from —
        and so the one place a slow shard's ``service_factor`` applies
        and a service time is checked."""
        if self.service_factor != 1.0:
            service *= self.service_factor
        finish = begin + service
        if not (0 <= service and finish < math.inf):    # NaN too
            raise ValueError(f"a service time must be finite and "
                             f"non-negative and end at a finite instant, "
                             f"got {service} from t={begin}")
        self._commits.append((i, begin, finish, service, srv))
        if self.on_serviced is not None:
            self.on_serviced(finish, finish - self._t_arrive[i])
        if not live:
            return finish       # begun, and counted, by ``advance``
        self._busy += service
        self._ahead += 1
        trace = self._sched.trace
        if trace is not None:
            self._record_begin(trace, (begin, self.gid, srv, i))
        self._sched.schedule(finish, _END,
                             ServiceEndEvent(finish, self.gid, srv, i),
                             self._end)
        return finish

    def _record_begin(self, trace: EventTrace, row: tuple) -> None:
        # Hook point: the measured subclass defers lane-delayed begins so
        # the trace stays causally ordered.
        trace.row(ServiceBeginEvent, *row)

    def _end(self, ev: ServiceEndEvent) -> None:
        t, server = self._sched.now, ev.server
        if server in self._draining:
            # Retired by scale_down while busy: the job it was committed
            # to is done, so it leaves the fleet instead of re-idling.
            # num_servers already dropped at the scale instant.
            self._draining.discard(server)
            self._retired.add(server)
            if self.on_hungry is not None and self.hungry:
                self.on_hungry(t)
            return
        heapq.heappush(self._idle, (t, server))
        if self._waiting:
            # Defer the hand-off so every same-instant end lands in the
            # idle heap first — the waiting job then picks the earliest
            # ``(freed_at, server_id)``, the historical tie-break.
            if not self._dispatch_pending:
                self._dispatch_pending = True
                self._sched.schedule(t, _DISPATCH, None, self._dispatch)
        elif self.on_hungry is not None:
            self.on_hungry(t)

    def _dispatch(self, _event) -> None:
        self._dispatch_pending = False
        now = self._sched.now
        while self._idle and self._waiting:
            self._begin(now, *self._waiting.popleft())
        if self.on_hungry is not None and self.hungry:
            self.on_hungry(now)

    # ------------------------------------------------------------------ #
    def fail(self) -> int:
        """Dead-replica failure: stop accepting and drop the queue.

        Jobs already in service complete — their service time was
        committed at begin, exactly like a real fail-stop draining
        in-flight work — while waiting jobs are dropped and counted like
        capacity rejections, so window conservation (served + dropped ==
        offered) holds across the outage.  Returns the number of queued
        jobs dropped.
        """
        self.accepting = False
        n = len(self._waiting)
        for i, _payload in self._waiting:
            self._drop_mark[i] = True
        self._waiting.clear()
        return n

    def restore(self) -> None:
        """Recover from any failure: accept again, at full service speed."""
        self.accepting = True
        self.service_factor = 1.0

    # ------------------------------------------------------------------ #
    def scale_up(self, t: float) -> int:
        """Add one server, free at ``t``; returns its (never-reused) id.

        If jobs are waiting, a dispatch is scheduled at the scale instant.
        """
        server = self._next_server
        self._next_server += 1
        self.num_servers += 1
        heapq.heappush(self._idle, (t, server))
        if self._waiting and not self._dispatch_pending:
            self._dispatch_pending = True
            self._sched.schedule(t, _DISPATCH, None, self._dispatch)
        return server

    def scale_down(self, t: float) -> int:
        """Retire one server at ``t``; returns the retired server's id.

        Prefers an *idle* server — the one with the latest
        ``(freed_at, server_id)``, which retires the most recently freed
        server first.  With every server busy the
        highest-id non-draining one **drains**: it finishes the job it
        committed to (the service interval was priced at begin, exactly
        like a dead shard's in-flight work) and leaves the fleet at its
        service end.  ``num_servers`` drops immediately either way — the
        capacity decision applies at the scale instant; :meth:`finalize`
        therefore reports utilization against the *final* fleet size,
        which the autoscaler's server-seconds integral replaces for
        elastic runs.
        """
        if self.num_servers <= 1:
            raise ValueError("cannot scale below one server")
        if self._idle:
            # max() over a list of unique tuples is deterministic; the
            # heap property only pins index 0, so re-heapify after the
            # positional removal.
            victim = max(self._idle)
            self._idle.remove(victim)
            heapq.heapify(self._idle)
            self._retired.add(victim[1])
            self.num_servers -= 1
            return victim[1]
        # Every live server is busy (idle is empty): drain the highest id.
        server = max(s for s in range(self._next_server)
                     if s not in self._retired and s not in self._draining)
        self._draining.add(server)
        self.num_servers -= 1
        return server

    # ------------------------------------------------------------------ #
    def finalize(self) -> SimulationResult:
        """Fold the station's columns into per-offer arrays and aggregate
        statistics — identical formulas to the historical standalone
        queue loop (the byte-identity contract).

        Every offer must be committed or drop-marked exactly once: a job
        the station lost, dropped after serving or committed twice raises
        here instead of skewing the counts.  Every commit's ``finish -
        begin`` must equal its service to :data:`SERVICE_REL_TOL` of it,
        or a ``ValueError`` says that event time lost the precision.
        """
        self.advance(math.inf)      # every commit counts in busy_s
        t_arrive = np.array(self._t_arrive, dtype=np.float64)
        n = len(t_arrive)
        rows = np.fromiter(chain.from_iterable(self._commits), np.float64,
                           5 * len(self._commits)).reshape(-1, 5)
        index = rows[:, 0].astype(np.int64)
        bad = np.flatnonzero(np.bincount(index, minlength=n)
                             + np.array(self._drop_mark, dtype=np.int64) != 1)
        if len(bad):
            raise RuntimeError(
                f"station {self.gid}: offer(s) {bad[:5].tolist()} must be "
                f"served or dropped exactly once")
        begin, finish, served = rows[:, 1:4].T
        off = np.flatnonzero(np.abs(finish - begin - served)
                             > SERVICE_REL_TOL * served)
        if len(off):
            j = off[0]
            raise ValueError(
                f"event time lost precision: a {served[j]:.4g} s service "
                f"at t = {begin[j]:.4g} s spans {finish[j] - begin[j]:.4g} s "
                f"(instants are stream time and window_s over speedup; "
                f"raise speedup)")
        t_begin, t_finish, service = np.full((3, n), np.nan)
        t_begin[index], t_finish[index], service[index] = begin, finish, served
        server = np.full(n, -1, dtype=np.int64)
        server[index] = rows[:, 4]
        makespan = utilization = offered = 0.0
        if len(rows):
            t_first = self._t_arrive[0]
            makespan = max(float(rows[:, 2].max()) - t_first, 0.0)
            utilization = self._busy / (self.num_servers * makespan) \
                if makespan > 0 else (1.0 if self._busy > 0 else 0.0)
            span = self._t_arrive[-1] - t_first
            mean_service = self._busy / len(rows)
            # One job is not an arrival process; it cannot overload.
            if n > 1:
                offered = ((n - 1) / span) * mean_service \
                    / self.num_servers if span > 0 else float("inf")
        return SimulationResult(t_arrive=t_arrive, t_begin=t_begin,
                                t_finish=t_finish, service_s=service,
                                server=server, num_servers=self.num_servers,
                                busy_s=self._busy, makespan_s=makespan,
                                utilization=utilization,
                                offered_load=offered,
                                max_queue_depth=self._max_depth)


# --------------------------------------------------------------------------- #
class LoopOrder:
    """A one-pass run's trace, recorded in the order the event loop fires.

    The pass puts no arrival, deadline, service end or dispatch on the
    loop, so the records those events carry are replayed here from the
    stations' commit rows, keyed as the loop keys them: an arrival
    ``(t, _ARRIVAL, index)``, a service end ``(finish, _END, seq)`` and
    a dispatch ``(freed_at, _DISPATCH, seq)``, where ``seq`` counts what
    the loop schedules in the order it schedules it — an end at its
    job's begin, and a station's dispatch at the first end that frees one
    of its servers while jobs wait (:meth:`ServerGroup._end`).  A
    station's jobs begin in commit order, so its waiting jobs are its
    commits from ``_begun[gid]`` on.  The pass calls :meth:`release` for
    each release, which records everything that precedes it and then the
    flush, :meth:`admit` for each job a station admits, and :meth:`until`
    with no bound once the loop has run, since an ownership plan proposed
    at the last release fires after it.  The :class:`MigrationEvent` row
    the control plane records when a plan fires is already in the loop's
    order: everything at or before its instant preceded the flush that
    proposed it, and the arrivals at that instant follow ``_MIGRATE``.
    """

    def __init__(self, trace: EventTrace, arrivals: ArrivalTrace,
                 stations: int):
        self._trace = trace
        self._arrivals = arrivals
        self._seen = 0                  # arrivals recorded so far
        self._heap: list[tuple] = []    # (t, priority, seq, group, row)
        self._seq = 0
        self._begun = [0] * stations    # per station, commits begun
        self._pending: set[int] = set()     # stations with a dispatch due

    def admit(self, group: ServerGroup, t: float, payload) -> None:
        """:meth:`ServerGroup.admit` on ``group``, and the begin of the
        job it commits, unless that job waits for a dispatch."""
        group.admit(t, payload)
        self._begin(group, t)

    def _begin(self, group: ServerGroup, t: float) -> None:
        """Record the begins of ``group``'s committed jobs not begun yet
        that start by ``t``, and schedule their ends."""
        commits, gid = group._commits, group.gid
        k = self._begun[gid]
        while k < len(commits) and commits[k][1] <= t:
            i, begin, finish, _, srv = row = commits[k]
            self._trace.row(ServiceBeginEvent, begin, gid, srv, i)
            heapq.heappush(self._heap, (finish, _END, self._seq, group, row))
            self._seq += 1
            k += 1
        self._begun[gid] = k

    def release(self, t: float, seen: int, cause: str, windows: int) -> None:
        """Record a flush at ``t``, made once ``seen`` arrivals are
        recorded, and what the loop fires before it."""
        self.until(t, seen)
        self._trace.row(FlushEvent, t, cause, windows)

    def until(self, t: float = math.inf, seen: int | None = None) -> None:
        """Record what the loop fires before a release at ``t``, made
        once ``seen`` arrivals are recorded (all of them by default)."""
        arrivals, heap = self._arrivals, self._heap
        seen = len(arrivals) if seen is None else seen
        while heap and heap[0][0] <= t:
            f, priority, _, group, row = heapq.heappop(heap)
            if self._seen < seen and arrivals.t[self._seen] < f:
                self._record_arrivals(min(seen, int(np.searchsorted(
                    arrivals.t, f, side="left"))))
            gid = group.gid
            if priority == _DISPATCH:
                self._pending.discard(gid)
                self._begin(group, f)
                continue
            self._trace.row(ServiceEndEvent, f, gid, row[4], row[0])
            if self._begun[gid] < len(group._commits) \
                    and gid not in self._pending:
                self._pending.add(gid)
                heapq.heappush(heap, (f, _DISPATCH, self._seq, group, None))
                self._seq += 1
        self._record_arrivals(seen)

    def _record_arrivals(self, stop: int) -> None:
        if stop > self._seen:
            self._trace.arrivals(self._arrivals, self._seen, stop)
            self._seen = stop


# --------------------------------------------------------------------------- #
class BatcherActor:
    """:class:`DynamicBatcher` run online on the event loop.

    The batching rule is the batcher's: :meth:`DynamicBatcher.ends` gives,
    per arrival, where the job it opens ends by size or deadline, and the
    actor reads that table.  With no ``fleet`` (serial ingest) it
    therefore releases exactly :meth:`DynamicBatcher.releases`
    (property-tested), so replays that predate the event core are
    byte-identical and the engine can route a serial run's jobs before
    they are released.  A ``fleet`` (pipelined ingest) adds the
    double-buffered drain trigger: the buffer flushes the moment every
    fleet group is hungry (idle server, empty queue), so batching delay
    is only ever paid while it hides behind in-flight compute.

    Arrivals are admitted in trace order and a flush always drains the
    whole buffer, so on every scheduler the pending buffer is a span
    ``[lo, admitted)`` of the one :class:`ArrivalTrace`, and a flush hands
    the sink ``(t, lo, admitted)``: the job's release instant and span.
    Its deadline fires before any arrival at or past it, so while the
    buffer is pending the next arrival lies before ``end[lo]`` or ends
    the job by size.
    """

    def __init__(self, batcher: DynamicBatcher, sched: EventScheduler,
                 sink: Callable[[float, int, int], None],
                 fleet: Sequence[ServerGroup] = ()):
        self._batcher = batcher
        self.max_delay_s = batcher.max_delay_s
        self._sched = sched
        self._sink = sink
        self._fleet = tuple(fleet)
        self._trace: ArrivalTrace | None = None     # set by start()
        self._end = self._full = None   # DynamicBatcher.ends, by start()
        self._lo = 0            # first pending arrival
        self._admitted = 0      # one past the last pending arrival

    # ------------------------------------------------------------------ #
    def start(self, trace: ArrivalTrace) -> None:
        """Schedule the whole arrival trace onto the loop as one run.

        No per-arrival object exists, traced or not: a tracing
        scheduler's :class:`EventTrace` records the span of the trace each
        cohort consumes.
        """
        self._trace = trace
        self._end, self._full = self._batcher.ends(trace)
        self._sched.schedule_run(trace.t, self._on_cohort)

    def start_releases(self, rel: Releases, order: LoopOrder | None) -> None:
        """Schedule the releases of serial ingest, known up front
        (:meth:`DynamicBatcher.releases`), as the loop's run.

        The one-pass path: no arrival and no deadline reaches the loop.
        ``order`` records a traced run's events in the loop's order; what
        the loop fires after the last release is the caller's to record
        (``order.until()``) once the loop has run.
        """
        columns = (rel.lo.tolist(), rel.hi.tolist(), rel.t.tolist(),
                   rel.cause.tolist(), rel.seen.tolist())
        self._sched.schedule_run(
            rel.t, partial(self._on_releases, columns, order))

    def _on_releases(self, columns: tuple, order: LoopOrder | None,
                     _t: float, start: int, stop: int) -> int:
        """Release jobs ``[start, stop)``.  A release may make the sink
        schedule an event (a control plane's ownership plan, at ``(t,
        _MIGRATE)``) that the cut could not see and that must fire before
        the next release, so the cohort ends at the first release after
        which the scheduler's heap head comes first."""
        lo, hi, release, cause, seen = columns
        pending = self._sched._heap     # where a scheduled event lands
        for j in range(start, stop):
            t = release[j]
            if order is not None:
                order.release(t, seen[j], cause[j], hi[j] - lo[j])
            self._sink(t, lo[j], hi[j])
            if pending and j + 1 < stop \
                    and self._sched.before(release[j + 1]):
                return j + 1 - start
        return stop - start

    def _fleet_hungry(self) -> bool:
        """The drain trigger: every group of a non-empty fleet is hungry."""
        return bool(self._fleet) and all(g.hungry for g in self._fleet)

    def on_hungry(self, t: float) -> None:
        """Fleet-drain notification (wired to groups under pipelined)."""
        if self._admitted > self._lo and self._fleet_hungry():
            self._flush(t, "drain")

    # ------------------------------------------------------------------ #
    def _admit(self, t: float) -> None:
        """Admit the next arrival of the trace, which fires at ``t``."""
        i = self._admitted
        if i > self._lo and i == self._end.item(self._lo):
            # Admitting this arrival would push the buffer past the size
            # cap, so release the buffered job first (only a single
            # oversized arrival can ever produce an oversized job).
            self._flush(t, "size")
        lo = self._lo
        self._admitted = i + 1
        if self._full.item(lo) and i + 1 == self._end.item(lo):
            self._flush(t, "size")
            return
        if self._fleet_hungry():
            # Nothing in flight to hide the delay behind: release now.
            self._flush(t, "drain")
            return
        if self._admitted == len(self._trace) \
                and not math.isfinite(self.max_delay_s):
            # End of stream with an unbounded deadline: the offline
            # reference releases the tail at the last arrival instant.
            self._flush(t, "eos")
            return
        if i == lo and math.isfinite(self.max_delay_s):
            self._schedule_deadline(t + self.max_delay_s)

    def _on_cohort(self, t: float, start: int, stop: int) -> int:
        """Arrival admission; returns how many elements it consumed.

        Consuming more than the head element is valid only while admission
        is *pure buffering* — no flush fires and no event the batcher
        schedules lands inside the consumed span.  The pending job ends at
        ``end[lo]``, before the arrival its deadline precedes or that
        overflows it, or just after the arrival that fills it, so the
        cohort is cut before that arrival: ``end[lo] - full[lo]``.  An
        arrival that reacts at the same instant (a size flush, or any
        arrival into a hungry fleet, which drains) is consumed alone
        through :meth:`_admit`, which is all a cohort of one
        (:class:`HeapEventScheduler`) ever does beyond buffering one
        element.  (Fleet hungriness is frozen during pure buffering —
        nothing fires between cohort elements — so checking it once at
        the cohort head is exact.)  A tracing scheduler gets the span of
        the consumed elements, ahead of whatever their admission records.
        """
        trace, lo = self._trace, self._lo
        limit = start if self._fleet_hungry() \
            else min(stop, self._end.item(lo) - self._full.item(lo))
        consumed = max(limit - start, 1)
        if self._sched.trace is not None:
            self._sched.trace.arrivals(trace, start, start + consumed)
        if limit <= start:
            self._admit(t)          # the head reacts: admit it alone
            return 1
        opens = self._admitted == lo
        self._admitted = limit
        if limit == len(trace) and not math.isfinite(self.max_delay_s):
            self._flush(float(trace.t[limit - 1]), "eos")
        elif opens and math.isfinite(self.max_delay_s):
            # The buffer opened at the head schedules its deadline, an
            # event the scheduler could not see when it cut the cohort;
            # the arrivals at or past it lie at or after ``end[lo]``.
            self._schedule_deadline(t + self.max_delay_s)
        return consumed

    def _schedule_deadline(self, t: float) -> None:
        """Schedule the deadline of the buffer opened at ``_lo``."""
        self._sched.schedule(t, _FLUSH, None,
                             partial(self._on_deadline, self._lo))

    def _on_deadline(self, lo: int, _event) -> None:
        # Every flush moves ``_lo`` past the buffer it drains, so a
        # deadline whose buffer already left by size or drain is stale
        # and does nothing, as the control plane drops a stale plan.
        if lo == self._lo:
            self._flush(self._sched.now, "deadline")

    def _flush(self, t: float, cause: str) -> None:
        lo, self._lo = self._lo, self._admitted
        if self._sched.trace is not None:
            self._sched.trace.row(FlushEvent, t, cause, self._admitted - lo)
        self._sink(t, lo, self._admitted)
