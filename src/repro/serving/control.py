"""The ownership control plane: one sampler, one mask, one plan path.

The paper funnels every vertex-memory write-back through a single Updater,
so chronological order holds by construction instead of being re-checked
at each producer.  :class:`ControlPlane` is the same idea for vertex
*ownership*.  Rebalancing (:mod:`repro.serving.rebalance`), elastic
capacity (:mod:`repro.serving.autoscale`) and failure injection
(:class:`FailureInjector`, below) are **policies**: they read the plane's
samples and propose plans.  The plane, built once per run by the engine,
is the only actor that samples, vets and applies them — which is why the
three compose (DGNN-Booster and FlowGNN likewise treat load shift and
stage stalls as things one runtime absorbs concurrently):

sampler
    :meth:`ControlPlane.observe` takes each released job's arrivals, and
    :attr:`ControlPlane.heat` counts per-vertex heat over them,
    cumulatively, from the endpoint ids of those arrivals — when it is
    read, with one ``bincount`` over the jobs released since the last
    read (the counts are integers, so the order they are folded in never
    shows).  Each policy reads it through its own :class:`Window` (heat
    and per-group busy time since the window opened), so two window
    lengths share one accumulation.  Busy time and queue depth are read
    as of the last release: :meth:`ControlPlane.busy` and
    :meth:`ControlPlane.depth` first move every station to that instant
    (:meth:`~repro.serving.events.ServerGroup.advance`), which matters
    only in a one-pass run, whose stations commit jobs ahead of time.
eligibility
    :meth:`ControlPlane.eligible` is the one answer to "which shard may
    receive ownership": its group is accepting (not dead) and it lies
    inside the autoscaler's active prefix.  Every donor, recipient,
    split/merge target, failover survivor, rebuild fallback and
    fail-back reads it.
plans
    :meth:`ControlPlane.propose` schedules one vertex's ownership move at
    ``(t, _MIGRATE)``, stamped with the owner it was computed against.
    On firing it is **vetted**: if that owner still owns the vertex and
    the target is still eligible it is applied through
    :func:`~repro.serving.memsync.hand_off` and lands
    (:meth:`ControlPlane.land`: logged for its policy, rows priced, one
    :class:`~repro.serving.events.MigrationEvent` in the trace);
    otherwise another policy got there first, and the plan is dropped and
    counted in ``stale`` — it leaves no trace event, so the replayed
    ownership chain stays exactly-once.

Handoff pricing: rows crossing a die cost one hop each (the handoff rides
the mail channel, like a push); the hops are charged to the destination
shard's *next* sub-job (:meth:`ControlPlane.take_hops`), the same way
sync traffic inflates the service time of the job carrying it.
"""

from __future__ import annotations

import math
import numbers
from typing import Sequence

import numpy as np

from .events import (_MIGRATE, FailureEvent, FailurePlan, MigrationEvent,
                     RecoveryEvent, ServerGroup)
from .memsync import HANDOFF_ROWS_PER_VERTEX, fail_over, hand_off

__all__ = ["ControlPlane", "Window", "FailureInjector"]


def check_cooldown(cooldown_windows) -> int:
    """A policy's cooldown as the count of whole windows it is: 1.5
    would be silently cut to 1, and NaN or inf counts nothing."""
    if not (isinstance(cooldown_windows, numbers.Integral)
            and cooldown_windows >= 0):
        raise ValueError("cooldown_windows must be a non-negative integer")
    return int(cooldown_windows)


class Window:
    """One policy's rolling measurement window over the plane's samples.

    The first released job opens it; the job that finds it at least
    ``length_s`` old closes it (:meth:`closes`), the policy evaluates,
    and :meth:`roll` opens the next one at that same instant.
    """

    def __init__(self, plane: "ControlPlane", length_s: float):
        self._plane = plane
        self.length_s = length_s
        self.index = 0
        self.start: float | None = None
        self._mark()

    def _mark(self) -> None:
        self._heat0 = self._plane.heat.copy()
        self._busy0 = self._plane.busy()

    def closes(self, t: float) -> bool:
        if self.start is None:
            self.start = t
        return t - self.start >= self.length_s

    def roll(self, t: float) -> None:
        self.index += 1
        self.start = t
        self._mark()

    @property
    def heat(self) -> np.ndarray:
        """Incident edges per vertex since the window opened."""
        return self._plane.heat - self._heat0

    def util(self, t: float) -> np.ndarray:
        """Per-group utilization over the window closing at ``t``."""
        assert self.start is not None, "no job has opened the window"
        servers = np.array([g.num_servers for g in self._plane.groups])
        return (self._plane.busy() - self._busy0) \
            / ((t - self.start) * servers)


class ControlPlane:
    """Per-run owner of ownership sampling, eligibility and plan apply.

    ``router``/``cache`` are the run's live ownership table and its
    coherence cache; ``groups[s]`` is shard ``s``'s station.  A
    one-station fleet owns everything in one place, so its policies have
    nothing to move (the autoscaler resizes the station instead);
    ``pool_shard`` names the K-server station a rebalancer in drift mode
    promotes out of and demotes into.  Counters: ``proposed`` plans, of
    which ``stale`` were dropped at vetting.
    """

    def __init__(self, sched, groups: Sequence[ServerGroup], router, cache,
                 die_of, rebalancer=None, autoscaler=None, injector=None,
                 pool_shard: int | None = None):
        self.sched = sched
        self.groups = list(groups)
        self.router = router
        self.cache = cache
        self.die_of = die_of
        self.pool_shard = pool_shard
        self._heat = np.zeros(router.num_nodes, dtype=np.int64)
        self._unread: list = []         # arrivals not yet in ``_heat``
        self._now = -math.inf           # the last release observed
        self.pending_hops = [0] * len(self.groups)
        self.proposed = self.stale = 0
        self._scaler = autoscaler
        self.policies = tuple(p for p in (autoscaler, rebalancer, injector)
                              if p is not None)
        # Scale decisions propose first: a same-instant rebalancer plan
        # they overtake is vetted against the resized fleet.  The
        # injector acts on its own schedule, not on released jobs.
        self._observers = [p for p in self.policies if p is not injector]
        for policy in self.policies:
            policy.start(self)

    def _stations(self) -> list[ServerGroup]:
        """Every group, moved to the last observed release."""
        for g in self.groups:
            g.advance(self._now)
        return self.groups

    def busy(self) -> np.ndarray:
        """Per-group busy seconds as of the last observed release."""
        return np.array([g.busy_s for g in self._stations()])

    def depth(self) -> np.ndarray:
        """Per-group waiting jobs as of the last observed release."""
        return np.array([g.queue_depth for g in self._stations()])

    @property
    def heat(self) -> np.ndarray:
        """Incident edges per vertex over every job observed so far.

        The jobs observed since the last read are counted here, with one
        ``bincount``: every job of a run is a span of its one arrival
        trace, so they share its edge columns.  Read it, do not write it.
        """
        if self._unread:
            edges = self._unread[0].edges
            rows = np.concatenate([s.rows() for s in self._unread])
            self._unread.clear()
            self._heat += np.bincount(
                np.concatenate((edges.src[rows], edges.dst[rows])),
                minlength=len(self._heat))
        return self._heat

    def observe(self, t: float, sources) -> None:
        """Sample one released job, then let the policies react.

        ``sources`` is the job's arrivals, a span of the run's one
        :class:`~repro.serving.batcher.ArrivalTrace`.  It is kept
        until :attr:`heat` is read, which needs only their endpoint ids,
        read off the edge columns without gathering the job's merged
        batch.
        """
        self._now = t
        self._unread.append(sources)
        for policy in self._observers:
            policy.observe(t, sources)

    def eligible(self) -> np.ndarray:
        """Boolean mask of the shards that may receive ownership now."""
        active = len(self.groups) if self._scaler is None \
            else self._scaler.fleet_size
        return np.array([g.accepting and s < active
                         for s, g in enumerate(self.groups)])

    # ------------------------------------------------------------------ #
    def propose(self, policy, t: float, vertex: int, to_shard: int,
                reason: str) -> None:
        """Schedule moving ``vertex`` from its current owner to
        ``to_shard``; vetted when it fires (see the module docstring)."""
        self.proposed += 1
        plan = (policy, t, int(vertex), int(self.router.assignment[vertex]),
                int(to_shard), reason)
        # Scheduled without an event: only an applied plan is traced.
        self.sched.schedule(t, _MIGRATE, None, lambda _e: self._fire(*plan))

    def _fire(self, policy, t, vertex, from_shard, to_shard, reason) -> None:
        if self.router.assignment[vertex] != from_shard \
                or not self.eligible()[to_shard]:
            self.stale += 1
            return
        hand_off(self.router, self.cache, [vertex], from_shard, to_shard)
        self.land(policy, t, vertex, from_shard, to_shard,
                  HANDOFF_ROWS_PER_VERTEX, reason)

    def land(self, policy, t: float, vertex: int, from_shard: int,
             to_shard: int, rows: int, reason: str,
             source: int | None = None) -> None:
        """Account one ownership change that has been applied: log it
        for ``policy``, price ``rows`` from ``source`` (default: the old
        owner), and record the trace's :class:`MigrationEvent`."""
        ev = MigrationEvent(t, vertex, from_shard, to_shard, rows, reason)
        policy.migration_log.append(ev)
        policy.handoff_rows += rows
        source = from_shard if source is None else source
        if self.die_of is not None \
                and self.die_of[source] != self.die_of[to_shard]:
            self.pending_hops[to_shard] += rows
        self.sched.record(ev)

    def take_hops(self, shard: int) -> int:
        """Handoff hops owed by ``shard``'s next sub-job (then cleared)."""
        hops, self.pending_hops[shard] = self.pending_hops[shard], 0
        return hops


# --------------------------------------------------------------------------- #
class FailureInjector:
    """Chaos-schedule policy: turns :class:`FailurePlan`\\ s into events.

    Each plan schedules a :class:`FailureEvent` (and, when ``recover_at``
    is set, a :class:`RecoveryEvent`) at ``_MIGRATE`` priority — the
    failure decided at ``t`` applies before the next same-instant flush
    routes.

    A **slow** failure sets the shard's service-time factor; recovery
    resets it.  A **dead** failure fail-stops the :class:`ServerGroup`
    (queued jobs drop, in-service jobs complete) and evacuates ownership
    onto the plane's eligible shards at that instant
    (:func:`~repro.serving.memsync.fail_over`): replicated vertices
    promote their lowest live replica for free — the replica already
    holds the full state — while unreplicated vertices are rebuilt by
    memsync replay from peers, billed ``HANDOFF_ROWS_PER_VERTEX`` rows
    each from a deterministic source (the lowest surviving shard with a
    current copy per the run's coherence cache, else the lowest eligible
    shard).  With no eligible shard left the outage is total: ownership
    stays put and the shard's windows drop until it recovers.  Recovery
    **proposes** the ownership snapshot's way home as ``"fail-back"``
    plans — vetted like any other, so a vertex that moved again
    meanwhile, or a shard merged away while it was down, is not raced.
    Every applied change lands as a :class:`MigrationEvent`
    (``"promote"`` / ``"rebuild"`` / ``"fail-back"``), so the trace
    replays a complete, exactly-once ownership history across the
    failover.
    """

    def __init__(self, plans):
        if isinstance(plans, FailurePlan):
            plans = [plans]
        self.plans = tuple(plans)
        if not self.plans:
            raise ValueError("need at least one FailurePlan")
        for p in self.plans:
            if not isinstance(p, FailurePlan):
                raise TypeError(f"plans must be FailurePlan, got {type(p)}")
        ordered = sorted(self.plans, key=lambda p: (p.shard, p.fail_at))
        for a, b in zip(ordered, ordered[1:]):
            if a.shard == b.shard and (a.recover_at is None
                                       or b.fail_at <= a.recover_at):
                raise ValueError(
                    f"outages of shard {a.shard} overlap: it fails again "
                    f"at {b.fail_at} before recovering from {a.fail_at}")

    @property
    def chaos(self) -> str:
        """Report tag: the single mode in play, or ``"mixed"``."""
        modes = {p.mode for p in self.plans}
        return modes.pop() if len(modes) == 1 else "mixed"

    @property
    def recovery_rows(self) -> int:
        """State rows moved by rebuilds and fail-backs."""
        return self.handoff_rows

    def start(self, plane: ControlPlane) -> None:
        """Attach to one run: reset the counters, schedule the plans."""
        n = len(plane.groups)
        # The scaler started first, so its active prefix (not the padded
        # slot count) is what a dead shard's vertices could evacuate to.
        lone = plane.eligible().sum() < 2
        for p in self.plans:
            if p.shard >= n:
                raise ValueError(f"failure shard {p.shard} out of range "
                                 f"for {n} shards")
            if p.mode == "dead" and lone:
                raise ValueError("a dead-replica failure needs a survivor")
        self._plane = plane
        self.failures = self.recoveries = 0
        self.promoted_vertices = self.rebuilt_vertices = 0
        self.handoff_rows = 0
        self.migration_log: list[MigrationEvent] = []
        self._closed_outages: list[tuple[float, float]] = []
        self._open_outage: dict[int, float] = {}
        self._owned_at_failure: dict[int, np.ndarray] = {}
        for p in self.plans:
            plane.sched.schedule(p.fail_at, _MIGRATE,
                                 FailureEvent(p.fail_at, p.shard, p.mode,
                                              p.degradation),
                                 self._on_fail)
            if p.recover_at is not None:
                plane.sched.schedule(p.recover_at, _MIGRATE,
                                     RecoveryEvent(p.recover_at, p.shard,
                                                   p.mode),
                                     self._on_recover)

    def outage_intervals(self) -> list[tuple[float, float]]:
        """Outage windows ``[fail, recover)``; unrecovered ones run open."""
        return self._closed_outages + [(t0, float("inf"))
                                       for t0 in self._open_outage.values()]

    # ------------------------------------------------------------------ #
    def _on_fail(self, ev: FailureEvent) -> None:
        plane = self._plane
        self.failures += 1
        self._open_outage[ev.shard] = ev.t
        group = plane.groups[ev.shard]
        if ev.mode == "slow":
            group.service_factor = ev.degradation
            return
        group.fail()
        live = plane.eligible()         # the dead group just left it
        if not live.any():
            return
        self._owned_at_failure[ev.shard], promoted, rebuilt, peers = \
            fail_over(plane.router, plane.cache, ev.shard, live)
        self.promoted_vertices += len(promoted)
        self.rebuilt_vertices += len(rebuilt)
        owner = plane.router.assignment
        for x in promoted.tolist():
            plane.land(self, ev.t, x, ev.shard, int(owner[x]), 0, "promote")
        # A rebuild with no surviving current copy is modeled to read from
        # the lowest eligible shard: the durable-log replay still costs a
        # transfer.
        fallback = int(live.argmax())
        for x, peer in zip(rebuilt.tolist(), peers.tolist()):
            plane.land(self, ev.t, x, ev.shard, int(owner[x]),
                       HANDOFF_ROWS_PER_VERTEX, "rebuild",
                       source=peer if peer >= 0 else fallback)

    def _on_recover(self, ev: RecoveryEvent) -> None:
        plane = self._plane
        self.recoveries += 1
        self._closed_outages.append((self._open_outage.pop(ev.shard), ev.t))
        plane.groups[ev.shard].restore()
        # Only a dead failure left a snapshot.  Promoted vertices keep
        # their interim owner as a holder.
        owner = plane.router.assignment
        for x in self._owned_at_failure.pop(ev.shard, ()):
            if owner[x] != ev.shard:
                plane.propose(self, ev.t, x, ev.shard, "fail-back")
