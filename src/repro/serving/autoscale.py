"""SLO-driven elastic capacity: resize the serving fleet mid-run.

Rebalancing (:mod:`repro.serving.rebalance`) moves load across a *fixed*
fleet; production serving resizes the fleet itself.  This module is the
policy for that: an :class:`AutoScaler` observes windowed
p95 response latency against an SLO band and schedules
:class:`~repro.serving.events.ScaleEvent`\\ s on the same discrete-event
scheduler every other actor runs on — a capacity change is just another
event, applied at ``_MIGRATE`` priority so a decision made at ``t``
takes effect before the next same-instant flush routes.

Two fleet shapes, one controller
--------------------------------
*One station* (a plane with a single group — the pool): the K stateless
replicas behind the shared queue grow and shrink through
:meth:`~repro.serving.events.ServerGroup.scale_up` /
:meth:`~repro.serving.events.ServerGroup.scale_down`.  A new replica is
free at the scale instant; a retired replica drains its committed job
before leaving.

*Sharded* (several one-server groups): the fleet is a fixed array of
``CapacityConfig.max_replicas`` one-server shard stations of which the
first ``fleet_size`` are *active* (stack discipline — the active set is
always ``[0, fleet_size)``).  A scale-up activates the next station and
**splits** the hottest active shard's measured-hot vertices into it; a
scale-down **merges** the highest active shard's vertices onto the
coolest survivor.  Both are proposed to the run's
:class:`~repro.serving.control.ControlPlane` as per-vertex plans
(reasons ``"split"`` / ``"merge"``,
:data:`~repro.serving.memsync.HANDOFF_ROWS_PER_VERTEX` rows per
vertex priced through ``mail_hop_s``), which vets them and moves
ownership through :func:`~repro.serving.memsync.hand_off` so version
counters stay exact across the change — post-split ``--memsync push``
replays stay bit-identical to the unsharded runtime, exactly as they do
across a rebalancer migration.  A merged-away shard owns nothing, so the
router never sends it another sub-job.  The active prefix is one half of
the plane's eligibility mask (the other is "not dead"), so donors and
merge targets are live shards only, and no other policy hands vertices
to a slot the scaler has not activated.

Capacity accounting follows the BatchConfig idiom:
:class:`CapacityConfig` holds the integral fleet counts, validated at
construction, and derives ``global_capacity = micro_batch x replicas``;
the controller's fleet bounds (``min_replicas`` / ``max_replicas``) live
there too.  The SLO band has hysteresis built in: scale up when window p95
exceeds ``slo_p95_s``, scale down only when it falls to
``low_band_frac * slo_p95_s`` or below — plus a post-decision cooldown,
the same anti-ping-pong guards the rebalancer uses.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .control import ControlPlane, Window, check_cooldown
from .events import _MIGRATE, MigrationEvent, ScaleEvent, sorted_percentile
from .memsync import HANDOFF_ROWS_PER_VERTEX

__all__ = ["AutoScaler", "CapacityConfig"]


@dataclass(frozen=True)
class CapacityConfig:
    """Fleet capacity in controller units, validated at construction.

    ``micro_batch`` is the edges one server admits per dispatch (the
    batcher's size trigger, or 1 for passthrough); ``replicas`` is the
    *initial* fleet size, bounded by ``min_replicas``/``max_replicas``
    for the life of the run.  All four are counts: a non-integral one is
    a configuration bug, caught here, not a runtime surprise.
    """

    micro_batch: int
    replicas: int
    max_replicas: int
    min_replicas: int = 1

    def __post_init__(self):
        for name in ("micro_batch", "replicas", "max_replicas",
                     "min_replicas"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer")
        if self.micro_batch <= 0:
            raise ValueError("micro_batch must be positive")
        if self.min_replicas <= 0:
            raise ValueError("min_replicas must be positive")
        if not self.min_replicas <= self.replicas <= self.max_replicas:
            raise ValueError(
                f"replicas must satisfy min_replicas <= replicas <= "
                f"max_replicas, got {self.min_replicas} / {self.replicas} "
                f"/ {self.max_replicas}")

    @property
    def global_capacity(self) -> int:
        """The BatchConfig identity: ``micro_batch x replicas``."""
        return self.micro_batch * self.replicas


class AutoScaler:
    """Watches windowed p95 latency against an SLO; resizes the fleet.

    Construct once with the policy knobs; each run's
    :class:`~repro.serving.control.ControlPlane` calls :meth:`start`
    (resetting all per-run state and wiring :meth:`record_response` to
    every group's ``on_serviced`` hook) and :meth:`observe` for every
    released job.  Decisions are scheduled as
    :class:`~repro.serving.events.ScaleEvent`\\ s, applied here when they
    fire, plus — in sharded mode — ``"split"`` / ``"merge"`` plans
    proposed to the plane, which vets, applies and prices them and
    appends each applied :class:`~repro.serving.events.MigrationEvent`
    to ``migration_log``.

    Parameters
    ----------
    capacity:
        The fleet's :class:`CapacityConfig` — initial size, bounds,
        micro-batch units.
    slo_p95_s:
        The SLO: window p95 response above this scales up (one server
        per decision).
    scale_window_s:
        Rolling measurement window in event-loop seconds.  Only
        responses *completed* inside the window feed the percentile —
        the controller never peeks at in-flight futures.
    low_band_frac:
        The band's lower edge as a fraction of ``slo_p95_s``: p95 at or
        below ``low_band_frac * slo_p95_s`` scales down.  The gap
        between the edges is the hysteresis dead band.
    cooldown_windows:
        After any scale decision, this many windows (a non-negative
        integer) must close before the next decision — capacity changes
        need a window of settled measurements before they can be judged.
    """

    def __init__(self, capacity: CapacityConfig, slo_p95_s: float,
                 scale_window_s: float, low_band_frac: float = 0.5,
                 cooldown_windows: int = 1):
        if not isinstance(capacity, CapacityConfig):
            raise TypeError(f"capacity must be a CapacityConfig, "
                            f"got {type(capacity).__name__}")
        # Both are written to the report, which is strict JSON: NaN and
        # inf are rejected here, not at ``to_json``.
        if not 0 < slo_p95_s < math.inf:
            raise ValueError("slo_p95_s must be positive and finite")
        if not 0 < scale_window_s < math.inf:
            raise ValueError("scale_window_s must be positive and finite")
        if not 0.0 <= low_band_frac < 1.0:
            raise ValueError("low_band_frac must be in [0, 1)")
        self.capacity = capacity
        self.slo_p95_s = float(slo_p95_s)
        self.scale_window_s = float(scale_window_s)
        self.low_band_frac = float(low_band_frac)
        self.cooldown_windows = check_cooldown(cooldown_windows)

    # ------------------------------------------------------------------ #
    def start(self, plane: ControlPlane) -> None:
        """Attach to one run's control plane, resetting all per-run state.

        The fleet's shape selects the mode: a single group is resized in
        place (``capacity.replicas`` servers to start with); several are
        the ``max_replicas`` one-server stations of a sharded fleet,
        resized by ownership splits/merges.  The capacity config is the
        controller's source of truth for the initial fleet, so a fleet
        that disagrees with it is rejected here.
        """
        groups, router = plane.groups, plane.router
        self._resize = len(groups) == 1
        if self._resize:
            if groups[0].num_servers != self.capacity.replicas:
                raise ValueError(
                    f"the station has {groups[0].num_servers} servers but "
                    f"capacity.replicas is {self.capacity.replicas}")
        else:
            if len(groups) != self.capacity.max_replicas:
                raise ValueError(
                    f"sharded autoscaling needs one station per fleet "
                    f"slot: {self.capacity.max_replicas} groups, got "
                    f"{len(groups)} (use padded_hash_placement to size "
                    f"the router to match)")
            if router.placement.replicated_vertices:
                raise ValueError(
                    "sharded autoscaling requires an unreplicated "
                    "placement: a replica on a merged-away shard would "
                    "keep receiving its vertices' mail")
            if len(router.assignment) and \
                    int(router.assignment.max()) >= self.capacity.replicas:
                raise ValueError(
                    "initial assignment references a shard outside the "
                    "initial active set [0, capacity.replicas)")
        self._plane = plane
        self._window = Window(plane, self.scale_window_s)
        self.initial_servers = self.capacity.replicas
        self.fleet_size = self.capacity.replicas
        self._pending: list[tuple[float, float]] = []   # (finish, response)
        self._cooldown_until = 0
        self.scale_log: list[ScaleEvent] = []
        self.migration_log: list[MigrationEvent] = []
        self.handoff_rows = 0
        for g in groups:
            g.on_serviced = self.record_response

    @property
    def scale_ups(self) -> int:
        return len([ev for ev in self.scale_log if ev.kind == "up"])

    @property
    def scale_downs(self) -> int:
        return len([ev for ev in self.scale_log if ev.kind == "down"])

    # ------------------------------------------------------------------ #
    def record_response(self, t_finish: float, response_s: float) -> None:
        """Latency feed, wired to the groups' ``on_serviced`` hook.

        Samples are recorded at commit time but carry their finish
        instant; a window's percentile only sees responses that have
        actually completed by the window close.
        """
        self._pending.append((float(t_finish), float(response_s)))

    def observe(self, t: float, sources=None) -> None:
        """One released job (already sampled by the plane; its arrivals
        ``sources`` are unread): evaluate the band at window close."""
        if self._window.closes(t):
            self._evaluate(t)
            self._window.roll(t)

    # ------------------------------------------------------------------ #
    def _evaluate(self, t: float) -> None:
        done = [r for f, r in self._pending if f <= t]
        self._pending = [(f, r) for f, r in self._pending if f > t]
        if not done:
            return          # nothing completed: no evidence either way
        if self._window.index < self._cooldown_until:
            return          # inside the post-decision cooldown
        p95 = sorted_percentile(np.sort(np.asarray(done)), 95)
        if p95 > self.slo_p95_s \
                and self.fleet_size < self.capacity.max_replicas:
            self._scale(t, "up", "slo-breach")
        elif p95 <= self.low_band_frac * self.slo_p95_s \
                and self.fleet_size > self.capacity.min_replicas:
            self._scale(t, "down", "slo-slack")

    def _scale(self, t: float, kind: str, reason: str) -> None:
        plane = self._plane
        moves: np.ndarray | tuple = ()
        target = -1
        if self._resize:
            shard = plane.groups[0].gid
        else:
            # Up activates the next slot; down drains the highest one.
            shard = self.fleet_size if kind == "up" else self.fleet_size - 1
            live = plane.eligible()
            if not live[:shard].any():
                return      # no live station to split from / merge onto
            util = self._window.util(t)
            owner = plane.router.assignment
            if kind == "up":
                # Donor = hottest live station by window utilization.
                target = shard
                donor = int(np.argmax(np.where(live, util, -np.inf)))
                moves = self._split_half(np.flatnonzero(owner == donor))
            else:
                # Everything the drained station owns moves onto the
                # coolest live survivor (utilization ascending, id
                # breaking ties).  Owning nothing, the drained station
                # never receives another sub-job from the router's split.
                target = int(np.argmin(np.where(live, util, np.inf)[:shard]))
                moves = np.flatnonzero(owner == shard)
        after = self.fleet_size + (1 if kind == "up" else -1)
        ev = ScaleEvent(t=t, kind=kind, shard=int(shard),
                        servers_before=self.fleet_size, servers_after=after,
                        rows=len(moves) * HANDOFF_ROWS_PER_VERTEX,
                        reason=reason)
        # The ScaleEvent is scheduled first, the split/merge plans after
        # it at the same (t, _MIGRATE) key: seq order guarantees the
        # fleet-size change lands before the ownership moves (so the new
        # slot is eligible when they are vetted), and all of it before
        # the next same-instant flush routes.
        plane.sched.schedule(t, _MIGRATE, ev, self._apply_scale)
        self.scale_log.append(ev)
        for v in moves:
            plane.propose(self, t, v, target,
                          "split" if kind == "up" else "merge")
        self._cooldown_until = self._window.index + 1 + self.cooldown_windows

    def _split_half(self, owned: np.ndarray) -> np.ndarray:
        """The hotter half of a donor's measured-hot vertices (heat
        descending, vertex id breaking ties — deterministic)."""
        heat = self._window.heat
        hot = owned[heat[owned] > 0]
        if len(hot):
            order = np.lexsort((hot, -heat[hot]))
            return hot[order][:(len(hot) + 1) // 2]
        # No measured heat this window: split the ownership evenly by
        # id so the new station still takes half the future load.
        return owned[:(len(owned) + 1) // 2]

    # ------------------------------------------------------------------ #
    def _apply_scale(self, ev: ScaleEvent) -> None:
        if ev.servers_before != self.fleet_size:
            raise RuntimeError(
                f"scale event expected a fleet of {ev.servers_before} but "
                f"found {self.fleet_size}: fleet size changed between "
                f"decision and application")
        self.fleet_size = ev.servers_after
        if self._resize:
            group = self._plane.groups[0]
            if ev.kind == "up":
                group.scale_up(ev.t)
            else:
                group.scale_down(ev.t)
        # Sharded stations are fixed one-server groups: activation and
        # drain are purely ownership matters, applied by the split/merge
        # plans proposed right behind this event.

    # ------------------------------------------------------------------ #
    def report_block(self, t0: float, makespan_s: float) -> dict:
        """The ``ServingReport.scaling`` block for one finished run.

        ``server_seconds`` is the piecewise-constant integral of the
        active fleet size over ``[t0, t0 + makespan_s]`` replayed from
        the scale log (stable loop accumulation, in event order) — the
        quantity the diurnal bench compares against static peak
        provisioning (``peak_servers * makespan``).  A scaled-up replica
        is free at once, so ``cold_start_s`` is always ``0.0``.
        """
        end = t0 + makespan_s
        fleet = self.initial_servers
        peak = fleet
        prev_t = t0
        server_seconds = 0.0
        for ev in self.scale_log:
            cut = min(max(float(ev.t), t0), end)
            server_seconds += fleet * (cut - prev_t)
            prev_t = cut
            fleet = ev.servers_after
            peak = max(peak, fleet)
        server_seconds += fleet * max(end - prev_t, 0.0)
        mean = server_seconds / makespan_s if makespan_s > 0 \
            else float(fleet)
        return {"autoscale": "slo-p95",
                "slo_p95_s": self.slo_p95_s,
                "scale_window_s": self.scale_window_s,
                "low_band_frac": self.low_band_frac,
                "micro_batch": self.capacity.micro_batch,
                "global_capacity": self.capacity.global_capacity,
                "cold_start_s": 0.0,
                "min_servers": self.capacity.min_replicas,
                "max_servers": self.capacity.max_replicas,
                "initial_servers": self.initial_servers,
                "final_servers": self.fleet_size,
                "peak_servers": peak,
                "mean_servers": mean,
                "server_seconds": server_seconds,
                "scale_ups": self.scale_ups,
                "scale_downs": self.scale_downs,
                "handoff_rows": self.handoff_rows}
