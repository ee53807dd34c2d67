"""Online rebalancing: mid-run vertex migration with priced state handoff.

:class:`~repro.serving.placement.LoadAwareRebalance` is *two-pass*:
profile a whole run, compute a better placement, redeploy, replay.  Under
live traffic that reacts a full run too late — hot sets drift mid-stream
(FlowGNN and DGNN-Booster both treat load shifts as a runtime concern, not
a compile-time one), and by the time the profile is in, the shard it would
have unloaded has already melted.  The unified event core makes the online
alternative natural: a placement change is just another event actors can
react to.

:class:`OnlineRebalancer` is that policy.  The run's
:class:`~repro.serving.control.ControlPlane` calls :meth:`observe` for
every released job; the rebalancer reads per-vertex heat and per-shard
busy time off its rolling :class:`~repro.serving.control.Window`, and when
the window closes it decides migrations and **proposes** them to the
plane at the current instant.  The plane vets each plan when it fires
and applies it through :func:`~repro.serving.memsync.hand_off`, the one
ownership flip every controller shares:

* the :class:`~repro.serving.router.ShardRouter` reassigns the vertex —
  jobs routed from now on follow the new ownership, while sub-jobs already
  submitted complete under the old one (a real handoff drains in-flight
  work the same way);
* the :class:`~repro.serving.memsync.VersionedMemoryCache` transfers
  ownership: the new owner receives the current rows (stamped with the
  current version, so it is never spuriously stale) and the old owner
  becomes an up-to-date mirror — version counters stay exact across the
  change, which is what keeps post-migration ``--memsync push`` replays
  bit-identical to the unsharded runtime;
* the state handoff — the vertex's memory row plus its neighbor-table
  slice, :data:`HANDOFF_ROWS_PER_VERTEX` rows — is priced through the same
  ``mail_hop_s`` die-crossing machinery as
  :class:`~repro.serving.events.SyncEvent` traffic (the engine charges the
  hops to the destination shard's next sub-job).

The elastic :class:`~repro.serving.autoscale.AutoScaler` and the
:class:`~repro.serving.control.FailureInjector` propose through the same
plane, so all three run together: donors and recipients are drawn from
the plane's eligible shards only (never a dead shard or an inactive
elastic slot), and a plan another policy overtook is dropped at vetting
instead of raced.

Decision modes
--------------
*Sharded* (``pool_shard=None``): overload-driven.  A shard whose
window utilization exceeds ``util_threshold`` donates its hottest window
vertices to the coolest shard, greedily, until the modeled utilization
falls below the threshold or the per-window migration cap is hit.  A
donor must lead the recipient by more than :data:`HYSTERESIS`
utilization (moving between near-equal shards just churns state).

*Hybrid* (``pool_shard`` = the pool pseudo-shard): drift-driven.  A pool
vertex whose window heat reaches :data:`PROMOTE_HEAT` migrates pool ->
the least-loaded dedicated shard (``"heat-up"``); a dedicated-shard
vertex whose window heat falls to :data:`DEMOTE_HEAT` or below migrates
back to the pool (``"cool-down"``).  The dead band between the two is
the hysteresis that stops boundary vertices from oscillating.

Convergence guards (the chaos suite pins both): at most
:data:`MAX_MIGRATIONS_PER_WINDOW` migrations per window, and a migrated
vertex is frozen for ``cooldown_windows`` windows — a pathological trace
whose hot set flips every window cannot ping-pong vertices back and
forth.

Under a stationary workload the rebalancer is a no-op: no shard crosses
the threshold, no vertex crosses the band, zero migrations — so every
queueing statistic of a rebalancer-enabled run is identical to the plain
engine's (asserted in ``test_rebalance`` and, at tier-2 scale, in
``test_queueing_theory``).
"""

from __future__ import annotations

import math

import numpy as np

from .control import ControlPlane, Window, check_cooldown
from .events import MigrationEvent

__all__ = ["OnlineRebalancer"]

# Hard cap on migrations per window (both modes): the convergence bound
# the chaos tests assert.
MAX_MIGRATIONS_PER_WINDOW = 8
# Sharded mode: the donor-minus-recipient utilization gap below which no
# move happens.
HYSTERESIS = 0.05
# Hybrid mode band: a pool vertex with at least PROMOTE_HEAT incident
# edges in the window is promoted, a dedicated-shard vertex with at most
# DEMOTE_HEAT is demoted.
PROMOTE_HEAT = 8
DEMOTE_HEAT = 1


class OnlineRebalancer:
    """Watches shard load over a rolling window; migrates vertices mid-run.

    Construct once with the policy knobs; each run's
    :class:`~repro.serving.control.ControlPlane` calls :meth:`start`
    (resetting all per-run state) and :meth:`observe` for every released
    job.  Decisions are proposed to the plane, which vets, applies and
    prices them and appends each applied
    :class:`~repro.serving.events.MigrationEvent` to ``migration_log``.

    Parameters
    ----------
    window_s:
        Rolling measurement window, in event-loop seconds (positive and
        finite).  Heat and busy counters reset every window; decisions
        happen at window close.
    util_threshold:
        Sharded mode: donate off shards whose window utilization exceeds
        this (positive and finite).
    cooldown_windows:
        A migrated vertex may not migrate again for this many windows (a
        non-negative integer) — the anti-ping-pong guard.

    Every migration prices
    :data:`~repro.serving.memsync.HANDOFF_ROWS_PER_VERTEX` rows — the
    same count the functional oracle's ``ShardedRuntime.migrate``
    (``tests/property/sharded_oracle.py``) records, so the timing report
    and the functional model never disagree on the handoff bill.
    """

    def __init__(self, window_s: float, util_threshold: float = 0.75,
                 cooldown_windows: int = 2):
        # A window that never closes would never let the policy act.
        if not 0 < window_s < math.inf:     # NaN too
            raise ValueError("window_s must be positive and finite")
        # A threshold of inf is never exceeded: the policy would never act.
        if not 0 < util_threshold < math.inf:   # NaN too
            raise ValueError("util_threshold must be positive and finite")
        self.window_s = float(window_s)
        self.util_threshold = float(util_threshold)
        self.cooldown_windows = check_cooldown(cooldown_windows)

    # ------------------------------------------------------------------ #
    def start(self, plane: ControlPlane) -> None:
        """Attach to one run's control plane, resetting all per-run
        state.  ``plane.pool_shard`` switches hybrid drift mode on."""
        self._plane = plane
        self._window = Window(plane, self.window_s)
        self._frozen_until: dict[int, int] = {}
        self.migration_log: list[MigrationEvent] = []
        self.migrations_per_window: list[int] = []
        self.handoff_rows = 0

    @property
    def migrations(self) -> int:
        return len(self.migration_log)

    @property
    def migrated_vertices(self) -> int:
        """Distinct vertices that moved at least once this run."""
        return len({ev.vertex for ev in self.migration_log})

    # ------------------------------------------------------------------ #
    def observe(self, t: float, sources) -> None:
        """One released job (already sampled by the plane; its arrivals
        ``sources`` are unread): evaluate at window close."""
        if self._window.closes(t):
            evaluate = self._evaluate_overload \
                if self._plane.pool_shard is None else self._evaluate_drift
            self.migrations_per_window.append(
                evaluate(t, self._window.util(t), self._window.heat))
            self._window.roll(t)

    # ------------------------------------------------------------------ #
    def _movable(self, v: int) -> bool:
        """Not inside its post-migration cooldown.  Replicated vertices
        move too: :meth:`~repro.serving.router.ShardRouter.migrate`
        keeps the old owner a holder, so copies are never orphaned."""
        return self._frozen_until.get(int(v), -1) <= self._window.index

    def _propose(self, t: float, v: int, to_shard: int, reason: str) -> None:
        # Freeze at decision time so one window never double-moves a
        # vertex; the cooldown counts from the *next* window.
        self._frozen_until[int(v)] = self._window.index + 1 \
            + self.cooldown_windows
        self._plane.propose(self, t, v, to_shard, reason)

    # ------------------------------------------------------------------ #
    def _evaluate_overload(self, t: float, util: np.ndarray,
                           window_heat: np.ndarray) -> int:
        """Sharded mode: donate the hottest window vertices off the
        hottest overloaded shard onto the coolest eligible shard.
        Returns the number of moves proposed."""
        plane = self._plane
        live = plane.eligible()
        if live.sum() < 2:
            return 0        # a lone shard has nowhere to donate: no-op
        depth = plane.depth()
        hot = (util > self.util_threshold) & live
        if not hot.any():
            return 0
        donor = int(np.argmax(np.where(hot, util, -np.inf)))
        others = [s for s in np.flatnonzero(live).tolist() if s != donor]
        recipient = min(others, key=lambda s: (util[s], depth[s], s))
        if util[donor] - util[recipient] <= HYSTERESIS:
            return 0
        heat = np.where(plane.router.assignment == donor, window_heat, 0)
        donor_heat = int(heat.sum())
        if donor_heat <= 0:
            return 0
        # Hottest-first, vertex id breaking ties — deterministic.
        order = np.lexsort((np.arange(len(heat)), -heat))
        est_donor, est_recipient = float(util[donor]), float(util[recipient])
        moved = 0
        for v in order:
            if moved >= MAX_MIGRATIONS_PER_WINDOW:
                break
            if heat[v] <= 0:
                break                       # only measured-hot vertices move
            if not self._movable(v):
                continue
            # Model the move by heat share; never leave the recipient
            # worse than the donor started (the termination rule
            # LoadAwareRebalance uses, applied online).
            delta = float(util[donor]) * heat[v] / donor_heat
            if est_recipient + delta >= float(util[donor]):
                continue
            self._propose(t, v, recipient, "overload")
            est_donor -= delta
            est_recipient += delta
            moved += 1
            if est_donor <= self.util_threshold:
                break
        return moved

    def _evaluate_drift(self, t: float, util: np.ndarray,
                        heat: np.ndarray) -> int:
        """Hybrid mode: promote heating pool vertices onto eligible
        dedicated shards, demote cooled dedicated-shard vertices into the
        pool (while it is eligible).  Returns the number of moves
        proposed."""
        pool = self._plane.pool_shard
        live = self._plane.eligible()
        assignment = self._plane.router.assignment
        hot_shards = [s for s in np.flatnonzero(live).tolist() if s != pool]
        # Least-loaded-first target selection, tracked across this
        # window's promotions so a burst spreads instead of stacking.
        load = {s: float(util[s]) for s in hot_shards}
        in_pool = np.flatnonzero(assignment == pool)
        pool_heat = max(int(heat[in_pool].sum()), 1)
        # Cool-downs first: they free dedicated-shard capacity that the
        # promotions behind them immediately want.
        on_hot = np.flatnonzero(assignment != pool)
        cooled = on_hot[heat[on_hot] <= DEMOTE_HEAT] if live[pool] \
            else on_hot[:0]
        heated = in_pool[heat[in_pool] >= PROMOTE_HEAT] if hot_shards \
            else in_pool[:0]
        heated = heated[np.lexsort((heated, -heat[heated]))]
        moved = 0
        for v in (*cooled, *heated):
            if moved >= MAX_MIGRATIONS_PER_WINDOW:
                break
            if not self._movable(v):
                continue
            if assignment[v] != pool:
                self._propose(t, v, pool, "cool-down")
            else:
                target = min(hot_shards, key=lambda s: (load[s], s))
                self._propose(t, v, target, "heat-up")
                load[target] += float(util[pool]) * heat[v] / pool_heat
            moved += 1
        return moved
