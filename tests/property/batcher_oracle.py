"""The online batcher as it was before it read :meth:`DynamicBatcher.ends`.

:class:`~repro.serving.events.BatcherActor` now takes the end of every
pending job from the table :meth:`~repro.serving.DynamicBatcher.ends`
computes once per trace.  Before, it re-derived the size, deadline and
passthrough triggers one arrival at a time: :meth:`OracleBatcherActor.
_admit`, :meth:`OracleBatcherActor._on_cohort` and
:func:`_first_reaching` below are those bodies, verbatim.  The engine
differential in ``tests/property/test_ingest_properties.py`` patches this
class in for the actor and requires the same report bytes, the same
traced events and the same scheduler counters.  Not collected; import it
as ``from tests.property.batcher_oracle import OracleBatcherActor``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.serving.events import BatcherActor


def _first_reaching(a: np.ndarray, lo: int, hi: int, x: float) -> int:
    """The first ``i`` in ``[lo, hi)`` with ``a[i] >= x``, else ``hi``.

    ``a`` is sorted and ``lo < hi``.  Most cohorts are cut at their head
    or just after it, so those two elements are compared before anything
    is searched.
    """
    if a[lo] >= x:
        return lo
    if hi - lo == 1 or a[lo + 1] >= x:
        return lo + 1
    return lo + int(np.searchsorted(a[lo:hi], x, side="left"))


class OracleBatcherActor(BatcherActor):
    """:class:`BatcherActor` with the per-arrival trigger searches."""

    def __init__(self, batcher, sched, sink, fleet=()):
        super().__init__(batcher, sched, sink, fleet)
        self.max_edges = batcher.max_edges

    def _admit(self, t: float) -> None:
        """Admit the next arrival of the trace, which fires at ``t``."""
        cum = self._trace.cum
        i = self._admitted
        # Overflow guard: admitting this arrival would push the buffer past
        # the size cap, so release the buffered job first (only a single
        # oversized arrival can ever produce an oversized job).
        if self.max_edges is not None and i > self._lo \
                and cum[i + 1] - cum[self._lo] > self.max_edges:
            self._flush(t, "size")
        first = i == self._lo
        self._admitted = i + 1
        if self.max_edges is not None \
                and cum[i + 1] - cum[self._lo] >= self.max_edges:
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
        if first and math.isfinite(self.max_delay_s):
            self._schedule_deadline(t + self.max_delay_s)

    def _on_cohort(self, t: float, start: int, stop: int) -> int:
        """Arrival admission; returns how many elements it consumed.

        Consuming more than the head element is valid only while admission
        is *pure buffering* — no flush fires and no event the batcher
        schedules lands inside the consumed span.  An arrival that could
        react at the same instant (a passthrough deadline, a drain flush,
        a size trigger) is consumed alone through :meth:`_admit`, which is
        all a cohort of one (:class:`HeapEventScheduler`) ever does beyond
        buffering one element.  A tracing scheduler gets the span of the
        consumed elements, ahead of whatever their admission records.
        """
        trace = self._trace
        pending_empty = self._admitted == self._lo
        opens = pending_empty and math.isfinite(self.max_delay_s)
        limit = stop
        if (pending_empty and self.max_delay_s == 0.0) \
                or self._fleet_hungry():
            # Passthrough deadline or hungry-fleet drain: the head flushes
            # the moment it is admitted.  (Fleet hungriness is frozen
            # during pure buffering — nothing fires between cohort
            # elements — so checking it once at the cohort head is exact.)
            limit = start
        else:
            if opens:
                # Admitting the head opens the buffer and schedules a
                # deadline flush at t + max_delay_s — an event the
                # scheduler could not see when it cut the cohort.
                # Arrivals at or past the deadline instant (the head too,
                # when the deadline cannot move the clock) wait behind the
                # _FLUSH-priority release.
                deadline = t + self.max_delay_s
                limit = _first_reaching(trace.t, start, stop, deadline)
            if self.max_edges is not None and limit > start:
                # Pure buffering holds the buffer strictly below the size
                # cap; the element whose admission reaches (or overflows)
                # it triggers a flush, so the cut stops just before it.
                # Element k triggers iff cum[k + 1] - cum[lo] >= max_edges.
                limit = _first_reaching(
                    trace.cum, start + 1, limit + 1,
                    self.max_edges + int(trace.cum[self._lo])) - 1
        consumed = max(limit - start, 1)
        if self._sched.trace is not None:
            self._sched.trace.arrivals(trace, start, start + consumed)
        if limit <= start:
            self._admit(t)          # the head reacts: admit it alone
            return 1
        self._admitted = limit
        if limit == len(trace) and not math.isfinite(self.max_delay_s):
            self._flush(float(trace.t[limit - 1]), "eos")
        elif opens:
            self._schedule_deadline(deadline)
        return consumed
