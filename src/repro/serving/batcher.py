"""Deadline-aware dynamic batching across concurrent streams.

The paper's deployment model maps each time window to exactly one batch on
one idle device.  With many tenants that assumption breaks: windows from
independent streams close at interleaved instants, and submitting each one
alone wastes the accelerator's batch parallelism.  The
:class:`DynamicBatcher` coalesces arrivals under a latency deadline — a
flush is triggered by *size* (enough edges buffered to fill the device) or
by *deadline* (the oldest buffered arrival has waited ``max_delay_s``),
whichever comes first.  ``max_delay_s = 0`` degenerates to the paper's
1:1 window-to-batch mapping, which is what the shard-equivalence tests pin
against the single-server replay.

Arrivals travel as one :class:`ArrivalTrace` — struct-of-arrays columns
over the graph's own edge arrays — from
:func:`~repro.serving.engine.make_stream_arrivals` to the flushed
:class:`CoalescedJob`; a :class:`StreamArrival` is what indexing or
iterating the trace hands out.

:class:`DynamicBatcher` is the *policy* (trigger configuration) plus the
offline reference implementation, :meth:`DynamicBatcher.spans`.  The
serving engine runs the same policy online as a
:class:`~repro.serving.events.BatcherActor` on the discrete-event
scheduler — under serial ingest the actor's releases match
:meth:`~DynamicBatcher.spans` exactly (property-tested in ``test_events``
through :meth:`~DynamicBatcher.coalesce`), which is what lets the engine
route every job of an ownership epoch before it is released; under
pipelined ingest the actor adds the double-buffered fleet-drain trigger
that an offline pass cannot express (it depends on in-flight compute).
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..graph.temporal_graph import EdgeBatch

__all__ = ["StreamArrival", "ArrivalTrace", "CoalescedJob", "DynamicBatcher"]


@dataclass(frozen=True)
class StreamArrival:
    """One stream's window closing at stream-time ``t``."""

    t: float
    stream: int
    batch: EdgeBatch

    def __len__(self) -> int:
        return len(self.batch)


class ArrivalTrace(Sequence):
    """A whole arrival process as struct-of-arrays columns.

    The one representation arrivals have between
    :func:`~repro.serving.engine.make_stream_arrivals` and a flushed
    :class:`CoalescedJob`: nothing on the bulk path holds a Python object
    per arrival.  It is still a ``Sequence[StreamArrival]`` — indexing or
    iterating materialises items (as views, nothing is copied) for whoever
    wants them one at a time: the traced per-event path, tests.

    Columns, for ``n`` arrivals:

    ``t``, ``stream``
        ``(n,)`` arrival instant (non-decreasing wherever a consumer
        requires it — the consumers check) and tenant id.
    ``cum``
        ``(n + 1,)`` edge offsets from 0: arrival ``i`` owns
        ``eidx[cum[i]:cum[i + 1]]``.  Slicing the trace slices ``cum``
        without rebasing it, so a slice shares ``eidx`` with its parent.
    ``eidx``
        Per-edge row index into ``edges``, derived here from ``first``
        (each arrival's first row): an arrival's rows are one ascending
        contiguous run (a time window of the graph) by construction,
        which is what lets :meth:`batch` return views of the same rows
        :meth:`merged` gathers.
    ``edges``
        The edge columns the indices point into — for a replayed graph the
        graph's own ``src/dst/t/edge_feat`` arrays.  Holding indices
        rather than per-stream copies keeps a multi-tenant replay's
        features in memory once; :meth:`merged` gathers them once per
        flush.

    Tenants replaying one graph share its windows, so :meth:`batch` hands
    every arrival of a window the same :class:`EdgeBatch` object (one
    memo per trace, shared with its slices).
    """

    __slots__ = ("edges", "t", "stream", "cum", "eidx", "_batches")

    def __init__(self, edges: EdgeBatch, t: np.ndarray, stream: np.ndarray,
                 cum: np.ndarray, first: np.ndarray):
        if not len(t) == len(stream) == len(first) == len(cum) - 1:
            raise ValueError("t, stream, first and cum disagree on the "
                             "number of arrivals")
        self.edges = edges
        self.t = t
        self.stream = stream
        self.cum = cum
        self.eidx = np.repeat(first - cum[:-1], np.diff(cum)) \
            + np.arange(cum[-1])
        self._batches: dict[tuple[int, int], EdgeBatch] = {}

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, i):
        if isinstance(i, slice):
            lo, hi, step = i.indices(len(self.t))
            if step != 1:
                raise ValueError("an ArrivalTrace slice must be contiguous")
            return self.span(lo, max(lo, hi))
        return StreamArrival(t=self.t.item(i), stream=self.stream.item(i),
                             batch=self.batch(i))

    def span(self, lo: int, hi: int) -> "ArrivalTrace":
        """Arrivals ``[lo, hi)`` (``0 <= lo <= hi <= len``) as a zero-copy
        trace: what ``trace[lo:hi]`` returns once its bounds are
        normalised."""
        # Views of columns that are already consistent: no re-derivation.
        part = object.__new__(ArrivalTrace)
        part.edges, part.eidx = self.edges, self.eidx
        part._batches = self._batches
        part.t, part.stream = self.t[lo:hi], self.stream[lo:hi]
        part.cum = self.cum[lo:hi + 1]
        return part

    def __iter__(self):
        # Whole columns to Python scalars at once, not one ``item`` each.
        return map(StreamArrival, self.t.tolist(), self.stream.tolist(),
                   map(self.batch, range(len(self.t))))

    def batch(self, i: int) -> EdgeBatch:
        """Arrival ``i``'s edges, as views of the edge columns."""
        if i < 0:
            i += len(self)
        lo, hi = self.cum.item(i), self.cum.item(i + 1)
        first = self.eidx.item(lo) if hi > lo else 0
        key = (first, hi - lo)
        batch = self._batches.get(key)
        if batch is None:
            batch = self._batches[key] = self._take(
                slice(first, first + hi - lo))
        return batch

    def _take(self, rows) -> EdgeBatch:
        e = self.edges
        return EdgeBatch(src=e.src[rows], dst=e.dst[rows], t=e.t[rows],
                         eid=e.eid[rows], edge_feat=e.edge_feat[rows])

    @property
    def num_edges(self) -> int:
        return int(self.cum[-1] - self.cum[0])

    def _rows(self) -> np.ndarray:
        return self.eidx[self.cum[0]:self.cum[-1]]

    def merged(self) -> EdgeBatch:
        """Every arrival's edges as one chronological batch.

        The items' batches concatenated in arrival order, then stably
        sorted by time (a lone arrival is returned as it stands): one
        gather of the edge columns.
        """
        if len(self) == 1:
            return self.batch(0)
        rows = self._rows()
        return self._take(
            rows[np.argsort(self.edges.t[rows], kind="stable")])

    def job_rows(self, lo: np.ndarray,
                 hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Edge rows of consecutive jobs, from one gather.

        Job ``j`` is arrivals ``[lo[j], hi[j])`` and ``hi[j] == lo[j +
        1]``, as :meth:`DynamicBatcher.spans` returns them.  Returns the
        jobs' rows into ``edges``, each job's in :meth:`merged` order,
        job after job, and the ``(jobs + 1,)`` offsets of each job's rows
        among them.
        """
        bounds = self.cum[np.append(lo, hi[-1:])]
        rows = self.eidx[bounds[0]:bounds[-1]]
        offsets = bounds - bounds[0]
        multi = hi - lo > 1
        if multi.any():
            job = np.repeat(np.arange(len(lo)), np.diff(offsets))
            # A lone arrival keeps its order, as merged() does.
            rows = rows[np.lexsort(
                (np.where(multi[job], self.edges.t[rows], 0.0), job))]
        return rows, offsets

    # ------------------------------------------------------------------ #
    def __eq__(self, other) -> bool:
        """Value equality: same instants, streams, and edge ids per
        arrival."""
        if not isinstance(other, ArrivalTrace):
            return NotImplemented
        return (np.array_equal(self.t, other.t)
                and np.array_equal(self.stream, other.stream)
                and np.array_equal(np.diff(self.cum), np.diff(other.cum))
                and np.array_equal(self.edges.eid[self._rows()],
                                   other.edges.eid[other._rows()]))

    __hash__ = None

    def __repr__(self) -> str:
        span = f", t=[{self.t[0].item()!r}, {self.t[-1].item()!r}]" \
            if len(self) else ""
        return (f"ArrivalTrace(arrivals={len(self)}, "
                f"edges={self.num_edges}{span})")


@dataclass(frozen=True)
class CoalescedJob:
    """A flushed job: its release instant and its arrivals.

    ``sources`` is the job's arrivals in admission order, a zero-copy
    :class:`ArrivalTrace` slice.  Its merged edges are gathered the first
    time ``batch`` is read: a serial routed run takes a job's rows from
    its route plan and never reads it.
    """

    t_release: float
    sources: ArrivalTrace

    @property
    def batch(self) -> EdgeBatch:
        memo = self.__dict__
        if "_batch" not in memo:
            memo["_batch"] = self.sources.merged()
        return memo["_batch"]

    @property
    def n_edges(self) -> int:
        return self.sources.num_edges


class DynamicBatcher:
    """Size- or deadline-triggered coalescing of stream arrivals.

    Parameters
    ----------
    max_edges:
        Device batch capacity.  The buffer is flushed *before* admitting an
        arrival that would push it past this cap (and immediately once it
        reaches the cap), so a coalesced job never exceeds ``max_edges``
        unless a single arrival alone does — that oversized arrival becomes
        its own job.  ``None`` disables the size trigger.
    max_delay_s:
        Flush when the oldest buffered arrival is this old.  ``0`` releases
        every arrival immediately (passthrough).  The default ``None``
        resolves to passthrough when no size trigger is set, and to an
        unbounded deadline when one is — so ``DynamicBatcher(max_edges=N)``
        means size-only batching, not a 0-second deadline that would flush
        before the buffer ever reached N.
    """

    def __init__(self, max_edges: int | None = None,
                 max_delay_s: float | None = None):
        # An integer type keeps NaN, inf and 2.5 out: the size trigger
        # compares edge counts with it.
        if max_edges is not None and not (
                isinstance(max_edges, numbers.Integral) and max_edges > 0):
            raise ValueError("max_edges must be a positive integer")
        if max_delay_s is None:
            max_delay_s = math.inf if max_edges is not None else 0.0
        if not max_delay_s >= 0:    # NaN too
            raise ValueError("max_delay_s must be non-negative")
        self.max_edges = max_edges
        self.max_delay_s = float(max_delay_s)

    def spans(self, trace: ArrivalTrace,
              start: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """Arrival spans ``[lo[j], hi[j])`` of the jobs serial ingest
        releases from arrival ``start`` on, the buffer empty there.

        Between two arrivals the only event that can fire is the pending
        buffer's deadline, so a job opened by arrival ``lo`` ends before
        the first later arrival at or past ``t[lo] + max_delay_s`` (the
        deadline flush precedes it), before the arrival that would push
        the buffer past ``max_edges``, or after the one that reaches it —
        an oversized arrival alone is a job of its own.  One bisect of
        the instants and one of the edge offsets per job.
        """
        t = trace.t
        if np.any(t[1:] < t[:-1]):
            raise ValueError("arrivals must be sorted by time")
        t, cum, n = t.tolist(), trace.cum.tolist(), len(t)
        cap, delay = self.max_edges, self.max_delay_s
        lo, hi = [], []
        i = start
        while i < n:
            end = bisect_left(t, t[i] + delay, i + 1)
            if cap is not None:
                full = cum[i] + cap
                k = bisect_left(cum, full, i + 1)
                end = min(end, k if k <= n and cum[k] == full
                          else max(k - 1, i + 1))
            lo.append(i)
            hi.append(end)
            i = end
        return np.array(lo, dtype=np.int64), np.array(hi, dtype=np.int64)

    def coalesce(self, trace: ArrivalTrace) -> list[CoalescedJob]:
        """Fold a time-sorted trace into released jobs: :meth:`spans`,
        each released at its trigger's instant."""
        lo, hi = self.spans(trace)
        t = trace.t
        last = t[hi - 1]
        deadline = t[lo] + self.max_delay_s
        after = t[np.minimum(hi, len(t) - 1)]
        # A deadline flush precedes the arrival that finds it due, else
        # that arrival overflowed the buffer; the stream's end flushes at
        # the deadline, or at the last arrival when there is none.
        release = np.where(hi < len(t),
                           np.where(after >= deadline, deadline, after),
                           np.where(np.isfinite(deadline), deadline, last))
        if self.max_edges is not None:
            full = trace.cum[hi] - trace.cum[lo] >= self.max_edges
            release = np.where(full, last, release)
        return list(map(CoalescedJob, release.tolist(),
                        map(trace.span, lo.tolist(), hi.tolist())))
