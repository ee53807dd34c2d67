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
:func:`~repro.serving.engine.make_stream_arrivals` to a released job, a
span of it; a :class:`StreamArrival` is what indexing or iterating the
trace hands out.

:class:`DynamicBatcher` is the *policy* (trigger configuration) and the
one batching rule: :meth:`DynamicBatcher.ends` finds, for every arrival
at once, where the job it opens ends by size or deadline, and
:meth:`DynamicBatcher.releases` chains those ends into the jobs serial
ingest releases, with when and why each is released.  The serving
engine runs the policy online as a
:class:`~repro.serving.events.BatcherActor` on the discrete-event
scheduler, which reads the same table — so under serial ingest the
actor's releases are :meth:`~DynamicBatcher.releases` exactly
(property-tested in ``test_events`` through
:meth:`~DynamicBatcher.coalesce`), which is what lets the engine route a
run's jobs before they are released and serve a run in which nothing
reacts to a service end as one pass over them; under pipelined ingest
the actor adds the double-buffered fleet-drain trigger that an offline
pass cannot express (it depends on in-flight compute).
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..graph.temporal_graph import EdgeBatch

__all__ = ["StreamArrival", "ArrivalTrace", "JobRows", "CoalescedJob",
           "DynamicBatcher"]


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
    :func:`~repro.serving.engine.make_stream_arrivals` and a released job,
    which is a span of it: nothing on the bulk path holds a Python object
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

    def rows(self) -> np.ndarray:
        """Every arrival's edge rows into ``edges``, in arrival order."""
        return self.eidx[self.cum[0]:self.cum[-1]]

    def merged(self) -> EdgeBatch:
        """Every arrival's edges as one chronological batch.

        The items' batches concatenated in arrival order, then stably
        sorted by time (a lone arrival is returned as it stands): one
        gather of the edge columns.
        """
        if len(self) == 1:
            return self.batch(0)
        rows = self.rows()
        return self._take(
            rows[np.argsort(self.edges.t[rows], kind="stable")])

    def job_rows(self, lo: np.ndarray,
                 hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Edge rows of consecutive jobs, from one gather.

        Job ``j`` is arrivals ``[lo[j], hi[j])`` and ``hi[j] == lo[j +
        1]``, as :meth:`DynamicBatcher.releases` returns them.  Returns the
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
                and np.array_equal(self.edges.eid[self.rows()],
                                   other.edges.eid[other.rows()]))

    __hash__ = None

    def __repr__(self) -> str:
        span = f", t=[{self.t[0].item()!r}, {self.t[-1].item()!r}]" \
            if len(self) else ""
        return (f"ArrivalTrace(arrivals={len(self)}, "
                f"edges={self.num_edges}{span})")


class JobRows:
    """Arrivals ``[lo, hi)`` of an :class:`ArrivalTrace` as one job batch,
    read on demand.

    It answers what :meth:`ArrivalTrace.merged` returns for that span,
    but ``len`` is the edge count its maker already holds, and the
    columns come from one :meth:`~ArrivalTrace.merged` gather, taken the
    first time any column is read and kept.  A pricing backend reads
    ``len`` only, so a priced job gathers nothing.  Pickled (a measured
    worker lane), a view is that :class:`EdgeBatch`, never the trace.
    """

    __slots__ = ("_trace", "_lo", "_hi", "_n", "_batch")

    def __init__(self, trace: ArrivalTrace, lo: int, hi: int, n_edges: int):
        self._trace, self._lo, self._hi, self._n = trace, lo, hi, n_edges
        self._batch = None

    def __len__(self) -> int:
        return self._n

    def merged(self) -> EdgeBatch:
        """The job's :meth:`ArrivalTrace.merged` batch: gathered on the
        first call, then kept."""
        if self._batch is None:
            self._batch = self._trace.span(self._lo, self._hi).merged()
        return self._batch

    @property
    def src(self) -> np.ndarray:
        return self.merged().src

    @property
    def dst(self) -> np.ndarray:
        return self.merged().dst

    @property
    def t(self) -> np.ndarray:
        return self.merged().t

    @property
    def eid(self) -> np.ndarray:
        return self.merged().eid

    @property
    def edge_feat(self) -> np.ndarray:
        return self.merged().edge_feat

    # The interleaved (src, dst) endpoint ids: EdgeBatch's own property.
    nodes = EdgeBatch.nodes

    def __reduce__(self):
        return EdgeBatch, (self.src, self.dst, self.t, self.eid,
                           self.edge_feat)


@dataclass(frozen=True)
class CoalescedJob:
    """A job :meth:`DynamicBatcher.coalesce` releases: its release instant
    and its arrivals.

    ``sources`` is the job's arrivals in admission order, a zero-copy
    :class:`ArrivalTrace` slice; ``batch`` gathers their merged edges
    when read.  (The engine's batcher hands its sink the span bounds
    instead: a one-shard run hands its station the job as a
    :class:`JobRows` view, and a routed run takes a job's rows from its
    route plan.)
    """

    t_release: float
    sources: ArrivalTrace

    @property
    def batch(self) -> EdgeBatch:
        return self.sources.merged()

    @property
    def n_edges(self) -> int:
        return self.sources.num_edges


class Releases(NamedTuple):
    """The jobs serial ingest releases, as columns: job ``j`` is arrivals
    ``[lo[j], hi[j])``, flushed at ``t[j]`` for ``cause[j]``
    (``"deadline"``, ``"size"`` or ``"eos"``) once ``seen[j]`` arrivals
    have reached the batcher (``hi[j] + 1`` when arrival ``hi[j]``
    overflowed the buffer, else ``hi[j]``)."""

    lo: np.ndarray
    hi: np.ndarray
    t: np.ndarray
    cause: np.ndarray
    seen: np.ndarray


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

    def ends(self, trace: ArrivalTrace) -> tuple[np.ndarray, np.ndarray]:
        """Where the job each arrival opens ends, for every arrival at once:
        that job is arrivals ``[i, end[i])``, and ``full[i]`` says whether
        its last arrival fills the buffer to ``max_edges`` (and flushes
        it) rather than handing over to the next job.

        Between two arrivals the only event that can fire is the pending
        buffer's deadline, so a job opened by arrival ``i`` ends before
        the first later arrival at or past ``t[i] + max_delay_s`` (the
        deadline flush precedes it), before the arrival that would push
        the buffer past ``max_edges``, or after the one that reaches it —
        an oversized arrival alone is a job of its own.  That end is
        searched for in the instants and in the edge offsets.
        """
        t = trace.t
        if not np.all(t[1:] >= t[:-1]):         # NaN is not sorted either
            raise ValueError("arrivals must be sorted by time")
        n = len(t)
        after = np.arange(1, n + 1)
        end = np.maximum(np.searchsorted(t, t + self.max_delay_s), after)
        if self.max_edges is None:
            return end, np.zeros(n, dtype=bool)
        cum = trace.cum
        cap = cum[:-1] + self.max_edges
        k = np.maximum(np.searchsorted(cum, cap), after)
        reached = (k <= n) & (cum[np.minimum(k, n)] == cap)
        end = np.minimum(end, np.where(reached, k, np.maximum(k - 1, after)))
        return end, cum[end] - cum[:-1] >= self.max_edges

    def releases(self, trace: ArrivalTrace) -> Releases:
        """Every job serial ingest releases from a time-sorted trace: the
        chain of :meth:`ends` from arrival 0, the instant and cause of
        each job's trigger, and how many arrivals the event loop has
        recorded when it fires.  The buffer is empty where each job
        starts, so the jobs from there on are the ones a trace starting
        there releases."""
        end, full = self.ends(trace)
        t = trace.t
        n = len(t)
        starts, i, end_of = [], 0, end.item
        while i < n:
            starts.append(i)
            i = end_of(i)
        lo = np.array(starts, dtype=np.int64)
        hi, full = end[lo], full[lo]
        last = t[hi - 1]
        deadline = t[lo] + self.max_delay_s
        after = t[np.minimum(hi, n - 1)]
        # The arrival that fills the buffer flushes it.  Otherwise a
        # deadline flush precedes the arrival that finds it due, else that
        # arrival overflowed the buffer (and is recorded before the flush
        # it triggers); the stream's end flushes at the deadline, or at
        # the last arrival when there is none.
        due = after >= deadline
        bounded = np.isfinite(deadline)
        release = np.where(full, last, np.where(
            hi < n, np.where(due, deadline, after),
            np.where(bounded, deadline, last)))
        cause = np.where(full, "size", np.where(
            hi < n, np.where(due, "deadline", "size"),
            np.where(bounded, "deadline", "eos")))
        return Releases(lo, hi, release, cause, hi + ((hi < n) & ~due & ~full))

    def coalesce(self, trace: ArrivalTrace) -> list[CoalescedJob]:
        """Fold a time-sorted trace into released jobs: :meth:`releases`
        as :class:`CoalescedJob` objects."""
        lo, hi, release, _, _ = self.releases(trace)
        return list(map(CoalescedJob, release.tolist(),
                        map(trace.span, lo.tolist(), hi.tolist())))
