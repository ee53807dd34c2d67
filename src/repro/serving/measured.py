"""Measured backends: real TGNN kernels on the event core.

Every other backend *prices* a batch — it returns a modeled service time
and the event loop advances by that number.  The measured path closes
the model/reality seam: :class:`MeasuredServerGroup` dispatches each
admitted batch to a persistent worker pool running the real numpy
``update_memory``/``embed`` kernels (:meth:`repro.models.tgn.TGNN.
infer_batch`), measures the kernel wall-clock, and reconciles that
duration back into deterministic event time.

The reconciliation contract
---------------------------
Wall clocks and event clocks never mix.  A dispatch at event time ``t``
hands the batch to its shard's worker lane and schedules one *reconcile*
event at ``(t, _END)`` — the highest same-instant priority, so it fires
immediately after the handler that dispatched (by which point every
same-instant shard has dispatched too, and the workers genuinely overlap
on the wall clock).  The reconcile then commits completions **in
dispatch order**: each batch occupies its lane for exactly its measured
duration, starting at ``max(t_dispatch, lane_free)``, and the service
end lands at ``start + measured_s`` on the ordinary event heap.  Event
time therefore stays exact — same-run traces replay through
``repro.analysis.tracecheck`` clean — while the *numbers* flowing
through the queueing model are measured, not modeled.

The worker pool
---------------
``workers=N`` builds ``N`` single-process ``concurrent.futures``
executors (lanes); shard ``s`` is pinned to lane ``s % N``: the lane
receives a copy of the shard's backend at start, so each shard's batches
execute in FIFO order against that worker's persistent
:class:`~repro.models.tgn.ModelRuntime` — the stateful-stream contract
backends rely on.  ``workers=0`` is the in-process fallback: kernels run
inline in the parent (one virtual lane per shard, so no artificial
serialization) — bit-compatible in structure, no subprocess cost.

This module reads no clock.  Every measured duration is the seconds
:meth:`repro.pipeline.SoftwareBackend.compute` returns, in a lane or
inline — the same timed ``infer_batch`` call ``run_engine`` and Table II
use — and the ``wall-clock-in-events`` lint rule keeps it that way.
"""

from __future__ import annotations

import heapq
import numbers
from concurrent.futures import Future, ProcessPoolExecutor
from typing import Any, Callable

from ..pipeline.engine import SoftwareBackend
from .events import (_END, EventScheduler, EventTrace, ServerGroup,
                     ServiceBeginEvent)
from .registry import DEFAULT_REGISTRY

__all__ = ["MeasuredBackend", "MeasuredServerGroup", "WorkerPool"]


# --------------------------------------------------------------------------- #
# Worker-process side.  One process per lane; each shard's backend is
# pinned at pool start and persists across batches (the stateful-stream
# contract: each shard's runtime sees its sub-batches in FIFO order).

_WORKER_SHARDS: dict[int, SoftwareBackend] = {}


def _worker_init(shard: int, backend: SoftwareBackend) -> int:
    """Pin ``shard``'s backend (model, runtime, graph) in this worker."""
    _WORKER_SHARDS[shard] = backend
    return shard


def _worker_compute(shard: int, batch: Any) -> tuple[float, dict[str, float]]:
    return _WORKER_SHARDS[shard].compute(batch)


# --------------------------------------------------------------------------- #
class MeasuredBackend(SoftwareBackend):
    """:class:`~repro.pipeline.SoftwareBackend` on the event core.

    It runs and times the kernels exactly as ``SoftwareBackend`` does
    (its ``compute`` is the one timed ``infer_batch``), whether a worker
    lane or the parent calls it — nondeterministic in the *values*, while
    the structure of a run stays deterministic (see the module docstring).
    ``measured = True`` is the marker the serving engine keys on to build
    a :class:`MeasuredServerGroup` instead of a modeled
    :class:`~repro.serving.events.ServerGroup`.

    ``modeled`` is its stateless pricing companion, the registry's
    ``cpu-32t`` cost model: it never runs in workers, only in the parent,
    to produce the modeled-vs-measured comparison in the report's
    ``measured`` block.
    """

    name = "measured"
    measured = True

    def __init__(self, model: Any, graph: Any):
        super().__init__(model, graph)
        self.modeled = DEFAULT_REGISTRY.create("cpu-32t", model, graph)


# --------------------------------------------------------------------------- #
class WorkerPool:
    """``N`` parallel compute lanes with a deterministic event-time model.

    Two coupled roles:

    * **Wall clock** — ``workers=N`` owns ``N`` single-process
      ``ProcessPoolExecutor`` lanes.  Shard ``s`` always dispatches to
      lane ``s % N``, so one OS process serves each lane and a shard's
      batches execute sequentially against that process's persistent
      runtime.  On a multicore host, distinct lanes genuinely overlap.
    * **Event time** — each lane carries a ``lane_free`` horizon.
      :meth:`begin` starts a job at ``max(ready_t, lane_free)`` and
      :meth:`hold` moves the horizon to the finish its group committed,
      so a lane serializes the service intervals of the shards it runs.
      The horizon is plain event-time arithmetic on measured inputs, so
      ``workers=1`` models one worker shared by all shards (every
      kernel queues behind the previous one) and ``workers>=shards``
      models fully parallel lanes — machine-independently.

    ``workers=0`` keeps no executors (dispatch returns ``None``; the
    caller computes inline) and gives every shard its own virtual lane.
    """

    def __init__(self, workers: int):
        if not (isinstance(workers, numbers.Integral) and workers >= 0):
            raise ValueError("workers must be a non-negative integer")
        self.workers = int(workers)
        self._lanes: list[ProcessPoolExecutor] = []
        self._horizon: dict[int, float] = {}

    def lane_of(self, shard: int) -> int:
        return shard % self.workers if self.workers else shard

    def start(self, backends: dict[int, SoftwareBackend]) -> None:
        """Spin up the lanes and pin each shard's backend in its worker."""
        if not self.workers:
            return
        self._lanes = [ProcessPoolExecutor(max_workers=1)
                       for _ in range(self.workers)]
        inits = [self._lanes[self.lane_of(shard)].submit(
            _worker_init, shard, backend)
            for shard, backend in sorted(backends.items())]
        for fut in inits:
            fut.result()    # surface pickling / worker-boot errors eagerly

    def dispatch(self, shard: int, batch: Any) -> Future | None:
        """Queue real compute on the shard's lane (``None`` in-process)."""
        if not self.workers:
            return None
        return self._lanes[self.lane_of(shard)].submit(
            _worker_compute, shard, batch)

    def begin(self, shard: int, ready_t: float) -> float:
        """When the shard's lane can start a job that is ready at
        ``ready_t``: never before the lane's previous finish."""
        return max(ready_t, self._horizon.get(self.lane_of(shard), ready_t))

    def hold(self, shard: int, finish: float) -> None:
        """The shard's lane is busy until ``finish``."""
        self._horizon[self.lane_of(shard)] = finish

    def shutdown(self) -> None:
        for ex in self._lanes:
            ex.shutdown(wait=True, cancel_futures=True)
        self._lanes = []
        self._horizon = {}


# --------------------------------------------------------------------------- #
class MeasuredServerGroup(ServerGroup):
    """A :class:`~repro.serving.events.ServerGroup` whose service times
    are measured from real kernel executions instead of modeled.

    Drop-in on the event loop: admission, FIFO dispatch, tie-breaking,
    failure injection (``service_factor`` / ``fail``), and finalization
    are all inherited.  Only the begin path changes — ``_begin`` pops
    the server and hands the batch to the worker pool, and the paired
    reconcile event commits the measured duration through the inherited
    :meth:`~repro.serving.events.ServerGroup._commit` (same trace rows,
    same end-event scheduling, same statistics).

    A payload is a tuple whose first item is the :class:`EdgeBatch` to
    execute; ``extra_service(payload)`` prices non-compute seconds
    (mailbox / sync hop costs) into the service exactly like the modeled
    closure does, and ``_commit`` degrades the sum on a slow shard as it
    does a modeled one.  The measured service seconds are the station's
    own service column (:meth:`finalize`); ``samples`` adds the modeled
    seconds of each commit, in commit order, and ``stage_seconds`` the
    per-stage kernel split — the report's ``measured`` block reads all
    three.
    """

    def __init__(self, gid: int, num_servers: int, backend: MeasuredBackend,
                 pool: WorkerPool, sched: EventScheduler,
                 queue_capacity: int | None = None, *,
                 extra_service: Callable[[Any], float]):
        def _never_priced(_payload: Any) -> float:
            raise RuntimeError(
                "MeasuredServerGroup does not draw modeled service times")

        super().__init__(gid, num_servers, _never_priced, sched,
                         queue_capacity=queue_capacity)
        self.backend = backend
        self.pool = pool
        self._extra = extra_service
        self._pending: list[tuple] = []
        self._reconcile_scheduled = False
        self.samples: list[float] = []
        self.stage_seconds: dict[str, float] = {}

    # ------------------------------------------------------------------ #
    def _begin(self, t: float, i: int, payload: Any) -> None:
        """Dispatch the batch to its worker lane; defer the commit.

        Every same-instant sibling dispatch lands before the first
        reconcile fires (the reconcile is scheduled at the current
        instant's ``_END`` priority), so all shards' futures are in
        flight before anyone blocks on a result — that wall-clock
        overlap *is* the parallelism being measured.
        """
        free_t, srv = heapq.heappop(self._idle)
        t_begin = max(free_t, self._t_arrive[i])
        batch = payload[0]
        future = self.pool.dispatch(self.gid, batch)
        self._pending.append((i, srv, t_begin, batch, self._extra(payload),
                              future))
        if not self._reconcile_scheduled:
            self._reconcile_scheduled = True
            self._sched.schedule(self._sched.now, _END, None,
                                 self._reconcile)

    def _reconcile(self, _event: Any) -> None:
        """Commit measured completions in dispatch order, event-exactly."""
        self._reconcile_scheduled = False
        pending, self._pending = self._pending, []
        for i, srv, t_begin, batch, extra_s, future in pending:
            measured_s, stages = self.backend.compute(batch) \
                if future is None else future.result()
            self.pool.hold(self.gid, self._commit(
                i, srv, self.pool.begin(self.gid, t_begin),
                measured_s + extra_s))
            self.samples.append(
                float(self.backend.modeled.process_batch(batch)))
            for stage in sorted(stages):
                self.stage_seconds[stage] = \
                    self.stage_seconds.get(stage, 0.0) + stages[stage]

    def _record_begin(self, trace: EventTrace, row: tuple) -> None:
        if row[0] > self._sched.now:
            # Lane contention pushed the start past the commit instant;
            # recording now would break trace causality, so the begin is
            # recorded by a heap entry that fires at its own instant.
            self._sched.schedule(row[0], _END, None,
                                 lambda _e: trace.row(ServiceBeginEvent, *row))
        else:
            trace.row(ServiceBeginEvent, *row)
