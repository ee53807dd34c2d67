"""Multi-server FIFO queue simulation — a façade over the event core.

Historically this module owned a standalone arrival-driven loop; the loop
now lives in :mod:`repro.serving.events` as a :class:`ServerGroup` actor on
the shared :class:`EventScheduler`, so one queue implementation serves the
single-queue replay, the sharded engine, the replica pool, and the hybrid
topology alike.  :func:`simulate_queue` keeps its exact historical
contract (same :class:`SimulationResult` fields, same tie-breaking, same
``service_fn`` call order — property-tested against a reference
implementation in ``tests/unit/test_events.py``):

* **Utilization** is busy time over ``num_servers * makespan`` where the
  makespan extends to the *last service completion*, not the last arrival.
* **Queue capacity** bounds the *waiting* jobs only; the job in service
  does not count against the ingest buffer.
* **Stability** is judged by offered load (arrival rate × mean service /
  servers), which stays meaningful when the trace ends with a backlog and
  utilization saturates at 1.

Service times come from a caller-supplied ``service_fn`` invoked in
admission order, so the backends that advance functional vertex state as a
side effect (``SoftwareBackend``, ``MeasuredBackend`` — see the engine
protocol in :mod:`repro.pipeline`; every other backend only prices) see the
stream in the same order a real deployment would.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from .events import (_ARRIVAL, EventScheduler, ServedJob, ServerGroup,
                     SimulationResult)

__all__ = ["ServedJob", "SimulationResult", "simulate_queue"]


def simulate_queue(arrivals: Sequence[tuple[float, Any]],
                   service_fn: Callable[[Any], float],
                   num_servers: int = 1,
                   queue_capacity: int | None = None) -> SimulationResult:
    """Run ``arrivals`` through ``num_servers`` identical FIFO servers.

    Parameters
    ----------
    arrivals:
        ``(t_arrive, payload)`` pairs in non-decreasing time order.
    service_fn:
        Called once per *admitted* job, in admission order, returning the
        service time in seconds.  Dropped jobs are never serviced, so
        functional side effects match what a bounded ingest buffer admits.
    num_servers:
        Identical servers pulling from one FIFO queue (K accelerators, or
        the dies of a multi-die part treated as independent workers).
    queue_capacity:
        Maximum *waiting* jobs; an arrival finding the buffer full is
        dropped.  ``None`` means unbounded.
    """
    arr = list(arrivals)
    if not all(arr[i][0] <= arr[i + 1][0] for i in range(len(arr) - 1)):
        raise ValueError("arrivals must be sorted by time")

    sched = EventScheduler()
    group = ServerGroup(0, num_servers, service_fn, sched,
                        queue_capacity=queue_capacity)
    for t, payload in arr:
        sched.schedule(t, _ARRIVAL, None, lambda _e, _t=t, _p=payload:
                       group.submit(_t, _p))
    sched.run()
    return group.finalize()
