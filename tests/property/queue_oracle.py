"""A single FIFO station on the event core, fed hand-built arrivals.

The serving engine reaches :class:`~repro.serving.events.ServerGroup`
through its batcher and router; :func:`simulate_queue` drives one group
directly from ``(t_arrive, payload)`` pairs, one heap entry per arrival
(the lane before cohort dispatch).  The equivalence suite in
``tests/unit/test_events.py`` holds it to the historical standalone queue
loop, and the tier-2 suite in ``tests/unit/test_queueing_theory.py`` holds
it to closed-form M/M/1 and M/M/c results.  :func:`replay` is the same
one server reached the way a command reaches it, through a one-shard
:class:`~repro.serving.ServingEngine`.  Not collected; import them as
``from tests.property.queue_oracle import replay, simulate_queue``.

Accounting contracts of the group it runs:

* **Utilization** is busy time over ``num_servers * makespan`` where the
  makespan extends to the *last service completion*, not the last arrival.
* **Queue capacity** bounds the *waiting* jobs only; the job in service
  does not count against the ingest buffer.
* **Stability** is judged by offered load (arrival rate × mean service /
  servers), which stays meaningful when the trace ends with a backlog and
  utilization saturates at 1.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.serving import ServingEngine
from repro.serving.events import (_ARRIVAL, EventScheduler, ServerGroup,
                                  SimulationResult)


def simulate_queue(arrivals: Sequence[tuple[float, Any]],
                   service_fn: Callable[[Any], float],
                   num_servers: int = 1,
                   queue_capacity: int | None = None) -> SimulationResult:
    """Run ``arrivals`` through ``num_servers`` identical FIFO servers.

    ``arrivals`` are ``(t_arrive, payload)`` pairs in non-decreasing time
    order.  ``service_fn`` is called once per *admitted* job, in admission
    order, and returns the service time in seconds; dropped jobs are never
    serviced.  ``queue_capacity`` is the most jobs that may wait (``None``:
    unbounded); an arrival finding the buffer full is dropped.
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


def replay(backend, graph, **run) -> SimulationResult:
    """One stream through one server: a one-shard engine's only shard."""
    return ServingEngine([backend], graph.num_nodes).run(
        graph, **run).shard_stats[0]
