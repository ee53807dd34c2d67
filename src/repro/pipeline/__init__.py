"""Streaming inference engines and real-time replay.

Engine backend protocol
-----------------------
Every replay entry point here — and the serving layer in
:mod:`repro.serving` — drives backends through one duck-typed contract:

``process_batch(batch: EdgeBatch) -> float``
    Process one chronological edge batch and return its *service time in
    seconds*: measured wall-clock for :class:`SoftwareBackend`, simulated
    for :class:`SimulatedFPGABackend`, a linear price for
    :class:`LinearCostBackend` (the calibrated CPU-32T / GPU cost models
    are two of its instances).  Calls arrive in stream order, and
    implementations may advance functional vertex state as a side effect —
    callers must therefore never reuse one backend instance across
    independent replays (or shards) unless they intend shared state.

    A backend either executes or prices, never both:

    ===================================================  ================
    executes the kernels, advances a ``ModelRuntime``    ``software``,
                                                         ``measured``
    prices from batch shape: no kernel, no vertex state  ``u200``/``zcu104``
                                                         (simulated FPGA);
                                                         ``cpu-32t``/``gpu``
                                                         and ``linear-cost``
                                                         (one linear price)
    ===================================================  ================

    Nothing in :mod:`repro.serving` reads a backend's vertex state (the
    exact functional replay of a sharded fleet is the tests' oracle,
    ``ShardedRuntime`` in ``tests/property/sharded_oracle.py``), so a
    caller that wants embeddings or warm state next to a priced latency
    keeps its own ``model.new_runtime(graph)``, as
    ``examples/fraud_detection.py`` does.

    A pricing backend reads ``len(batch)`` (the simulated FPGA also its
    endpoint ids ``src``/``dst``).  Every batch the serving engine hands
    a backend is a row view that gathers a column only when it is read:
    a routed sub-batch is a view of its route plan
    (:class:`~repro.serving.router.PlanRows`), and a one-station job
    (a pool, or one shard) a view of its arrivals
    (:class:`~repro.serving.batcher.JobRows`).  So only an executing
    backend moves edge data.

``name: str`` (optional)
    Label used in reports; falls back to the class name.

``measured: bool`` (optional)
    Serve this backend on measured time.  ``measured = True`` is carried
    by :class:`repro.serving.MeasuredBackend`, which *is* a
    :class:`SoftwareBackend`: the serving engine pins a picklable copy of
    each shard's backend in a persistent worker pool
    (:class:`repro.serving.WorkerPool`, one process lane per worker),
    calls its :meth:`SoftwareBackend.compute` there instead of
    ``process_batch`` inline, and reconciles the seconds back into
    deterministic event time (:mod:`repro.serving.measured`).  Modeled
    backends simply omit the attribute.

Capacity contract
-----------------
How many backend instances serve at once is a *fleet* property, not a
backend one: :class:`repro.serving.CapacityConfig` validates integral
counts at construction and derives ``global_capacity = micro_batch ×
replicas`` (the ``BatchConfig`` idiom), and the serving engine's
autoscaler resizes ``replicas`` within ``[min_replicas, max_replicas]``
mid-run without ever changing a backend's per-call contract — each
instance still sees stream-ordered ``process_batch`` calls for the
vertices it currently owns.  Backends therefore never need to know the fleet is elastic;
state that must follow ownership moves travels through the memsync
version cache, not through the backend.

New backends need no registration to work with these functions; to be
constructible by name (per serving shard, from the CLI), add a factory to
:class:`repro.serving.BackendRegistry`.
"""

from .engine import (EngineReport, LinearCostBackend,  # noqa: F401
                     SimulatedFPGABackend, SoftwareBackend, run_engine)
from .realtime import (FIFTEEN_MINUTES, WindowPoint,  # noqa: F401
                       realtime_replay, summarize)

__all__ = [
    "EngineReport", "SoftwareBackend", "SimulatedFPGABackend",
    "LinearCostBackend", "run_engine",
    "realtime_replay", "WindowPoint", "FIFTEEN_MINUTES", "summarize",
]
