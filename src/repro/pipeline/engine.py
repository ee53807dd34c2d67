"""Streaming inference engines over a common backend interface.

One protocol (``process_batch -> latency seconds``), two disjoint sides.

**Executing** backends own a :class:`~repro.models.tgn.ModelRuntime` and run
``TGNN.infer_batch``:

* :class:`SoftwareBackend` — runs the model body under ``no_grad`` and
  reports *measured* wall-clock per batch (this is the "1 CPU thread" system of
  Table II; its speedups across the model ladder are real measurements, not
  models).  :meth:`SoftwareBackend.compute` is the one place a kernel is
  timed: :class:`repro.serving.MeasuredBackend` is this class with a
  serving marker, and its worker lanes call the same ``compute``.

**Pricing** backends hold no runtime and can never call a kernel; their
latency depends on the batch's shape alone:

* :class:`SimulatedFPGABackend` — wraps :class:`FPGAAccelerator`; each batch
  arrives at an idle accelerator (the real-time deployment assumption);
* :class:`LinearCostBackend` — an exact ``overhead + N * per_edge`` price:
  with a calibrated :class:`~repro.perf.gpp.GPPCostModel`'s two terms it
  is the CPU-32T / GPU substitution (the registry's ``cpu-32t``/``gpu``),
  and with hand-set ones it isolates queueing/placement effects from
  cost-model shape in tests and benchmarks.

For embeddings or warm vertex state beside a priced latency, keep your own
``model.new_runtime(graph)`` (as ``examples/fraud_detection.py`` does).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from ..graph.batching import iter_fixed_size
from ..graph.temporal_graph import EdgeBatch, TemporalGraph
from ..hw.accelerator import FPGAAccelerator
from ..models.tgn import TGNN, ModelRuntime

__all__ = ["EngineReport", "SoftwareBackend", "SimulatedFPGABackend",
           "LinearCostBackend", "run_engine"]


class LinearCostBackend:
    """An exact ``overhead_s + len(batch) * per_edge_s`` price.

    No functional state and no model.  The registry's ``cpu-32t`` and
    ``gpu`` backends are this price with the two terms of a calibrated
    :class:`~repro.perf.gpp.GPPCostModel` taken once (its batch overhead,
    and the per-edge marginal of the model's op counts), so each price is
    :meth:`GPPCostModel.latency_s`'s float expression, bit for bit.  The
    placement/pool tests and benchmarks build one directly to compare
    queue topologies on known service times without cost-model noise.
    """

    def __init__(self, per_edge_s: float = 1e-3, overhead_s: float = 0.0,
                 name: str = "linear-cost"):
        if not (0 <= per_edge_s < math.inf and 0 <= overhead_s < math.inf):
            raise ValueError("per_edge_s and overhead_s must be finite "
                             "and >= 0")
        self.per_edge_s = float(per_edge_s)
        self.overhead_s = float(overhead_s)
        self.name = name

    def process_batch(self, batch: EdgeBatch) -> float:
        n = len(batch)
        if n <= 0:
            raise ValueError("a priced batch needs at least one edge")
        return self.overhead_s + n * self.per_edge_s


@dataclass
class EngineReport:
    """Aggregate outcome of streaming a range of edges through a backend."""

    backend: str
    n_edges: int
    total_latency_s: float
    batch_latencies_s: list[float]
    stage_time_s: dict[str, float] = field(default_factory=dict)

    @property
    def throughput_eps(self) -> float:
        return self.n_edges / self.total_latency_s \
            if self.total_latency_s > 0 else 0.0

    @property
    def mean_latency_s(self) -> float:
        return float(np.mean(self.batch_latencies_s)) \
            if self.batch_latencies_s else 0.0


class SoftwareBackend:
    """Measured single-thread ``infer_batch`` (the deployment entry point).

    It prepares the model, then builds its runtime, so the kernel it times
    is the float32 deployment (``TGNN.prepare_inference``): float32 memory,
    mailbox, edge features, tables and weights, the word ``hw/`` prices.

    A serving engine hands it row views, not gathered batches, so the
    first column read falls inside :meth:`compute`'s timed region: for a
    one-station job (:class:`~repro.serving.batcher.JobRows`) the job's
    one stable sort by time and its column gathers, for a routed sub-job
    (:class:`~repro.serving.router.PlanRows`) its feature rows' ``take``.
    (A measured worker lane receives a view pickled as the gathered
    :class:`EdgeBatch`, so there the gather happens before it.)
    """

    name = "cpu-1t-measured"

    def __init__(self, model: TGNN, graph: TemporalGraph):
        self.model = model
        self.graph = graph
        model.prepare_inference()
        self.rt: ModelRuntime = model.new_runtime(graph)
        self.timings: dict[str, float] = {}

    def compute(self, batch: EdgeBatch) -> tuple[float, dict[str, float]]:
        """Run the kernels on one batch: (wall seconds, stage split)."""
        stages: dict[str, float] = {}
        t0 = time.perf_counter()
        self.model.infer_batch(batch, self.rt, self.graph, timings=stages)
        return time.perf_counter() - t0, stages

    def process_batch(self, batch: EdgeBatch) -> float:
        seconds, stages = self.compute(batch)
        for stage, s in stages.items():
            self.timings[stage] = self.timings.get(stage, 0.0) + s
        return seconds


class SimulatedFPGABackend:
    """Accelerator-simulator backend; each batch starts from idle.

    The price is :meth:`FPGAAccelerator.batch_latency`: a batch of at most
    ``hw.nb`` edges (every sub-job a sharded fleet routes is one) is
    simulated once per distinct ``(edges, distinct endpoints)`` and
    replayed from the accelerator's table after that; it reads the
    batch's length and endpoint ids only.
    """

    def __init__(self, accelerator: FPGAAccelerator, graph: TemporalGraph):
        self.acc = accelerator
        self.graph = graph
        self.name = f"fpga-{accelerator.hw.platform.name}"

    def process_batch(self, batch: EdgeBatch) -> float:
        return self.acc.batch_latency(batch)


def run_engine(backend, graph: TemporalGraph, batch_size: int,
               start: int = 0, end: int | None = None) -> EngineReport:
    """Stream ``[start, end)`` through ``backend`` in fixed-size batches."""
    latencies = []
    n = 0
    for batch in iter_fixed_size(graph, batch_size, start=start, end=end):
        latencies.append(backend.process_batch(batch))
        n += len(batch)
    stage = dict(getattr(backend, "timings", {}) or {})
    return EngineReport(backend=getattr(backend, "name", type(backend).__name__),
                        n_edges=n, total_latency_s=float(sum(latencies)),
                        batch_latencies_s=latencies, stage_time_s=stage)
