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
* :class:`ModeledGPPBackend` — prices batches with a calibrated
  :class:`~repro.perf.gpp.GPPCostModel` (the CPU-32T / GPU substitution);
* :class:`LinearCostBackend` — an exact ``overhead + N * per_edge`` price,
  for tests and benchmarks that isolate queueing/placement effects from
  cost-model shape.

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
from ..perf.gpp import GPPCostModel
from ..profiling.op_counter import OpCounts

__all__ = ["EngineReport", "SoftwareBackend", "SimulatedFPGABackend",
           "ModeledGPPBackend", "LinearCostBackend", "run_engine"]


class LinearCostBackend:
    """Deterministic fixed-overhead + linear per-edge timing backend.

    No functional state and no model: ``process_batch`` costs exactly
    ``overhead_s + len(batch) * per_edge_s``.  The placement/pool tests and
    benchmarks use it to compare queue topologies on known service times —
    overhead-dominated vs marginal-cost-dominated regimes — without
    cost-model noise.
    """

    name = "linear-cost"

    def __init__(self, per_edge_s: float = 1e-3, overhead_s: float = 0.0):
        if not (0 <= per_edge_s < math.inf and 0 <= overhead_s < math.inf):
            raise ValueError("per_edge_s and overhead_s must be finite "
                             "and >= 0")
        self.per_edge_s = float(per_edge_s)
        self.overhead_s = float(overhead_s)

    def process_batch(self, batch: EdgeBatch) -> float:
        return self.overhead_s + len(batch) * self.per_edge_s


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
    simulated once per distinct ``(edges, committed, cycles)`` and
    replayed from the accelerator's table after that.
    """

    def __init__(self, accelerator: FPGAAccelerator, graph: TemporalGraph):
        self.acc = accelerator
        self.graph = graph
        self.name = f"fpga-{accelerator.hw.platform.name}"

    def process_batch(self, batch: EdgeBatch) -> float:
        return self.acc.batch_latency(batch)


class ModeledGPPBackend:
    """Cost-model backend (CPU-32T / GPU substitution).

    ``process_batch`` is :meth:`GPPCostModel.latency_s` with its two
    terms taken once: the op counts never change, so the per-edge
    marginal is summed at construction, and the price is the same float
    expression, bit for bit.
    """

    def __init__(self, cost_model: GPPCostModel, counts: OpCounts):
        self.name = cost_model.name
        self._overhead_s = cost_model.batch_overhead_s
        self._per_edge_s = cost_model.marginal_edge_s(counts)

    def process_batch(self, batch: EdgeBatch) -> float:
        n = len(batch)
        if n <= 0:
            raise ValueError("batch_edges must be positive")
        return self._overhead_s + n * self._per_edge_s


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
