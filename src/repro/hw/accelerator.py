"""Cycle-approximate FPGA accelerator simulator (Fig. 2 / Fig. 4 / §IV).

The simulator prices, it never executes: latency is a pure function of
each processing batch's edge count and vertex ids (the paper's §V point),
so no model kernel runs here and no vertex state is kept.  A caller that
wants embeddings beside simulated timing runs ``TGNN.infer_batch`` on its
own ``ModelRuntime`` (as ``examples/fraud_detection.py`` does).

The vertex ids reach the price through the Updater alone — the one stage
whose cost depends on the data — as its committed-line count and commit
cycles.  So the latency of one processing batch at an idle accelerator is
fixed by ``(edges, committed, cycles)``, and by ``(edges, distinct
endpoints)`` when its endpoint rows fit the Updater:
:meth:`FPGAAccelerator.batch_latency` simulates each such key once per
accelerator and replays it, the way GraphAGILE compiles an instruction
sequence once.

The Fig. 4 schedule is data, not code: :mod:`.schedule` holds one
``PIPELINE`` table of ``(stage, track, waits_for)`` rows and one
``transfers`` inventory of external-memory rows, and ``run_stream`` is a
single loop over the table — a stage begins once its track is free and
every stage it waits for has finished.

- **Tracks.**  One DDR controller serialises the ``read`` track (edge
  loads, vertex loads, neighbor prefetches) and, separately, the
  ``write`` track (the Updater's commit + write-back); both are priced
  by :class:`~repro.hw.memory_model.DDRModel` with burst-dependent
  effective bandwidth and refresh.  Each of the 9 compute stages
  (5 MUU + 4 EU) is its own track.
- **The §IV-C edge.**  ``prefetch`` waits for ``eu_attention`` alone:
  the logits come from timestamps (the simplified attention), so the
  neighbor fetch is released while the MUU is still running, and
  ``eu_fam`` waits for that fetch to land.
- **The ablation.**  ``hw.prefetch=False`` runs the same table with that
  one edge swapped for ``prefetch <- muu_merge_gate``, serialising the
  fetch behind the MUU — the co-design's key enabler switched off.

The accelerator requires a model with the simplified attention: the vanilla
mechanism cannot compute attention before fetching keys, which is precisely
why the paper's hardware implements Eq. (16).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..graph.batching import iter_fixed_size
from ..graph.temporal_graph import TemporalGraph
from .config import HardwareConfig
from .eu import EU_STAGES
from .memory_model import DDRModel
from .muu import MUU_STAGES
from .schedule import (MEM_STAGES, WRITE, compute_cycles, pipeline,
                       stage_plan, transfers)
from .updater import UpdaterCache

__all__ = ["FPGAAccelerator", "RunReport", "COMPUTE_STAGES"]

COMPUTE_STAGES = MUU_STAGES + EU_STAGES


@dataclass(frozen=True)
class TraceEvent:
    """One scheduled stage occupancy (for Gantt rendering / utilization)."""

    stage: str
    batch_index: int
    start_s: float
    end_s: float

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


@dataclass
class RunReport:
    """Timing + bookkeeping for one simulated stream segment."""

    n_edges: int
    total_s: float                      # wall-clock of the whole segment
    batch_latencies_s: list[float]      # per user batch: arrival -> last write
    stage_time_s: dict[str, float]      # summed busy time per stage/track
    updater_invalidated: int
    updater_committed: int
    mem_busy_s: float
    compute_busy_s: float
    events: list[TraceEvent] = field(default_factory=list)

    @property
    def throughput_eps(self) -> float:
        """New edges per second (Eq. 3)."""
        return self.n_edges / self.total_s if self.total_s > 0 else 0.0

    @property
    def mean_latency_s(self) -> float:
        return float(np.mean(self.batch_latencies_s)) \
            if self.batch_latencies_s else 0.0


class FPGAAccelerator:
    """Simulated accelerator bound to one model and one design point.

    Only ``model.cfg`` is read: the model is neither prepared nor run.
    """

    def __init__(self, model, hw: HardwareConfig):
        if not model.cfg.simplified_attention:
            raise ValueError(
                "the accelerator implements the simplified attention (Eq. 16)"
                " — the vanilla mechanism defeats prefetching (§IV-C)")
        self.model = model
        self.hw = hw
        self.updater = UpdaterCache(hw.updater_lines, hw.commit_scan)
        self.ddr: DDRModel = hw.ddr(refresh=True)
        table = pipeline(hw.prefetch)
        self._plan = stage_plan(table)
        self._store = [s.track for s in table].index(WRITE)
        self._cost_tables: dict[int, tuple[float, ...]] = {}
        self._latencies: dict[tuple[int, int], float] = {}

    # ------------------------------------------------------------------ #
    # per-processing-batch costs                                          #
    # ------------------------------------------------------------------ #
    def _mem_times(self, n_edges: int) -> dict[str, float]:
        """Seconds on the memory tracks per stage: the inventory, DDR-priced."""
        hw, d = self.hw, self.ddr
        channels = max(1, hw.platform.memory_channels)
        times: dict[str, float] = {}
        for x in transfers(self.model.cfg, n_edges):
            if x.gathered:
                t = d.row_gather_time(x.rows, x.row_words,
                                      overlap=hw.loader_overlap)
            else:
                t = d.transfer_time(x.rows * x.row_words,
                                    burst_words=x.row_words)
            if x.striped:
                t = t / channels
            times[x.stage] = times.get(x.stage, 0.0) + t
        return times

    def _compute_durations(self, n_edges: int) -> dict[str, float]:
        """Seconds per compute stage (max over CUs; CUs run in parallel)."""
        hw = self.hw
        flush = hw.pipeline_flush_cycles
        crossing = hw.die_crossing_cycles if hw.platform.dies > 1 else 0
        return {name: (c + flush + crossing) * hw.clock_s for name, c in
                compute_cycles(self.model.cfg, hw, n_edges).items()}

    def _stage_costs(self, n_edges: int) -> tuple[float, ...]:
        """Seconds per ``PIPELINE`` row of one processing batch.

        The write-back row holds the price of writing every vertex back;
        ``run_stream`` scales it by what the Updater commits.  Pure in
        ``n_edges`` over the frozen model/hardware configs and only ``nb``
        plus tail sizes ever occur, so each size is built once per
        accelerator.
        """
        costs = self._cost_tables.get(n_edges)
        if costs is None:
            seconds = {**self._mem_times(n_edges),
                       **self._compute_durations(n_edges)}
            costs = self._cost_tables[n_edges] = tuple(
                seconds[stage] for stage, _, _ in self._plan)
        return costs

    # ------------------------------------------------------------------ #
    def run_stream(self, graph: TemporalGraph | None, batch_size: int,
                   start: int = 0, end: int | None = None,
                   batches: list | None = None,
                   trace: bool = False) -> RunReport:
        """Simulate inference over edges ``[start, end)`` in user batches.

        ``batches`` overrides the fixed-size batching with an explicit list
        of :class:`EdgeBatch` (used by the real-time window replay); the
        graph is then not read.
        ``trace=True`` records a :class:`TraceEvent` per stage occupancy
        (see ``repro.hw.trace`` for rendering and utilization analysis).
        """
        hw = self.hw
        if batches is None:
            batches = iter_fixed_size(graph, batch_size, start=start, end=end)

        plan, store = self._plan, self._store
        events: list[TraceEvent] = []
        pb_index = 0
        stage_time: dict[str, float] = {}
        free = [0.0] * (2 + len(plan))      # when each track is next idle
        finish = [0.0] * len(plan)          # per row, this processing batch
        latencies: list[float] = []
        invalidated = 0
        committed = 0
        clock_now = 0.0
        n_total = 0

        for batch in batches:
            arrival = clock_now
            batch_done = arrival
            # Split the user batch into processing batches of Nb edges;
            # the schedule reads their endpoints only.
            nodes = batch.nodes
            for lo in range(0, len(batch), hw.nb):
                hi = min(lo + hw.nb, len(batch))
                n_edges = hi - lo
                n_total += n_edges

                report = self.updater.process(nodes[2 * lo:2 * hi])
                invalidated += report.invalidated
                committed += report.committed
                dur = list(self._stage_costs(n_edges))
                # The one computed duration: only committed lines are
                # written back, after the Updater's commit scan.
                dur[store] = dur[store] \
                    * (report.committed / max(1, 2 * n_edges)) \
                    + report.cycles * hw.clock_s

                for row, (stage, clock, waits) in enumerate(plan):
                    begin = max(free[clock], arrival)
                    for w in waits:
                        begin = max(begin, finish[w])
                    free[clock] = finish[row] = done = begin + dur[row]
                    stage_time[stage] = stage_time.get(stage, 0.0) + dur[row]
                    if trace and done > begin:
                        events.append(TraceEvent(stage=stage,
                                                 batch_index=pb_index,
                                                 start_s=begin, end_s=done))
                batch_done = finish[store]
                pb_index += 1

            latencies.append(batch_done - arrival)
            clock_now = batch_done

        mem_busy = sum(stage_time.get(s, 0.0) for s in MEM_STAGES)
        comp_busy = sum(stage_time.get(s, 0.0) for s in COMPUTE_STAGES)
        return RunReport(n_edges=n_total, total_s=clock_now,
                         batch_latencies_s=latencies, stage_time_s=stage_time,
                         updater_invalidated=invalidated,
                         updater_committed=committed,
                         mem_busy_s=mem_busy, compute_busy_s=comp_busy,
                         events=events)

    # ------------------------------------------------------------------ #
    def batch_latency(self, batch) -> float:
        """Latency (s) of ``batch`` arriving at an idle accelerator at t = 0.

        Bit for bit ``run_stream(None, len(batch), batches=[batch])
        .batch_latencies_s[0]``.  A batch of ``n <= hw.nb`` edges is one
        processing batch, and the recurrence then reads nothing but its
        edge count, the Updater's committed lines and its commit cycles
        (``_stage_costs(n)``, ``committed / 2n``, ``cycles``): the Updater
        is the one stage whose cost depends on the data.  When its ``2n``
        endpoint rows also fit the Updater (``2n <= lines``; both shipped
        designs hold ``2 nb <= lines``), every repeat falls inside the
        invalidation window and fewer than ``lines`` lines are
        invalidated, so the Updater commits one line per distinct
        endpoint in ``2n + 1`` cycles, without a stall.  Such a batch is
        keyed ``(n, distinct endpoints)``, simulated once per key and
        accelerator (the Updater included) and replayed after that; any
        other batch runs the recurrence every time.
        """
        n = len(batch)
        if n > self.hw.nb or 2 * n > self.updater.lines:
            return self.run_stream(None, n, batches=[batch]) \
                .batch_latencies_s[0]
        key = (n, len({*batch.src.tolist(), *batch.dst.tolist()}))
        latency = self._latencies.get(key)
        if latency is None:
            latency = self._latencies[key] = self.run_stream(
                None, n, batches=[batch]).batch_latencies_s[0]
        return latency

    def latency_single_batch(self, graph: TemporalGraph, batch_size: int,
                             warmup_edges: int = 0) -> float:
        """Latency (s) of one batch arriving at an idle accelerator.

        The batch is edges ``[warmup_edges, warmup_edges + batch_size)``
        (cut at the stream end); vertex state cannot change the price, so
        nothing is replayed to reach that offset.
        """
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if not 0 <= warmup_edges < graph.num_edges:
            raise ValueError(f"warmup_edges must lie in [0, "
                             f"{graph.num_edges}), got {warmup_edges}")
        return self.batch_latency(graph.slice(
            warmup_edges, min(warmup_edges + batch_size, graph.num_edges)))

