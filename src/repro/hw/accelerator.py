"""Cycle-approximate FPGA accelerator simulator (Fig. 2 / Fig. 4 / §IV).

The simulator has a *functional* half and a *timing* half, and the timing
half never reads the functional one (the paper's §V point: latency is
predictable from batch shape), so execution is optional:

* **Functional** — by default every processing batch runs through the
  shared NumPy model kernels (``TGNN.infer_batch``), so the embeddings it
  produces are bit-identical to the software deployment path (asserted by
  integration tests).  The Updater's redundant-write elimination is
  functionally the same last-write-wins rule the vertex tables implement.
  ``run_stream(..., execute=False)`` skips this half: the report is
  field-for-field the one an executing run returns, minus embeddings.

* **Timing** — a pure function of each processing batch's edge count and
  vertex ids.  The Fig. 4 schedule is simulated with a two-track pipeline:

  - a **memory track** (one DDR controller, serialising edge loads, vertex
    loads, neighbor prefetches and write-backs, modelled by
    :class:`~repro.hw.memory_model.DDRModel` with burst-dependent effective
    bandwidth and refresh), and
  - a **compute track** of 9 fine-grained stages (5 MUU + 4 EU) running the
    classic pipeline recurrence
    ``finish[b][s] = max(finish[b][s-1], finish[b-1][s]) + dur[b][s]``.

  Cross-track dependencies implement §IV-C: the attention logits (computed
  from timestamps alone, thanks to the simplified attention) release the
  neighbor **prefetch** while the MUU is still running; the FAM cannot start
  before that prefetch lands.  Disabling ``prefetch`` serialises the fetch
  behind the MUU — the ablation of the co-design's key enabler.

The accelerator requires a model with the simplified attention: the vanilla
mechanism cannot compute attention before fetching keys, which is precisely
why the paper's hardware implements Eq. (16).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..graph.batching import iter_fixed_size
from ..graph.temporal_graph import TemporalGraph
from ..models.tgn import TGNN, ModelRuntime
from .config import HardwareConfig
from .eu import EU_STAGES, EmbeddingUnit
from .memory_model import DDRModel
from .muu import MUU_STAGES, MemoryUpdateUnit
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
    embeddings: list[np.ndarray] = field(default_factory=list)
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
    """Simulated accelerator bound to one model and one design point."""

    def __init__(self, model: TGNN, hw: HardwareConfig):
        if not model.cfg.simplified_attention:
            raise ValueError(
                "the accelerator implements the simplified attention (Eq. 16)"
                " — the vanilla mechanism defeats prefetching (§IV-C)")
        self.model = model
        self.hw = hw
        self.muu = MemoryUpdateUnit(model.cfg, hw)
        self.eu = EmbeddingUnit(model.cfg, hw)
        self.updater = UpdaterCache(hw.updater_lines, hw.commit_scan)
        self.ddr: DDRModel = hw.ddr(refresh=True)
        self._cost_tables: dict[int, tuple[dict[str, float],
                                           dict[str, float]]] = {}
        model.prepare_inference()

    # ------------------------------------------------------------------ #
    # per-processing-batch costs                                          #
    # ------------------------------------------------------------------ #
    def _mem_times(self, n_edges: int) -> dict[str, float]:
        """Seconds on the memory track per transfer type (Fig. 4 ops 1-5)."""
        cfg, hw = self.model.cfg, self.hw
        n_nodes = 2 * n_edges
        k, keff = cfg.num_neighbors, cfg.effective_neighbors
        msg = cfg.raw_message_dim
        channels = max(1, hw.platform.memory_channels)
        d = self.ddr

        def ch(t: float) -> float:
            return t / channels

        load_edges = d.transfer_time(n_edges * (3 + cfg.edge_dim),
                                     burst_words=3 + cfg.edge_dim)
        vertex_row = 3 * k + cfg.memory_dim + msg + 2
        load_vertex = ch(d.row_gather_time(n_nodes, vertex_row,
                                           overlap=hw.loader_overlap))
        nbr_row = cfg.memory_dim + cfg.edge_dim + (cfg.node_dim or 0)
        prefetch = ch(d.row_gather_time(n_nodes * keff, nbr_row,
                                        overlap=hw.loader_overlap))
        store_row = cfg.memory_dim + msg + 3
        store = ch(d.row_gather_time(n_nodes, store_row,
                                     overlap=hw.loader_overlap))
        store_emb = ch(d.transfer_time(n_nodes * cfg.embed_dim,
                                       burst_words=cfg.embed_dim))
        return {"load_edges": load_edges, "load_vertex": load_vertex,
                "prefetch": prefetch, "store": store + store_emb}

    def _compute_durations(self, n_edges: int) -> dict[str, float]:
        """Seconds per compute stage (max over CUs; CUs run in parallel)."""
        hw = self.hw
        per_cu_edges = -(-n_edges // hw.n_cu)
        n_nodes = 2 * per_cu_edges
        cycles = {}
        cycles.update(self.muu.stage_cycles(n_nodes))
        cycles.update(self.eu.stage_cycles(n_nodes))
        flush = hw.pipeline_flush_cycles
        crossing = hw.die_crossing_cycles if hw.platform.dies > 1 else 0
        return {name: (c + flush + crossing) * hw.clock_s
                for name, c in cycles.items()}

    def _stage_costs(self, n_edges: int) -> tuple[dict[str, float],
                                                  dict[str, float]]:
        """``(_mem_times, _compute_durations)`` of one processing batch.

        Both are pure in ``n_edges`` over the frozen model/hardware configs
        and only ``nb`` plus tail sizes ever occur, so each size is built
        once per accelerator.  Callers must not mutate the tables.
        """
        costs = self._cost_tables.get(n_edges)
        if costs is None:
            costs = self._cost_tables[n_edges] = (
                self._mem_times(n_edges), self._compute_durations(n_edges))
        return costs

    # ------------------------------------------------------------------ #
    def run_stream(self, graph: TemporalGraph, batch_size: int,
                   start: int = 0, end: int | None = None,
                   rt: ModelRuntime | None = None,
                   collect_embeddings: bool = False,
                   batches: list | None = None,
                   trace: bool = False,
                   execute: bool = True) -> RunReport:
        """Simulate inference over edges ``[start, end)`` in user batches.

        ``batches`` overrides the fixed-size batching with an explicit list
        of :class:`EdgeBatch` (used by the real-time window replay).
        ``trace=True`` records a :class:`TraceEvent` per stage occupancy
        (see ``repro.hw.trace`` for rendering and utilization analysis).
        ``execute=False`` prices the stream without running the model
        kernels: no runtime is built, ``rt`` is not advanced, and every
        timing field of the report is unchanged.
        """
        if collect_embeddings and not execute:
            raise ValueError("collect_embeddings needs execute=True: a "
                             "priced-only run computes no embeddings")
        hw = self.hw
        if execute and rt is None:
            rt = self.model.new_runtime(graph)
        end = graph.num_edges if end is None else end
        if batches is None:
            batches = list(iter_fixed_size(graph, batch_size,
                                           start=start, end=end))

        events: list[TraceEvent] = []
        pb_index = 0

        def record(stage: str, start_t: float, end_t: float) -> None:
            if trace and end_t > start_t:
                events.append(TraceEvent(stage=stage, batch_index=pb_index,
                                         start_s=start_t, end_s=end_t))

        stage_time: dict[str, float] = {}
        # The DDR controller reorders reads ahead of pending writes, so the
        # read path (edge/vertex loads, prefetch) and the write-back path
        # are modelled as separate serial tracks.
        read_free = 0.0
        write_free = 0.0
        comp_free = {s: 0.0 for s in COMPUTE_STAGES}
        latencies: list[float] = []
        embeddings: list[np.ndarray] = []
        invalidated = 0
        committed = 0
        clock_now = 0.0
        n_total = 0

        for batch in batches:
            arrival = clock_now
            batch_done = arrival
            # Split the user batch into processing batches of Nb edges.
            for lo in range(0, len(batch), hw.nb):
                hi = min(lo + hw.nb, len(batch))
                sub = _slice_batch(batch, lo, hi)
                n_edges = len(sub)
                n_total += n_edges

                # ---- functional step (shared kernels), optional --------- #
                if execute:
                    result = self.model.infer_batch(sub, rt, graph)
                    if collect_embeddings:
                        embeddings.append(result.embeddings.data)

                # ---- timing step: reads nothing from the one above ------ #
                report = self.updater.process(sub.nodes)
                invalidated += report.invalidated
                committed += report.committed
                mem, comp = self._stage_costs(n_edges)

                # read track: edge + vertex loads, in order.
                t = max(read_free, arrival)
                t_edges = t + mem["load_edges"]
                t_vertex = t_edges + mem["load_vertex"]
                read_free = t_vertex
                _acc(stage_time, "load_edges", mem["load_edges"])
                _acc(stage_time, "load_vertex", mem["load_vertex"])
                record("load_edges", t, t_edges)
                record("load_vertex", t_edges, t_vertex)

                # compute tracks: the MUU chain and the EU chain run in
                # PARALLEL.  The attention module needs only the neighbor
                # timestamps (already on chip after load_vertex) — the whole
                # point of Eq. (16) — so it fires immediately and releases
                # the neighbor prefetch while the GRU gates are still busy.
                finish: dict[str, float] = {}

                def run(stage: str, ready: float) -> float:
                    start = max(ready, comp_free[stage])
                    finish[stage] = start + comp[stage]
                    comp_free[stage] = finish[stage]
                    _acc(stage_time, stage, comp[stage])
                    record(stage, start, finish[stage])
                    return finish[stage]

                # MUU chain.
                muu_t = run("muu_time_enc", t_vertex)
                muu_t = run("muu_update_gate", muu_t)
                muu_t = run("muu_reset_gate", muu_t)
                muu_t = run("muu_memory_gate", muu_t)
                muu_done = run("muu_merge_gate", muu_t)

                # EU front end (timestamp-only).
                am_done = run("eu_attention", t_vertex)
                te_done = run("eu_time_enc", am_done)

                # Prefetch: released by the attention logits (§IV-C), or —
                # with prefetching disabled (ablation / vanilla-style) —
                # only after the MUU has fully committed the batch.
                pf_ready = am_done if hw.prefetch else muu_done
                pf_start = max(read_free, pf_ready)
                prefetch_done = pf_start + mem["prefetch"]
                read_free = prefetch_done
                _acc(stage_time, "prefetch", mem["prefetch"])
                record("prefetch", pf_start, prefetch_done)

                # EU back end: FAM needs prefetched neighbor state; FTM
                # additionally needs the self memory updated by the MUU.
                fam_done = run("eu_fam", max(te_done, prefetch_done))
                run("eu_ftm", max(fam_done, muu_done))

                # store (Updater commit + write-back) on the write track.
                updater_s = report.cycles * hw.clock_s
                store_start = max(write_free, finish["eu_ftm"])
                store_scale = (report.committed / max(1, len(sub.nodes)))
                store_dur = mem["store"] * store_scale + updater_s
                write_free = store_start + store_dur
                _acc(stage_time, "store", store_dur)
                record("store", store_start, write_free)
                batch_done = write_free
                pb_index += 1

            latencies.append(batch_done - arrival)
            clock_now = batch_done

        mem_busy = sum(stage_time.get(s, 0.0) for s in
                       ("load_edges", "load_vertex", "prefetch", "store"))
        comp_busy = sum(stage_time.get(s, 0.0) for s in COMPUTE_STAGES)
        return RunReport(n_edges=n_total, total_s=clock_now,
                         batch_latencies_s=latencies, stage_time_s=stage_time,
                         updater_invalidated=invalidated,
                         updater_committed=committed,
                         mem_busy_s=mem_busy, compute_busy_s=comp_busy,
                         embeddings=embeddings, events=events)

    # ------------------------------------------------------------------ #
    def latency_single_batch(self, graph: TemporalGraph, batch_size: int,
                             warmup_edges: int = 0) -> float:
        """Latency (s) of one batch arriving at an idle accelerator.

        The batch is edges ``[warmup_edges, warmup_edges + batch_size)``;
        vertex state cannot change the price, so nothing is replayed to
        reach that offset.
        """
        report = self.run_stream(graph, batch_size, start=warmup_edges,
                                 end=min(warmup_edges + batch_size,
                                         graph.num_edges), execute=False)
        return report.batch_latencies_s[0]


def _slice_batch(batch, lo: int, hi: int):
    """Sub-slice of an EdgeBatch (views)."""
    from ..graph.temporal_graph import EdgeBatch
    return EdgeBatch(src=batch.src[lo:hi], dst=batch.dst[lo:hi],
                     t=batch.t[lo:hi], eid=batch.eid[lo:hi],
                     edge_feat=batch.edge_feat[lo:hi])


def _acc(d: dict[str, float], key: str, value: float) -> None:
    d[key] = d.get(key, 0.0) + value
