"""Property-based invariants of the queueing replay, batching and the
accelerator's timing: the cost-table cache, the one-batch latency table
against the recurrence it replays, and the Fig. 4 table against the
imperative schedule it replaced."""

import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.datasets import wikipedia_like
from repro.graph import (EdgeBatch, TemporalGraph, iter_fixed_size,
                         iter_time_windows)
from repro.hw import (COMPUTE_STAGES, EmbeddingUnit, FPGAAccelerator,
                      MemoryUpdateUnit, U200_DESIGN, UpdaterCache,
                      ZCU104_DESIGN, schedule)
from repro.hw.accelerator import RunReport, TraceEvent
from repro.hw.trace import ALL_STAGES
from repro.models import ModelConfig, TGNN
from repro.perf import PerformanceModel
from tests.property.queue_oracle import replay

settings.register_profile("repro", deadline=None, max_examples=30)
settings.load_profile("repro")


@st.composite
def stream(draw):
    n = draw(st.integers(5, 60))
    gaps = draw(st.lists(st.floats(0.1, 500.0), min_size=n, max_size=n))
    t = np.cumsum(gaps)
    src = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    dst = draw(st.lists(st.integers(6, 9), min_size=n, max_size=n))
    return TemporalGraph(src, dst, t)


def _slice_batch(batch, lo: int, hi: int) -> EdgeBatch:
    """Sub-slice of an EdgeBatch (views): the oracle's processing batch."""
    return EdgeBatch(src=batch.src[lo:hi], dst=batch.dst[lo:hi],
                     t=batch.t[lo:hi], eid=batch.eid[lo:hi],
                     edge_feat=batch.edge_feat[lo:hi])


class ConstBackend:
    def __init__(self, service_s: float):
        self.service_s = service_s

    def process_batch(self, batch) -> float:
        return self.service_s


class TestQueueingProperties:
    @given(stream(), st.floats(1e-4, 0.5), st.floats(1.0, 100.0))
    def test_response_at_least_service(self, g, service, speedup):
        stats = replay(ConstBackend(service), g, window_s=600.0,
                       speedup=speedup)
        assert stats.mean_response_s >= service - 1e-12
        assert stats.mean_response_s >= stats.mean_wait_s
        assert stats.jobs >= 1

    @given(stream(), st.floats(0.01, 0.2))
    def test_more_load_never_reduces_waiting(self, g, service):
        lo = replay(ConstBackend(service), g, window_s=600.0, speedup=1.0)
        hi = replay(ConstBackend(service), g, window_s=600.0,
                    speedup=1000.0)
        assert hi.utilization >= lo.utilization - 1e-9
        assert hi.mean_wait_s >= lo.mean_wait_s - 1e-9

    @given(stream(), st.integers(1, 10))
    def test_windows_and_fixed_batches_cover_same_edges(self, g, size):
        from_windows = sum(len(b) for b in iter_time_windows(g, 600.0))
        from_fixed = sum(len(b) for b in iter_fixed_size(g, size))
        assert from_windows == from_fixed == g.num_edges


SMALL = ModelConfig(memory_dim=8, time_dim=6, embed_dim=8, edge_dim=172,
                    num_neighbors=4, simplified_attention=True,
                    lut_time_encoder=True, lut_bins=8, pruning_budget=2)
# No LUT, no pruning, unequal widths.
PLAIN = ModelConfig(memory_dim=12, time_dim=5, embed_dim=10, edge_dim=172,
                    num_neighbors=6, simplified_attention=True)


@functools.lru_cache(maxsize=None)
def accelerated_stream(cfg=SMALL):
    g = wikipedia_like(num_edges=500, num_users=60, num_items=15)
    model = TGNN(cfg, rng=np.random.default_rng(0))
    model.calibrate(g)
    return g, model


@st.composite
def design_and_batches(draw, min_edges=1):
    """A design point plus consecutive user batches whose sizes straddle
    its processing-batch size ``nb`` (one edge, exact multiples, tails)."""
    hw = draw(st.sampled_from([U200_DESIGN, ZCU104_DESIGN])).with_(
        prefetch=draw(st.booleans()))
    nb = hw.nb
    size = st.sampled_from(sorted({min_edges, 1, nb - 1, nb, nb + 1, 2 * nb,
                                   2 * nb + 3})) \
        | st.integers(min_edges, 3 * nb)
    sizes = draw(st.lists(size, min_size=1, max_size=5))
    g, _ = accelerated_stream()
    bounds = np.cumsum([0] + sizes)
    return hw, [g.slice(int(lo), int(hi))
                for lo, hi in zip(bounds[:-1], bounds[1:])]


TIMING_FIELDS = ("n_edges", "total_s", "batch_latencies_s", "stage_time_s",
                 "updater_invalidated", "updater_committed", "mem_busy_s",
                 "compute_busy_s", "events")


class TestPricedOnlyTiming:
    @given(design_and_batches(), st.booleans())
    def test_warm_accelerator_equals_cold_accelerator(self, case, trace):
        """``_stage_costs`` caches per edge count and is pure in it: a run
        on an accelerator whose cost tables are already filled reports
        every timing field exactly (``==``) as a fresh accelerator does."""
        hw, batches = case
        g, model = accelerated_stream()

        def run(acc):
            return acc.run_stream(g, batch_size=1, batches=batches,
                                  trace=trace)

        cold = run(FPGAAccelerator(model, hw))
        acc = FPGAAccelerator(model, hw)
        run(acc)
        warm = run(acc)
        assert bool(cold.events) == trace
        for name in TIMING_FIELDS:
            assert getattr(warm, name) == getattr(cold, name), name


# The shipped designs keep ``2 nb <= updater_lines``, so every batch of at
# most ``nb`` edges is keyed by ``(n, distinct endpoints)``; a two-line cache
# stalls above one edge, so only it sends such batches down the uncached
# path and tests that the key's guard holds.
SHALLOW = U200_DESIGN.with_(updater_lines=2)


def edge_batch(ends):
    """The batch whose interleaved endpoint rows (``nodes``) are ``ends``."""
    n = len(ends) // 2
    t = np.arange(n, dtype=np.float64)
    return EdgeBatch(src=np.array(ends[0::2], dtype=np.int64),
                     dst=np.array(ends[1::2], dtype=np.int64), t=t,
                     eid=t.astype(np.int64), edge_feat=np.zeros((n, 0)))


@st.composite
def design_and_edge_batches(draw):
    """A design point plus user batches of 0, up to ``nb`` and more than
    ``nb`` edges over a handful of vertices (heavy repeats)."""
    hw = draw(st.sampled_from([U200_DESIGN, ZCU104_DESIGN, SHALLOW])).with_(
        prefetch=draw(st.booleans()))
    nb = hw.nb
    size = st.sampled_from([0, 1, 2, 4, nb, nb + 1]) | st.integers(0, 3 * nb)
    vertex = st.integers(0, draw(st.sampled_from([2, 5, 40])))
    batches = []
    for n in draw(st.lists(size, min_size=1, max_size=6)):
        ends = draw(st.lists(vertex, min_size=2 * n, max_size=2 * n))
        batches.append(edge_batch(ends))
        if draw(st.booleans()):
            # Its rows reversed: every repeat at the same distance, so the
            # same ``(n, committed)``, with the invalidated lines elsewhere.
            batches.append(edge_batch(ends[::-1]))
    return hw, batches


def recurrence_latency(acc, batch):
    return acc.run_stream(None, len(batch), batches=[batch]) \
        .batch_latencies_s[0]


@settings(max_examples=100, derandomize=True)
@given(design_and_edge_batches())
# One edge, one and two distinct endpoints: the same ``n``, two keys.
@example((U200_DESIGN, [edge_batch([0, 0]), edge_batch([0, 1])]))
def test_batch_latency_table_equals_the_recurrence(case):
    """``batch_latency`` is ``run_stream``'s one-batch latency bit for bit,
    on a fresh accelerator and on one whose table other batches (and the
    same ones) already filled."""
    hw, batches = case
    _, model = accelerated_stream()
    oracle = FPGAAccelerator(model, hw)
    want = [recurrence_latency(oracle, b) for b in batches]
    for b, w in zip(batches, want):
        assert FPGAAccelerator(model, hw).batch_latency(b) == w
    warm = FPGAAccelerator(model, hw)
    for _ in range(2):
        assert [warm.batch_latency(b) for b in batches] == want


class TestBatchLatencyTable:
    def test_each_accelerator_owns_its_table(self):
        g, model = accelerated_stream()
        a, b = FPGAAccelerator(model, U200_DESIGN), \
            FPGAAccelerator(model, U200_DESIGN)
        a.batch_latency(g.slice(0, 2))
        assert len(a._latencies) == 1 and b._latencies == {}

    def test_a_key_of_edges_alone_is_caught(self, monkeypatch):
        """Mutation check: key the table by the edge count ``n`` alone and
        the property finds a batch priced with another batch's committed
        lines."""
        class DropEndpoints(dict):
            def get(self, key, default=None):
                return super().get(key[:1], default)

            def __setitem__(self, key, value):
                super().__setitem__(key[:1], value)

        honest = FPGAAccelerator.__init__

        def init(acc, model, hw):
            honest(acc, model, hw)
            acc._latencies = DropEndpoints()

        monkeypatch.setattr(FPGAAccelerator, "__init__", init)
        with pytest.raises(AssertionError):
            test_batch_latency_table_equals_the_recurrence()


# --------------------------------------------------------------------------- #
# Oracle: the imperative Fig. 4 schedule and the duplicated section-V          #
# expressions that ``repro.hw.schedule``'s table and inventory replaced.       #
# --------------------------------------------------------------------------- #
def oracle_mem_times(cfg, hw, n_edges):
    n_nodes = 2 * n_edges
    k, keff = cfg.num_neighbors, cfg.effective_neighbors
    msg = cfg.raw_message_dim
    channels = max(1, hw.platform.memory_channels)
    d = hw.ddr(refresh=True)

    def ch(t):
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


def oracle_cycles(cfg, hw, n_nodes):
    cycles = {}
    cycles.update(MemoryUpdateUnit(cfg, hw).stage_cycles(n_nodes))
    cycles.update(EmbeddingUnit(cfg, hw).stage_cycles(n_nodes))
    return cycles


def oracle_compute_durations(cfg, hw, n_edges):
    per_cu_edges = -(-n_edges // hw.n_cu)
    cycles = oracle_cycles(cfg, hw, 2 * per_cu_edges)
    flush = hw.pipeline_flush_cycles
    crossing = hw.die_crossing_cycles if hw.platform.dies > 1 else 0
    return {name: (c + flush + crossing) * hw.clock_s
            for name, c in cycles.items()}


def oracle_run_stream(cfg, hw, batches, trace):
    """``FPGAAccelerator.run_stream`` as it stood before the Fig. 4
    table: hand-kept track clocks and one ``run(stage, ready)`` per stage."""
    updater = UpdaterCache(hw.updater_lines, hw.commit_scan)
    events = []
    pb_index = 0

    def acc(d, key, value):
        d[key] = d.get(key, 0.0) + value

    def record(stage, start_t, end_t):
        if trace and end_t > start_t:
            events.append(TraceEvent(stage=stage, batch_index=pb_index,
                                     start_s=start_t, end_s=end_t))

    stage_time = {}
    read_free = 0.0
    write_free = 0.0
    comp_free = {s: 0.0 for s in COMPUTE_STAGES}
    latencies = []
    invalidated = 0
    committed = 0
    clock_now = 0.0
    n_total = 0

    for batch in batches:
        arrival = clock_now
        batch_done = arrival
        for lo in range(0, len(batch), hw.nb):
            hi = min(lo + hw.nb, len(batch))
            sub = _slice_batch(batch, lo, hi)
            n_edges = len(sub)
            n_total += n_edges

            report = updater.process(sub.nodes)
            invalidated += report.invalidated
            committed += report.committed
            mem = oracle_mem_times(cfg, hw, n_edges)
            comp = oracle_compute_durations(cfg, hw, n_edges)

            t = max(read_free, arrival)
            t_edges = t + mem["load_edges"]
            t_vertex = t_edges + mem["load_vertex"]
            read_free = t_vertex
            acc(stage_time, "load_edges", mem["load_edges"])
            acc(stage_time, "load_vertex", mem["load_vertex"])
            record("load_edges", t, t_edges)
            record("load_vertex", t_edges, t_vertex)

            finish = {}

            def run(stage, ready):
                start = max(ready, comp_free[stage])
                finish[stage] = start + comp[stage]
                comp_free[stage] = finish[stage]
                acc(stage_time, stage, comp[stage])
                record(stage, start, finish[stage])
                return finish[stage]

            muu_t = run("muu_time_enc", t_vertex)
            muu_t = run("muu_update_gate", muu_t)
            muu_t = run("muu_reset_gate", muu_t)
            muu_t = run("muu_memory_gate", muu_t)
            muu_done = run("muu_merge_gate", muu_t)

            am_done = run("eu_attention", t_vertex)
            te_done = run("eu_time_enc", am_done)

            pf_ready = am_done if hw.prefetch else muu_done
            pf_start = max(read_free, pf_ready)
            prefetch_done = pf_start + mem["prefetch"]
            read_free = prefetch_done
            acc(stage_time, "prefetch", mem["prefetch"])
            record("prefetch", pf_start, prefetch_done)

            fam_done = run("eu_fam", max(te_done, prefetch_done))
            run("eu_ftm", max(fam_done, muu_done))

            updater_s = report.cycles * hw.clock_s
            store_start = max(write_free, finish["eu_ftm"])
            store_scale = (report.committed / max(1, len(sub.nodes)))
            store_dur = mem["store"] * store_scale + updater_s
            write_free = store_start + store_dur
            acc(stage_time, "store", store_dur)
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
                     events=events)


def oracle_perf_model(cfg, hw):
    """``(beta, t_comp_max, t_ls, t_fill)`` from the pre-table expressions."""
    ddr = hw.ddr(refresh=False)
    cycles = oracle_cycles(cfg, hw, 2 * (hw.nb // hw.n_cu))
    nb = hw.nb
    n_nodes = 2 * nb
    k, keff = cfg.num_neighbors, cfg.effective_neighbors
    msg = cfg.raw_message_dim
    channels = max(1, hw.platform.memory_channels)
    bw = ddr.peak_bw_gbs * 1e9 / ddr.word_bytes

    def t(words, burst):
        return words / (bw * ddr.alpha(burst))

    vertex_row = 3 * k + cfg.memory_dim + msg + 2
    nbr_row = cfg.memory_dim + cfg.edge_dim + (cfg.node_dim or 0)
    store_row = cfg.memory_dim + msg + 3
    t_ls = (t(nb * (3 + cfg.edge_dim), 3 + cfg.edge_dim)
            + t(n_nodes * vertex_row, vertex_row) / channels
            + t(n_nodes * keff * nbr_row, nbr_row) / channels
            + t(n_nodes * store_row, store_row) / channels
            + t(n_nodes * cfg.embed_dim, cfg.embed_dim) / channels)
    return (4 + len(COMPUTE_STAGES), max(cycles.values()) * hw.clock_s,
            t_ls, t_ls + sum(cycles.values()) * hw.clock_s)


def assert_same_report(got, want):
    for name in TIMING_FIELDS:
        assert getattr(got, name) == getattr(want, name), name
    assert list(got.stage_time_s) == list(want.stage_time_s)


class TestPipelineTableAgainstOracle:
    @given(st.sampled_from([SMALL, PLAIN]), design_and_batches(min_edges=0),
           st.booleans())
    def test_run_stream_equals_the_imperative_schedule(self, cfg, case,
                                                       trace):
        hw, batches = case
        g, model = accelerated_stream(cfg)
        got = FPGAAccelerator(model, hw).run_stream(
            g, batch_size=1, batches=batches, trace=trace)
        assert_same_report(got, oracle_run_stream(cfg, hw, batches, trace))

    @given(st.sampled_from([SMALL, PLAIN, ModelConfig(
               simplified_attention=True, node_dim=16)]),
           st.sampled_from([U200_DESIGN, ZCU104_DESIGN]),
           st.integers(1, 1000))
    def test_performance_model_equals_the_duplicated_expressions(
            self, cfg, hw, batch_size):
        pm = PerformanceModel(cfg, hw)
        beta, t_comp, t_ls, t_fill = oracle_perf_model(cfg, hw)
        assert (pm.beta, pm.t_comp_max(), pm.t_ls(), pm.t_fill()) \
            == (beta, t_comp, t_ls, t_fill)
        pred = pm.predict(batch_size)
        tp = max(t_comp, t_ls)
        latency = t_fill + (-(-batch_size // hw.nb) - 1) * tp
        assert (pred.tp_s, pred.t_comp_s, pred.t_ls_s, pred.latency_s,
                pred.throughput_eps) \
            == (tp, t_comp, t_ls, latency, batch_size / latency)

    def test_table_is_in_issue_order_and_names_every_stage(self):
        seen = set()
        for row in schedule.PIPELINE:
            assert set(row.waits_for) <= seen, row
            seen.add(row.stage)
        assert tuple(r.stage for r in schedule.PIPELINE
                     if r.track == schedule.COMPUTE) == COMPUTE_STAGES
        assert ALL_STAGES == tuple(r.stage for r in schedule.PIPELINE)
        assert {x.stage for x in schedule.transfers(SMALL, 1)} \
            == set(schedule.MEM_STAGES)

    @pytest.mark.parametrize("stage, waits_for", [
        ("eu_fam", ("eu_time_enc",)),           # FAM no longer waits for data
        ("prefetch", ("muu_merge_gate",)),      # the section IV-C edge swapped
    ])
    def test_a_mutated_table_is_caught(self, monkeypatch, stage, waits_for):
        monkeypatch.setattr(schedule, "PIPELINE", tuple(
            r._replace(waits_for=waits_for) if r.stage == stage else r
            for r in schedule.PIPELINE))
        g, model = accelerated_stream()
        batches = [g.slice(0, 3 * U200_DESIGN.nb)]
        got = FPGAAccelerator(model, U200_DESIGN).run_stream(
            g, batch_size=1, batches=batches, trace=True)
        with pytest.raises(AssertionError):
            assert_same_report(
                got, oracle_run_stream(SMALL, U200_DESIGN, batches, True))
