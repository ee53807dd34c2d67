"""Unit tests for the FPGA accelerator simulator."""

import numpy as np
import pytest

from repro.datasets import wikipedia_like
from repro.hw import (FPGAAccelerator, U200_DESIGN, UpdaterCache,
                      ZCU104_DESIGN, estimate_resources)
from repro.models import ModelConfig, TGNN
from repro.profiling.paper_reference import TABLE4

CFG = ModelConfig(memory_dim=8, time_dim=6, embed_dim=8, edge_dim=172,
                  num_neighbors=4, simplified_attention=True,
                  lut_time_encoder=True, lut_bins=8, pruning_budget=2)


def build(hw=None):
    g = wikipedia_like(num_edges=600, num_users=80, num_items=20)
    model = TGNN(CFG, rng=np.random.default_rng(0))
    model.calibrate(g)
    return g, model, FPGAAccelerator(model, hw or ZCU104_DESIGN)


class TestFunctional:
    def test_rejects_vanilla_attention(self):
        g = wikipedia_like(num_edges=50, num_users=20, num_items=5)
        vanilla = TGNN(CFG.with_(simplified_attention=False,
                                 lut_time_encoder=False, pruning_budget=None),
                       rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="simplified"):
            FPGAAccelerator(vanilla, ZCU104_DESIGN)

    def test_an_unprepared_model_stays_unprepared(self):
        """The simulator reads ``model.cfg`` only: building and running it
        never packs the caller's LUT cache."""
        g, model, acc = build()
        acc.run_stream(g, batch_size=100, end=200)
        assert model._premul_cache is None

    def test_updater_counts_duplicates(self):
        g, model, acc = build()
        report = acc.run_stream(g, batch_size=200, end=600)
        assert report.updater_invalidated > 0      # repeat vertices exist
        assert report.updater_committed + report.updater_invalidated \
            == 2 * report.n_edges


class TestTiming:
    def test_report_consistency(self):
        g, model, acc = build()
        report = acc.run_stream(g, batch_size=100, end=400)
        assert report.n_edges == 400
        assert report.total_s > 0
        assert len(report.batch_latencies_s) == 4
        assert report.throughput_eps == pytest.approx(400 / report.total_s)
        assert report.mean_latency_s > 0

    def test_throughput_improves_with_batch_size(self):
        g, model, acc = build()
        small = acc.run_stream(g, batch_size=20, end=200)
        acc2 = FPGAAccelerator(model, ZCU104_DESIGN)
        large = acc2.run_stream(g, batch_size=200, end=200)
        assert large.throughput_eps >= small.throughput_eps * 0.95

    def test_u200_faster_than_zcu104(self):
        g, model, _ = build()
        u = FPGAAccelerator(model, U200_DESIGN).run_stream(g, 200, end=600)
        z = FPGAAccelerator(model, ZCU104_DESIGN).run_stream(g, 200, end=600)
        assert u.throughput_eps > 2 * z.throughput_eps
        assert u.mean_latency_s < z.mean_latency_s

    def test_prefetch_ablation_slower(self):
        g, model, _ = build()
        on = FPGAAccelerator(model, ZCU104_DESIGN)
        off = FPGAAccelerator(model, ZCU104_DESIGN.with_(prefetch=False))
        t_on = on.run_stream(g, 200, end=600).total_s
        t_off = off.run_stream(g, 200, end=600).total_s
        assert t_off >= t_on

    def test_pruning_budget_speeds_up(self):
        g = wikipedia_like(num_edges=400, num_users=60, num_items=15)
        results = {}
        for budget in (4, 2):
            cfg = CFG.with_(pruning_budget=budget)
            m = TGNN(cfg, rng=np.random.default_rng(0))
            m.calibrate(g)
            rep = FPGAAccelerator(m, ZCU104_DESIGN).run_stream(g, 200, end=400)
            results[budget] = rep.total_s
        assert results[2] <= results[4]

    def test_latency_single_batch(self):
        g, model, acc = build()
        lat = acc.latency_single_batch(g, batch_size=100, warmup_edges=200)
        assert lat > 0
        # ``warmup_edges`` selects the batch: vertex state cannot change
        # the price, so nothing is replayed to reach that offset.
        plain = acc.run_stream(g, 100, start=200, end=300)
        assert lat == plain.batch_latencies_s[0]
        # A batch cut at the stream end is the edges that are left.
        tail = acc.latency_single_batch(g, 100, warmup_edges=g.num_edges - 1)
        assert tail == acc.run_stream(g, 1, start=g.num_edges - 1) \
            .batch_latencies_s[0]

    @pytest.mark.parametrize("warmup", [-1, 600, 601])
    def test_latency_single_batch_rejects_an_offset_off_the_stream(
            self, warmup):
        g, _, acc = build()
        assert g.num_edges == 600
        with pytest.raises(ValueError, match="warmup_edges"):
            acc.latency_single_batch(g, 100, warmup_edges=warmup)

    def test_latency_single_batch_rejects_an_empty_batch(self):
        g, _, acc = build()
        with pytest.raises(ValueError, match="batch_size"):
            acc.latency_single_batch(g, 0)

    def test_stage_times_cover_pipeline(self):
        g, model, acc = build()
        report = acc.run_stream(g, batch_size=100, end=300)
        for key in ("load_edges", "load_vertex", "prefetch", "store",
                    "muu_update_gate", "eu_fam", "eu_ftm"):
            assert report.stage_time_s.get(key, 0.0) > 0.0, key


class CountingAccelerator(FPGAAccelerator):
    """Counts the recurrence runs and keeps every batch it is asked to
    price: a timing-free view of how often the schedule is simulated."""

    def __init__(self, model, hw):
        super().__init__(model, hw)
        self.simulated = 0
        self.priced = []

    def run_stream(self, *args, **kwargs):
        self.simulated += 1
        return super().run_stream(*args, **kwargs)

    def batch_latency(self, batch):
        self.priced.append(batch)
        return super().batch_latency(batch)


class TestPricingTable:
    def test_canonical_u200_fleet_simulates_each_key_once_per_shard(
            self, monkeypatch):
        """The ``serve-sim --backend u200 --shards 4 --streams 4 --memsync
        push --edges 32 --batch-edges 200 --deadline-ms 5`` fleet, with the
        accelerator swapped for a counting one through the registry: the
        schedule runs once per distinct ``(edges, committed, cycles)`` per
        shard, not once per sub-job, and reads the sub-jobs' endpoints
        only, so no feature row is taken off a plan."""
        from repro import datasets
        from repro.hw import plan_shard_dies
        from repro.pipeline import SimulatedFPGABackend
        from repro.serving import (BackendRegistry, DynamicBatcher,
                                   ServingEngine, VertexHeat, make_policy)
        from repro.serving.router import PlanRows

        feature_reads = []
        honest = PlanRows.edge_feat

        @property
        def counted(rows):
            feature_reads.append(len(rows))
            return honest.fget(rows)

        monkeypatch.setattr(PlanRows, "edge_feat", counted)

        graph = datasets.load("wikipedia", num_edges=32, seed=0)
        model = TGNN(ModelConfig(memory_dim=32, time_dim=32, embed_dim=32,
                                 edge_dim=graph.edge_dim,
                                 node_dim=graph.node_dim,
                                 simplified_attention=True,
                                 lut_time_encoder=True, pruning_budget=4),
                     rng=np.random.default_rng(0))
        hw = U200_DESIGN
        accelerators = []
        registry = BackendRegistry()

        @registry.register("u200")
        def _u200(model, graph, **_):
            accelerators.append(CountingAccelerator(model, hw))
            return SimulatedFPGABackend(accelerators[-1], graph)

        placement = make_policy("hash").place(VertexHeat.from_graph(graph), 4)
        engine = ServingEngine.from_registry(
            "u200", model, graph, num_shards=4, registry=registry,
            batcher=DynamicBatcher(max_edges=200, max_delay_s=5e-3),
            topology="sharded", memsync="push", placement=placement,
            die_of=plan_shard_dies(4, hw.platform.dies),
            mail_hop_s=hw.die_crossing_cycles * hw.clock_s)
        engine.run(graph, window_s=900.0, speedup=2.0, num_streams=4)

        updater = UpdaterCache(hw.updater_lines, hw.commit_scan)
        for acc in accelerators:
            keys = set()
            for b in acc.priced:
                assert len(b) <= hw.nb          # one processing batch each
                r = updater.process(b.nodes)
                keys.add((len(b), r.committed, r.cycles))
            assert acc.simulated == len(keys)
        assert sum(len(acc.priced) for acc in accelerators) == 208
        assert sum(acc.simulated for acc in accelerators) == 4
        assert feature_reads == []


class TestResources:
    def test_u200_estimate_near_table4(self):
        est = estimate_resources(ModelConfig(simplified_attention=True,
                                             lut_time_encoder=True,
                                             pruning_budget=4), U200_DESIGN)
        ref = TABLE4["u200"]
        assert est.dsp == pytest.approx(ref["dsp"], rel=0.25)
        assert est.lut == pytest.approx(ref["lut"], rel=0.25)
        assert est.bram == pytest.approx(ref["bram"], rel=0.25)
        assert est.uram == pytest.approx(ref["uram"], rel=0.25)
        assert est.fits

    def test_zcu104_estimate_near_table4(self):
        est = estimate_resources(ModelConfig(simplified_attention=True,
                                             lut_time_encoder=True,
                                             pruning_budget=4), ZCU104_DESIGN)
        ref = TABLE4["zcu104"]
        assert est.uram == 0                      # matches published design
        assert est.dsp == pytest.approx(ref["dsp"], rel=0.5)
        assert est.lut == pytest.approx(ref["lut"], rel=0.25)
        assert est.bram == pytest.approx(ref["bram"], rel=0.35)
        assert est.fits

    def test_dsp_scales_with_parallelism(self):
        cfg = ModelConfig(simplified_attention=True)
        small = estimate_resources(cfg, ZCU104_DESIGN)
        big = estimate_resources(cfg, ZCU104_DESIGN.with_(sg=8))
        assert big.dsp > small.dsp

    def test_utilization_fractions(self):
        cfg = ModelConfig(simplified_attention=True, lut_time_encoder=True)
        est = estimate_resources(cfg, U200_DESIGN)
        util = est.utilization(U200_DESIGN)
        assert 0 < util["dsp"] < 1 and 0 < util["lut"] < 1
