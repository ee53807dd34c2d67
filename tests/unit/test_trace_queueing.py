"""Unit tests for execution tracing / Gantt analysis and the queueing model."""

import numpy as np
import pytest

from repro.datasets import lastfm_like, mooc_like, wikipedia_like
from repro.hw import (FPGAAccelerator, U200_DESIGN, ZCU104_DESIGN,
                      pipeline_overlap, render_gantt, stage_utilization)
from repro.models import ModelConfig, TGNN
from repro.pipeline import (QueueStats, SimulatedFPGABackend,
                            replay_under_load)

CFG = ModelConfig(memory_dim=8, time_dim=6, embed_dim=8, edge_dim=172,
                  num_neighbors=4, simplified_attention=True,
                  lut_time_encoder=True, lut_bins=8, pruning_budget=2)


def setup(hw=None):
    g = wikipedia_like(num_edges=800, num_users=100, num_items=20)
    model = TGNN(CFG, rng=np.random.default_rng(0))
    model.calibrate(g)
    return g, model, FPGAAccelerator(model, hw or ZCU104_DESIGN)


class TestTrace:
    def test_events_collected_only_when_requested(self):
        g, model, acc = setup()
        off = acc.run_stream(g, 200, end=400)
        assert off.events == []
        on = acc.run_stream(g, 200, end=400, trace=True)
        assert len(on.events) > 0
        with pytest.raises(ValueError):
            stage_utilization(off)

    def test_events_well_formed(self):
        g, model, acc = setup()
        rep = acc.run_stream(g, 200, end=400, trace=True)
        for e in rep.events:
            assert e.end_s > e.start_s
            assert e.batch_index >= 0
        # Per-stage events never overlap (a stage is a single resource).
        by_stage = {}
        for e in rep.events:
            by_stage.setdefault(e.stage, []).append(e)
        for stage, evs in by_stage.items():
            evs.sort(key=lambda e: e.start_s)
            for a, b in zip(evs, evs[1:]):
                assert b.start_s >= a.end_s - 1e-12, stage

    def test_utilization_fractions(self):
        g, model, acc = setup()
        rep = acc.run_stream(g, 200, end=600, trace=True)
        util = stage_utilization(rep)
        assert all(0.0 <= u <= 1.0 + 1e-9 for u in util.values())
        # The bottleneck compute stages run near-continuously.
        assert max(util[s] for s in
                   ("muu_update_gate", "eu_ftm")) > 0.5

    def test_pipeline_overlap_above_serial(self):
        g, model, acc = setup()
        rep = acc.run_stream(g, 200, end=600, trace=True)
        assert pipeline_overlap(rep) > 1.5   # stages genuinely concurrent

    def test_gantt_renders(self):
        g, model, acc = setup()
        rep = acc.run_stream(g, 100, end=200, trace=True)
        chart = render_gantt(rep, width=60)
        lines = chart.splitlines()
        assert len(lines) >= 5
        assert all("|" in line for line in lines)
        body = "\n".join(lines[1:])
        assert any(ch.isdigit() for ch in body)

    def test_trace_events_match_stage_time(self):
        g, model, acc = setup()
        rep = acc.run_stream(g, 200, end=400, trace=True)
        busy = {}
        for e in rep.events:
            busy[e.stage] = busy.get(e.stage, 0.0) + e.duration_s
        for stage, total in busy.items():
            assert total == pytest.approx(rep.stage_time_s[stage], rel=1e-9)


class TestQueueing:
    def test_light_load_stable(self):
        g, model, acc = setup(U200_DESIGN)
        backend = SimulatedFPGABackend(acc, g)
        stats = replay_under_load(backend, g, window_s=3600.0, start=400)
        assert isinstance(stats, QueueStats)
        assert stats.stable
        assert stats.mean_wait_s == pytest.approx(0.0, abs=1e-6)
        assert stats.mean_response_s > 0
        assert stats.dropped_windows == 0

    def test_speedup_increases_utilization(self):
        g, model, acc = setup(ZCU104_DESIGN)
        b1 = SimulatedFPGABackend(FPGAAccelerator(model, ZCU104_DESIGN), g)
        s1 = replay_under_load(b1, g, window_s=3600.0, start=400)
        b2 = SimulatedFPGABackend(FPGAAccelerator(model, ZCU104_DESIGN), g)
        s2 = replay_under_load(b2, g, window_s=3600.0, start=400,
                               speedup=1e6)
        assert s2.utilization > s1.utilization
        assert s2.mean_response_s >= s1.mean_response_s

    def test_overload_queues_and_waits(self):
        """Windows arriving far faster than service -> waiting grows."""
        g, model, _ = setup()

        class SlowBackend:
            def process_batch(self, batch):
                return 10.0   # 10 s service per window

        stats = replay_under_load(SlowBackend(), g, window_s=3600.0,
                                  start=400, speedup=1e9)
        assert not stats.stable
        assert stats.mean_wait_s > 0
        assert stats.max_queue_depth > 1

    def test_capacity_drops(self):
        g, model, _ = setup()

        class SlowBackend:
            def process_batch(self, batch):
                return 10.0

        stats = replay_under_load(SlowBackend(), g, window_s=3600.0,
                                  start=400, speedup=1e9, queue_capacity=2)
        assert stats.dropped_windows > 0

    def test_validation(self):
        g, model, acc = setup()
        backend = SimulatedFPGABackend(acc, g)
        with pytest.raises(ValueError):
            replay_under_load(backend, g, window_s=0.0)
        with pytest.raises(ValueError):
            replay_under_load(backend, g, window_s=10.0, speedup=0.0)


class TestNewDatasets:
    def test_lastfm_featureless(self):
        g = lastfm_like(num_edges=300, num_users=60, num_items=10)
        assert g.edge_dim == 0 and g.node_dim == 0
        assert g.duration > 100 * 86_400 * 0.9   # long horizon

    def test_mooc_small_features(self):
        g = mooc_like(num_edges=300, num_users=60, num_items=10)
        assert g.edge_dim == 4
        assert g.duration < 15 * 86_400

    def test_registry_includes_new_names(self):
        from repro.datasets import load
        for name in ("lastfm", "mooc"):
            g = load(name, num_edges=100, num_users=30, num_items=10)
            assert g.num_edges == 100

    def test_model_runs_on_featureless_stream(self):
        g = lastfm_like(num_edges=200, num_users=40, num_items=10)
        cfg = ModelConfig(memory_dim=8, time_dim=6, embed_dim=8, edge_dim=0,
                          node_dim=0, num_neighbors=3,
                          simplified_attention=True)
        model = TGNN(cfg, rng=np.random.default_rng(0))
        rt = model.new_runtime(g)
        res = model.infer_batch(g.slice(0, 50), rt, g)
        assert res.embeddings.shape == (100, 8)
