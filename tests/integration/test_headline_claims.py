"""Integration: the paper's §VI headline claims hold in *shape*.

Reproduction targets (DESIGN.md E10):
  * 84 % computation reduction / 67 % memory-access reduction for NP(S);
  * FPGA > GPU > CPU ordering in latency and throughput at deployment batch
    sizes, with U200-vs-GPU and U200-vs-CPU factors in the paper's ballpark;
  * performance-model prediction error in the low-percent range (Fig. 6);
  * distilled students lose only a small amount of AP vs the teacher while
    the measured single-thread throughput improves monotonically along the
    Table II ladder.
"""

import numpy as np
import pytest

from repro.datasets import wikipedia_like
from repro.hw import FPGAAccelerator, U200_DESIGN, ZCU104_DESIGN
from repro.models import ModelConfig, TGNN, variant_ladder
from repro.perf import (CPU_32T, GPU, PerformanceModel,
                        validate_performance_model)
from repro.pipeline import SoftwareBackend, run_engine
from repro.profiling import count_ops
from repro.profiling.paper_reference import HEADLINE


@pytest.fixture(scope="module")
def wiki():
    return wikipedia_like(num_edges=3000, num_users=250, num_items=50)


@pytest.fixture(scope="module")
def np_model(wiki):
    cfg = ModelConfig(simplified_attention=True, lut_time_encoder=True,
                      pruning_budget=4, name="+NP(M)")
    m = TGNN(cfg, rng=np.random.default_rng(0))
    m.calibrate(wiki)
    return m


class TestComplexityClaims:
    def test_84pct_compute_67pct_memory(self):
        base = count_ops(ModelConfig())
        nps = count_ops(ModelConfig(simplified_attention=True,
                                    lut_time_encoder=True, pruning_budget=2))
        mac_red = 1 - nps.total_macs / base.total_macs
        mem_red = 1 - nps.total_mems / base.total_mems
        assert mac_red >= HEADLINE["compute_reduction"] - 0.03
        assert mem_red >= HEADLINE["mem_reduction"] - 0.04


class TestCrossPlatformOrdering:
    def test_fpga_beats_gpu_beats_cpu_latency(self, wiki, np_model):
        batch = 200
        u200 = FPGAAccelerator(np_model, U200_DESIGN)
        lat_fpga = u200.latency_single_batch(wiki, batch, warmup_edges=1000)
        counts_base = count_ops(ModelConfig())
        lat_gpu = GPU.latency_s(counts_base, batch)
        lat_cpu = CPU_32T.latency_s(counts_base, batch)
        assert lat_fpga < lat_gpu < lat_cpu
        # Paper: >= 4.6x vs GPU, >= 13.9x vs CPU with NP models on U200.
        assert lat_gpu / lat_fpga > 2.0
        assert lat_cpu / lat_fpga > 8.0

    def test_zcu104_comparable_to_gpu(self, wiki, np_model):
        """Paper: the embedded board reaches GPU-class latency."""
        batch = 200
        z = FPGAAccelerator(np_model, ZCU104_DESIGN)
        lat_z = z.latency_single_batch(wiki, batch, warmup_edges=1000)
        lat_gpu = GPU.latency_s(count_ops(ModelConfig()), batch)
        assert 0.2 < lat_z / lat_gpu < 5.0

    def test_throughput_ordering_at_large_batch(self, wiki, np_model):
        rep = FPGAAccelerator(np_model, U200_DESIGN).run_stream(
            wiki, 2000, end=2000)
        counts_base = count_ops(ModelConfig())
        thpt_gpu = 2000 / GPU.latency_s(counts_base, 2000)
        thpt_cpu = 2000 / CPU_32T.latency_s(counts_base, 2000)
        assert rep.throughput_eps > thpt_gpu > thpt_cpu

    def test_np_s_latency_under_10ms_on_u200(self, wiki):
        cfg = ModelConfig(simplified_attention=True, lut_time_encoder=True,
                          pruning_budget=2, name="+NP(S)")
        m = TGNN(cfg, rng=np.random.default_rng(0))
        m.calibrate(wiki)
        lat = FPGAAccelerator(m, U200_DESIGN).latency_single_batch(
            wiki, 200, warmup_edges=1000)
        assert lat < HEADLINE["np_s_latency_ms_max"] * 1e-3


class TestPerformanceModelClaim:
    def test_error_in_low_percent_range(self, wiki, np_model):
        pts = validate_performance_model(np_model, U200_DESIGN, wiki,
                                         [200, 500, 1000, 2000])
        mean_err = float(np.mean([p.latency_error for p in pts]))
        # Paper reports 9.9-12.8 %; ours is the same order (refined fill
        # term makes it tighter).
        assert mean_err < 0.15


class TestLadderThroughputMeasured:
    def test_measured_speedup_monotone_along_ladder(self, wiki):
        """Table II single-thread throughput: each optimization helps.

        Fastest of three timed passes per rung (as ``benchmarks/e2e``
        does): one 2000-edge wall-clock pass can read 3x slow when the
        host schedules something else, and the ordering asserted here is
        a claim about the kernels, not about the host.  The passes
        interleave the rungs, so a slow stretch of the host lands on every
        rung rather than on all three passes of one.
        """
        base_cfg = ModelConfig(memory_dim=64, time_dim=64, embed_dim=64,
                               edge_dim=172, num_neighbors=10)
        models = []
        for cfg in [base_cfg,
                    base_cfg.with_(simplified_attention=True,
                                   lut_time_encoder=True, lut_bins=32,
                                   name="+LUT"),
                    base_cfg.with_(simplified_attention=True,
                                   lut_time_encoder=True, lut_bins=32,
                                   pruning_budget=2, name="+NP(S)")]:
            m = TGNN(cfg, rng=np.random.default_rng(0))
            m.calibrate(wiki)
            models.append(m)
        thpts = [0.0] * len(models)
        for _ in range(3):
            for rung, m in enumerate(models):
                be = SoftwareBackend(m, wiki)
                run_engine(be, wiki, 200, end=400)       # warm the caches
                rep = run_engine(be, wiki, 200, start=400, end=2400)
                thpts[rung] = max(thpts[rung], rep.throughput_eps)
        assert thpts[1] > thpts[0]
        assert thpts[2] > thpts[1]
        # NP(S) headline: >= 2x measured single-thread speedup.
        assert thpts[2] / thpts[0] > 1.5
