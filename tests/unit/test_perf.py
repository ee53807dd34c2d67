"""Unit tests for the §V performance model and the GPP cost models."""

import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.hw import U200_DESIGN, ZCU104_DESIGN
from repro.models import ModelConfig
from repro.perf import CPU_32T, GPU, PerformanceModel, ValidationPoint
from repro.profiling import count_ops, count_ops_apan

SIMPLE = ModelConfig(simplified_attention=True, lut_time_encoder=True,
                     pruning_budget=4)


class TestPerformanceModel:
    def test_rejects_vanilla(self):
        with pytest.raises(ValueError):
            PerformanceModel(ModelConfig(), U200_DESIGN)

    def test_pipeline_period_structure(self):
        # The published designs are compute-bound (§III); starve the ZCU104
        # of bandwidth and the load/store term sets the period instead.
        starved = ZCU104_DESIGN.with_(platform=dataclasses.replace(
            ZCU104_DESIGN.platform, name="starved", ddr_bw_gbs=0.05))
        for hw, bound in ((U200_DESIGN, "t_comp_s"),
                          (ZCU104_DESIGN, "t_comp_s"), (starved, "t_ls_s")):
            pred = PerformanceModel(SIMPLE, hw).pipeline_period()
            assert pred.tp_s == max(pred.t_comp_s, pred.t_ls_s) \
                == getattr(pred, bound) > 0, hw.platform.name

    def test_package_imports_first(self):
        """``hw.dse`` imports ``performance_model``, which imports
        ``hw.config``: the cycle must resolve from a fresh interpreter."""
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep
                   + os.environ.get("PYTHONPATH", ""))
        subprocess.run([sys.executable, "-c", "import repro.perf"],
                       env=env, check=True, timeout=60)

    def test_latency_monotone_in_batch_size(self):
        pm = PerformanceModel(SIMPLE, ZCU104_DESIGN)
        lats = [pm.predict(n).latency_s for n in (100, 500, 2000)]
        assert lats[0] < lats[1] < lats[2]

    def test_throughput_saturates(self):
        pm = PerformanceModel(SIMPLE, U200_DESIGN)
        t_small = pm.predict(50).throughput_eps
        t_large = pm.predict(5000).throughput_eps
        steady = pm.pipeline_period().throughput_eps
        assert t_small < t_large <= steady * 1.001

    def test_u200_dominates_zcu104(self):
        u = PerformanceModel(SIMPLE, U200_DESIGN).predict(1000)
        z = PerformanceModel(SIMPLE, ZCU104_DESIGN).predict(1000)
        assert u.latency_s < z.latency_s
        assert u.throughput_eps > z.throughput_eps

    def test_more_bandwidth_never_hurts(self):
        from repro.hw.platforms import FPGAPlatform
        slow = ZCU104_DESIGN
        fat_platform = FPGAPlatform(name="fat", dies=1, luts_per_die=230_000,
                                    dsps_per_die=1728, brams_per_die=312,
                                    urams_per_die=96, ddr_bw_gbs=200.0)
        fast = ZCU104_DESIGN.with_(platform=fat_platform)
        a = PerformanceModel(SIMPLE, slow).predict(1000)
        b = PerformanceModel(SIMPLE, fast).predict(1000)
        assert b.latency_s <= a.latency_s

    def test_pruning_reduces_period(self):
        light = SIMPLE.with_(pruning_budget=2)
        heavy = SIMPLE.with_(pruning_budget=None)
        a = PerformanceModel(light, ZCU104_DESIGN).pipeline_period()
        b = PerformanceModel(heavy, ZCU104_DESIGN).pipeline_period()
        assert a.t_ls_s < b.t_ls_s

    def test_invalid_batch(self):
        pm = PerformanceModel(SIMPLE, U200_DESIGN)
        with pytest.raises(ValueError):
            pm.predict(0)


class TestValidationPoint:
    def test_errors_are_relative_to_the_measurement(self):
        p = ValidationPoint(batch_size=100, predicted_latency_s=1.5,
                            actual_latency_s=2.0,
                            predicted_throughput_eps=120.0,
                            actual_throughput_eps=100.0)
        assert p.latency_error == pytest.approx(0.25)
        assert p.throughput_error == pytest.approx(0.2)


class TestGPPModels:
    def test_calibration_anchor_latencies(self):
        counts = count_ops(ModelConfig())
        assert CPU_32T.latency_s(counts, 200) == pytest.approx(64e-3, rel=0.01)
        assert GPU.latency_s(counts, 200) == pytest.approx(8e-3, rel=0.01)

    def test_plateau_throughput(self):
        counts, n = count_ops(ModelConfig()), 100_000
        assert n / CPU_32T.latency_s(counts, n) \
            == pytest.approx(6.5e3, rel=0.05)
        assert n / GPU.latency_s(counts, n) \
            == pytest.approx(60e3, rel=0.05)

    def test_gpu_faster_than_cpu_everywhere(self):
        counts = count_ops(ModelConfig())
        for n in (10, 100, 1000, 10000):
            assert GPU.latency_s(counts, n) < CPU_32T.latency_s(counts, n)

    def test_simplified_model_cheaper(self):
        base = count_ops(ModelConfig())
        light = count_ops(ModelConfig(simplified_attention=True,
                                      lut_time_encoder=True,
                                      pruning_budget=2))
        assert CPU_32T.marginal_edge_s(light) < CPU_32T.marginal_edge_s(base)

    def test_apan_light_runtime_lower_latency(self):
        tgn = count_ops(ModelConfig())
        apan = count_ops_apan(ModelConfig())
        lat_tgn = GPU.latency_s(tgn, 200)
        lat_apan = GPU.latency_s(apan, 200, light_runtime=True)
        assert lat_apan < lat_tgn

    def test_part_times(self):
        counts = count_ops(ModelConfig())
        parts = CPU_32T.part_times_s(counts, {"sample": 9e-9, "update": 23e-9})
        assert parts["gnn"] > parts["memory"]   # the GNN's MACs dominate
        assert parts["sample"] >= 9e-9

    def test_invalid_batch(self):
        with pytest.raises(ValueError):
            GPU.latency_s(count_ops(ModelConfig()), 0)
