"""Unit tests for streaming engines and the real-time window replay."""

import numpy as np
import pytest

from repro.autograd import no_grad
from repro.datasets import wikipedia_like
from repro.graph import iter_fixed_size
from repro.hw import FPGAAccelerator, ZCU104_DESIGN
from repro.models import KERNEL_STAGES, ModelConfig, TGNN
from repro.perf import CPU_32T, GPU, validate_performance_model
from repro.pipeline import (FIFTEEN_MINUTES, ModeledGPPBackend,
                            SimulatedFPGABackend, SoftwareBackend,
                            realtime_replay, run_engine, summarize)
from repro.profiling import count_ops
from repro.serving import DEFAULT_REGISTRY, ServingEngine

CFG = ModelConfig(memory_dim=8, time_dim=6, embed_dim=8, edge_dim=172,
                  num_neighbors=4, simplified_attention=True,
                  lut_time_encoder=True, lut_bins=8, pruning_budget=2)


def setup(model_cls=TGNN):
    g = wikipedia_like(num_edges=500, num_users=70, num_items=18)
    model = model_cls(CFG, rng=np.random.default_rng(0))
    model.calibrate(g)
    return g, model


class TestSoftwareBackend:
    def test_measured_report(self):
        g, model = setup()
        be = SoftwareBackend(model, g)
        rep = run_engine(be, g, batch_size=100, end=400)
        assert rep.n_edges == 400
        assert rep.total_latency_s > 0
        assert rep.throughput_eps > 0
        assert set(rep.stage_time_s) == {"sample", "memory", "gnn", "update"}

    def test_state_persists_across_batches(self):
        g, model = setup()
        be = SoftwareBackend(model, g)
        run_engine(be, g, batch_size=100, end=200)
        assert be.rt.state.has_mail(g.slice(0, 200).nodes).all()

    def test_backend_state_matches_the_training_path(self):
        """The served kernel (``prepare_inference`` + ``infer_batch``)
        leaves the memory ``process_batch`` leaves, batch for batch."""
        g, model = setup()
        rt = model.new_runtime(g)
        with no_grad():
            for b in iter_fixed_size(g, 100, end=400):
                model.process_batch(b, rt, g)
        be = SoftwareBackend(model, g)
        # The float64 deployed body; the float32 one is held to its own
        # bound in test_float32_deployment.
        be.rt = model.new_runtime(g, np.float64)
        run_engine(be, g, batch_size=100, end=400)
        assert np.allclose(be.rt.state.memory, rt.state.memory, atol=1e-12)
        assert np.array_equal(be.rt.state.last_update, rt.state.last_update)

    def test_process_batch_reports_what_compute_timed(self):
        """``compute`` is the one timed kernel call: ``process_batch``
        returns its seconds and sums its stage split into ``timings``."""
        g, model = setup()
        calls = []

        class Spy(SoftwareBackend):
            def compute(self, batch):
                calls.append(super().compute(batch))
                return calls[-1]

        rep = run_engine(Spy(model, g), g, batch_size=100, end=400)
        assert rep.batch_latencies_s == [seconds for seconds, _ in calls]
        assert rep.stage_time_s == {
            stage: sum(stages[stage] for _, stages in calls)
            for stage in KERNEL_STAGES}


class TestModeledBackend:
    def test_latency_constant_per_batch_size(self):
        g, _ = setup()
        counts = count_ops(CFG)
        be = ModeledGPPBackend(CPU_32T, counts)
        l1 = be.process_batch(g.slice(0, 100))
        l2 = be.process_batch(g.slice(100, 200))
        assert l1 == l2
        assert l1 == pytest.approx(CPU_32T.latency_s(counts, 100))

    @pytest.mark.parametrize("cost", [CPU_32T, GPU], ids=lambda c: c.name)
    @pytest.mark.parametrize("cfg", [
        ModelConfig(edge_dim=172, name="baseline"),
        ModelConfig(edge_dim=172, simplified_attention=True,
                    lut_time_encoder=True, pruning_budget=4, name="NP(4)")],
        ids=lambda c: c.name)
    def test_cached_marginal_prices_bit_for_bit(self, cost, cfg):
        """The backend sums its per-edge marginal once; every price is
        still ``latency_s``'s, bit for bit, and an empty batch raises."""
        g = wikipedia_like(num_edges=512, num_users=70, num_items=18)
        counts = count_ops(cfg)
        be = ModeledGPPBackend(cost, counts)
        for n in range(1, 513):
            assert be.process_batch(g.slice(0, n)).hex() \
                == cost.latency_s(counts, n).hex(), n
        with pytest.raises(ValueError):
            be.process_batch(g.slice(0, 0))


class KernelSpyTGNN(TGNN):
    """A model on which running a kernel, or building the runtime one
    would need, is a test failure."""

    def _executed(self, *args, **kwargs):
        raise AssertionError("a timing-only backend executed a kernel")

    infer_batch = process_batch = new_runtime = _executed


class TestSimulatedFPGAPricesOnly:
    """A pricing backend's latency needs batch shape alone, so nothing on
    the pricing side of the protocol — the simulated FPGA first of all —
    may touch the model beyond ``cfg``."""

    def test_serving_engine_runs_no_kernel(self):
        g, model = setup(KernelSpyTGNN)
        for name in ("u200", "zcu104", "cpu-32t", "gpu"):
            engine = ServingEngine.from_registry(name, model, g,
                                                 num_shards=4, memsync="push")
            report = engine.run(g, window_s=3600.0, num_streams=2,
                                speedup=2.0)
            assert report.windows > 0, name
            assert all(s.busy_s > 0 for s in report.shard_stats), name

    def test_registry_absorbs_the_retired_functional_kwarg(self):
        g, model = setup(KernelSpyTGNN)
        be = DEFAULT_REGISTRY.create("cpu-32t", model, g, functional=False)
        assert be.process_batch(g.slice(0, 50)) > 0
        assert not hasattr(be, "rt")

    def test_accelerator_and_validation_run_no_kernel(self):
        g, model = setup(KernelSpyTGNN)
        acc = FPGAAccelerator(model, ZCU104_DESIGN)
        assert acc.run_stream(g, 100, end=300).total_s > 0
        assert acc.latency_single_batch(g, 100, warmup_edges=200) > 0
        pts = validate_performance_model(model, ZCU104_DESIGN, g, [50, 200],
                                         warmup_edges=100)
        assert all(p.actual_latency_s > 0 for p in pts)

    def test_replays_run_no_kernel(self):
        g, model = setup(KernelSpyTGNN)
        be = SimulatedFPGABackend(FPGAAccelerator(model, ZCU104_DESIGN), g)
        assert be.process_batch(g.slice(0, 100)) > 0
        pts = realtime_replay(be, g, window_s=12 * 3600.0, start=300)
        assert pts and all(p.latency_s > 0 for p in pts)
        rep = ServingEngine([be], g.num_nodes).run(g, window_s=3600.0,
                                                  speedup=10.0)
        assert rep.windows > 0 and rep.shard_stats[0].utilization > 0
        assert not hasattr(be, "rt")


class TestRealtimeReplay:
    def test_windows_cover_range(self):
        g, model = setup()
        be = SoftwareBackend(model, g)
        pts = realtime_replay(be, g, window_s=6 * 3600.0, start=100, end=500)
        assert sum(p.n_edges for p in pts) == 400
        starts = [p.t_start_s for p in pts]
        assert starts == sorted(starts)

    def test_fpga_backend_replay(self):
        g, model = setup()
        acc = FPGAAccelerator(model, ZCU104_DESIGN)
        be = SimulatedFPGABackend(acc, g)
        pts = realtime_replay(be, g, window_s=12 * 3600.0, start=300, end=500)
        assert all(p.latency_s > 0 for p in pts)

    def test_summarize(self):
        g, model = setup()
        be = SoftwareBackend(model, g)
        pts = realtime_replay(be, g, window_s=6 * 3600.0, end=300)
        s = summarize(pts)
        lats = [p.latency_s for p in pts]
        assert s["windows"] == len(pts)
        # Host-timed latencies: one slow window can lift the mean above
        # the p95, so only the orderings every sample obeys are asserted.
        assert min(lats) <= s["mean_s"] <= s["max_s"] == max(lats)
        assert min(lats) <= s["p95_s"] <= s["max_s"]
        assert summarize([])["windows"] == 0

    def test_fifteen_minutes_constant(self):
        assert FIFTEEN_MINUTES == 900.0
