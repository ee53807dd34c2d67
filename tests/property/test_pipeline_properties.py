"""Property-based invariants of the queueing replay, batching and the
accelerator's priced-only timing."""

import functools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import wikipedia_like
from repro.graph import TemporalGraph, iter_fixed_size, iter_time_windows
from repro.hw import FPGAAccelerator, U200_DESIGN, ZCU104_DESIGN
from repro.models import ModelConfig, TGNN
from repro.pipeline import replay_under_load

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


class ConstBackend:
    def __init__(self, service_s: float):
        self.service_s = service_s

    def process_batch(self, batch) -> float:
        return self.service_s


class TestQueueingProperties:
    @given(stream(), st.floats(1e-4, 0.5), st.floats(1.0, 100.0))
    def test_response_at_least_service(self, g, service, speedup):
        stats = replay_under_load(ConstBackend(service), g,
                                  window_s=600.0, speedup=speedup)
        assert stats.mean_response_s >= service - 1e-12
        assert stats.mean_response_s >= stats.mean_wait_s
        assert stats.windows >= 1

    @given(stream(), st.floats(0.01, 0.2))
    def test_more_load_never_reduces_waiting(self, g, service):
        lo = replay_under_load(ConstBackend(service), g, window_s=600.0,
                               speedup=1.0)
        hi = replay_under_load(ConstBackend(service), g, window_s=600.0,
                               speedup=1000.0)
        assert hi.utilization >= lo.utilization - 1e-9
        assert hi.mean_wait_s >= lo.mean_wait_s - 1e-9

    @given(stream(), st.integers(1, 10))
    def test_windows_and_fixed_batches_cover_same_edges(self, g, size):
        from_windows = sum(len(b) for b in iter_time_windows(g, 600.0))
        from_fixed = sum(len(b) for b in iter_fixed_size(g, size))
        assert from_windows == from_fixed == g.num_edges


@functools.lru_cache(maxsize=None)
def accelerated_stream():
    g = wikipedia_like(num_edges=500, num_users=60, num_items=15)
    model = TGNN(ModelConfig(memory_dim=8, time_dim=6, embed_dim=8,
                             edge_dim=172, num_neighbors=4,
                             simplified_attention=True,
                             lut_time_encoder=True, lut_bins=8,
                             pruning_budget=2),
                 rng=np.random.default_rng(0))
    model.calibrate(g)
    return g, model


@st.composite
def design_and_batches(draw):
    """A design point plus consecutive user batches whose sizes straddle
    its processing-batch size ``nb`` (one edge, exact multiples, tails)."""
    hw = draw(st.sampled_from([U200_DESIGN, ZCU104_DESIGN])).with_(
        prefetch=draw(st.booleans()))
    nb = hw.nb
    size = st.sampled_from([1, nb - 1, nb, nb + 1, 2 * nb, 2 * nb + 3]) \
        | st.integers(1, 3 * nb)
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
    def test_priced_report_equals_executed_report(self, case, trace):
        """Timing reads nothing the kernels produce: skipping them, and
        reusing an accelerator whose cost tables are already cached, leaves
        every timing field exactly (``==``) as an executing run reports."""
        hw, batches = case
        g, model = accelerated_stream()

        def run(acc, execute):
            return acc.run_stream(g, batch_size=1, batches=batches,
                                  trace=trace, execute=execute)

        executed = run(FPGAAccelerator(model, hw), True)
        acc = FPGAAccelerator(model, hw)
        cold, warm = run(acc, False), run(acc, False)
        assert bool(executed.events) == trace
        for name in TIMING_FIELDS:
            assert getattr(cold, name) == getattr(executed, name), name
            assert getattr(warm, name) == getattr(executed, name), name
