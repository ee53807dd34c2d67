"""Unit tests for the measured worker-pool serving backend.

Structure vs values: a measured run's *structure* (which jobs land on
which shards, queue depths, drop/served accounting, event order) is
deterministic, while the service-time *values* are wall-clock.  The
tests therefore compare :func:`structure_json` projections across worker counts and assert invariants — never exact
timing values — on the ``measured`` block.

``REPRO_WORKERS`` selects the worker-lane count for the engine- and
CLI-driven tests (default 0 = in-process).  CI runs this file a second
time with ``REPRO_WORKERS=4`` so the real process pool is exercised on
every change, not just the in-process fallback.
"""

import json
import os

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.datasets import wikipedia_like
from repro.models import KERNEL_STAGES, ModelConfig, TGNN
from repro.pipeline import LinearCostBackend, SoftwareBackend
from repro.profiling import modeled_vs_measured
from repro.serving import (DEFAULT_REGISTRY, EventScheduler,
                           MeasuredServerGroup, ServerGroup, ServingEngine,
                           WorkerPool)

WORKERS = int(os.environ.get("REPRO_WORKERS", "0"))


def _null_floats(obj):
    """Recursively replace floats with ``None`` (bools/ints untouched).

    The projection behind :func:`structure_json`: it keeps every count,
    name, and flag while erasing the values that a measured run cannot
    reproduce bit-for-bit.
    """
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        return None
    if isinstance(obj, dict):
        return {key: _null_floats(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_null_floats(value) for value in obj]
    return obj


def structure_json(report) -> str:
    """A :class:`ServingReport` as canonical JSON with every float nulled
    out.

    Measured-backend runs are deterministic in *structure* (which
    windows were served, how work was split, every counter) but not in
    timing values — those are real wall-clock measurements.  This
    projection is the byte-comparable form: two runs of the same
    workload agree on it exactly, whatever the host was doing.
    """
    return json.dumps(_null_floats(report.to_dict()), sort_keys=True,
                      indent=2, allow_nan=False)

CFG = ModelConfig(memory_dim=8, time_dim=6, embed_dim=8, edge_dim=172,
                  num_neighbors=4, simplified_attention=True,
                  lut_time_encoder=True, lut_bins=8, pruning_budget=2)


@pytest.fixture(scope="module")
def setup():
    g = wikipedia_like(num_edges=400, num_users=60, num_items=16)
    model = TGNN(CFG, rng=np.random.default_rng(0))
    model.calibrate(g)
    model.prepare_inference()
    return g, model


def measured_engine(model, g, *, workers=WORKERS, shards=2, **kwargs):
    return ServingEngine.from_registry("measured", model, g,
                                       num_shards=shards, workers=workers,
                                       **kwargs)


def light_run(engine, g):
    # Low speedup keeps the arrival span dominant, so queue depths stay
    # at zero regardless of how fast this host's kernels happen to be —
    # the precondition for structure identity across worker counts.
    span = float(g.t[-1] - g.t[0])
    return engine.run(g, window_s=span / 20, speedup=50.0)


def run_cli(argv):
    lines = []
    code = cli_main(argv, out=lines.append)
    return code, "\n".join(str(x) for x in lines)


# --------------------------------------------------------------------------- #
# WorkerPool event-time lane model (pure arithmetic, no processes)


class TestWorkerPoolLanes:
    def test_shards_round_robin_onto_lanes(self):
        pool = WorkerPool(2)
        assert [pool.lane_of(s) for s in range(4)] == [0, 1, 0, 1]

    def test_commit_serializes_per_lane(self):
        pool = WorkerPool(2)
        assert pool.begin(0, 0.0) == 0.0
        pool.hold(0, 1.0)
        # Shard 1 owns the other lane: no contention.
        assert pool.begin(1, 0.0) == 0.0
        pool.hold(1, 1.0)
        # Shard 2 shares lane 0 with shard 0: queues behind its finish.
        assert pool.begin(2, 0.0) == 1.0
        pool.hold(2, 2.0)
        # An idle gap: the lane horizon never pulls a start backwards.
        assert pool.begin(0, 5.0) == 5.0

    def test_workers_zero_is_one_virtual_lane_per_shard(self):
        pool = WorkerPool(0)
        for s in range(4):
            assert pool.begin(s, 0.0) == 0.0
            pool.hold(s, 1.0)
        assert pool.begin(0, 0.0) == 1.0

    def test_negative_workers_rejected(self):
        for bad in (-1, 1.5):
            with pytest.raises(ValueError, match="non-negative integer"):
                WorkerPool(bad)


# --------------------------------------------------------------------------- #
# The measured backend times the kernels the software backend runs


def test_measured_backend_runs_the_software_backends_kernels():
    """Same model, same batches: ``measured`` prepares the model exactly
    as ``SoftwareBackend`` does, so the two leave byte-identical vertex
    state (an unprepared LUT model differs in the last bits)."""
    g = wikipedia_like(num_edges=600, num_users=60, num_items=16)

    def unprepared():
        model = TGNN(CFG, rng=np.random.default_rng(0))
        model.calibrate(g)
        return model

    measured = DEFAULT_REGISTRY.create("measured", unprepared(), g)
    software = SoftwareBackend(unprepared(), g)
    assert measured.model._premul_cache is not None
    for backend in (measured, software):
        for lo in (0, 200, 400):
            backend.process_batch(g.slice(lo, lo + 200))
    got, want = measured.rt.state.snapshot(), software.rt.state.snapshot()
    for name in want:
        assert got[name].tobytes() == want[name].tobytes(), name


class OneSecondBackend:
    """Every batch computes for exactly one second; its pricing companion
    prices every batch at one second too."""

    modeled = LinearCostBackend(per_edge_s=0.0, overhead_s=1.0)

    def compute(self, _batch):
        return 1.0, {}


def test_slow_shard_degrades_measured_and_modeled_service_alike():
    """A slow shard's factor applies once, to the whole service — kernel
    seconds plus hop cost — whether the kernel seconds were measured or
    priced; the lane stays busy for the degraded service too."""
    def served(make_group):
        sched = EventScheduler()
        group = make_group(sched)
        group.service_factor = 4.0
        group.submit(0.0, ("job", 0))
        sched.run()
        return group.finalize().service_s.tolist()

    pool = WorkerPool(0)
    measured = served(lambda sched: MeasuredServerGroup(
        0, 1, OneSecondBackend(), pool, sched,
        extra_service=lambda _payload: 0.5))
    modeled = served(lambda sched: ServerGroup(0, 1, lambda _p: 1.5, sched))
    assert measured == modeled == [6.0]
    assert pool.begin(0, 0.0) == 6.0


# --------------------------------------------------------------------------- #
# Engine integration


class TestMeasuredEngine:
    def test_measured_block_invariants(self, setup):
        g, model = setup
        report = light_run(measured_engine(model, g), g)
        m = report.measured
        assert m is not None
        assert m["workers"] == WORKERS
        jobs = sum(s.jobs for s in report.shard_stats)
        assert m["samples"] == jobs > 0
        assert sum(p["samples"] for p in m["per_shard"]) == jobs
        assert len(m["per_shard"]) == 2
        assert m["mean_s"] > 0
        assert np.isfinite(m["cv2"]) and m["cv2"] >= 0
        # The backend prices every batch through its cost-model companion.
        assert m["modeled_mean_s"] > 0
        assert set(m["stage_seconds"]) <= set(KERNEL_STAGES)
        assert all(v >= 0 for v in m["stage_seconds"].values())
        # The bench's modeled-vs-measured table reads this block: one row
        # per shard plus the pooled one.
        rows = modeled_vs_measured(m)
        assert [r["shard"] for r in rows] == ["0", "1", "all"]
        assert rows[-1]["modeled/measured"] > 0

    def test_measured_block_omitted_when_off(self, setup):
        g, model = setup
        engine = ServingEngine.from_registry("cpu-32t", model, g,
                                             num_shards=2,
                                             backend_kwargs={
                                                 "functional": False})
        report = light_run(engine, g)
        assert report.measured is None
        assert "measured" not in report.to_dict()
        assert '"measured"' not in report.to_json()

    def test_structure_identical_across_worker_counts(self, setup):
        g, model = setup
        structures, blocks = [], []
        for workers in (0, 1, 4):
            report = light_run(measured_engine(model, g, workers=workers), g)
            s = json.loads(structure_json(report))
            blocks.append(s.pop("measured"))
            structures.append(s)
        assert structures[0] == structures[1] == structures[2]
        # The measured block is the one place worker counts may differ —
        # and only in the lane count and the (nulled) timing floats.
        assert [b["workers"] for b in blocks] == [0, 1, 4]
        assert len({b["samples"] for b in blocks}) == 1
        per_shard = [[p["samples"] for p in b["per_shard"]] for b in blocks]
        assert per_shard[0] == per_shard[1] == per_shard[2]

    def test_measured_requires_sharded_topology(self, setup):
        g, model = setup
        with pytest.raises(ValueError, match="sharded"):
            measured_engine(model, g, topology="pool")

    def test_workers_require_a_measured_backend(self, setup):
        g, model = setup
        with pytest.raises(ValueError, match="workers"):
            ServingEngine.from_registry("cpu-32t", model, g, num_shards=2,
                                        workers=2)

    def test_fractional_workers_rejected(self, setup):
        """A worker count is a count: 1.5 used to run one lane."""
        g, model = setup
        with pytest.raises(ValueError, match="non-negative integer"):
            measured_engine(model, g, workers=1.5)


# --------------------------------------------------------------------------- #
# CLI surface (in-process, same idiom as test_cli)


CLI_BASE = ["serve-sim", "--dataset", "wikipedia", "--edges", "300",
            "--shards", "2", "--backend", "measured", "--memory-dim", "8",
            "--workers", str(WORKERS)]


class TestMeasuredCLI:
    def test_check_trace_clean(self):
        code, text = run_cli(CLI_BASE + ["--check-trace"])
        assert code == 0
        assert "trace check: clean" in text
        assert "measured:" in text and "worker lane(s)" in text

    def test_chaos_dead_check_trace_clean(self):
        code, text = run_cli(CLI_BASE + [
            "--edges", "400", "--window-s", "3600", "--speedup", "2000",
            "--fail-at", "300", "--fail-shard", "1", "--fail-mode", "dead",
            "--check-trace"])
        assert code == 0
        assert "trace check: clean" in text
        assert "chaos dead:" in text

    def test_workers_on_modeled_backend_is_a_clean_error(self):
        code, text = run_cli(["serve-sim", "--dataset", "wikipedia",
                              "--edges", "300", "--shards", "2",
                              "--backend", "cpu-32t", "--memory-dim", "8",
                              "--workers", "2"])
        assert code == 2
        assert "error: workers only applies to measured backends" in text

    def test_pool_topology_is_a_clean_error(self):
        code, text = run_cli(CLI_BASE + ["--topology", "pool"])
        assert code == 2
        assert "error: measured backends require topology='sharded'" in text
