"""Extension experiment: response time under sustained streaming load.

The paper's Fig. 5 latencies assume an idle accelerator per batch.  A
deployed system also queues: if a window closes while the device is busy,
its response time includes waiting.  This bench replays the Wikipedia
analogue's real 15-minute arrival process against the three systems at
increasing load multipliers (stream-time compression) and reports
utilization and response-time percentiles — the measurements an SLO needs.

Shape expectations: all systems are stable at 1x; as load multiplies, the
slowest system (CPU model) saturates first and its waiting time diverges;
the U200 sustains orders of magnitude more compression.
"""

import numpy as np
import pytest

from repro.hw import FPGAAccelerator, U200_DESIGN, ZCU104_DESIGN
from repro.models import ModelConfig
from repro.perf import CPU_32T, GPU
from repro.pipeline import (FIFTEEN_MINUTES, ModeledGPPBackend,
                            SimulatedFPGABackend, replay_under_load)
from repro.profiling import count_ops
from repro.reporting import render_table, save_result

SPEEDUPS = [1.0, 100.0, 3000.0, 30000.0]


def test_sustained_load(benchmark, capsys, wiki, wiki_np_models):
    model = wiki_np_models["NP(M)"]
    start = int(wiki.num_edges * 0.5)
    counts_base = count_ops(ModelConfig())

    def backends():
        return {
            "u200": SimulatedFPGABackend(
                FPGAAccelerator(model, U200_DESIGN), wiki),
            "zcu104": SimulatedFPGABackend(
                FPGAAccelerator(model, ZCU104_DESIGN), wiki),
            "gpu": ModeledGPPBackend(GPU, counts_base),
            "cpu": ModeledGPPBackend(CPU_32T, counts_base),
        }

    rows = []
    stats_by = {}
    for speedup in SPEEDUPS:
        for name, be in backends().items():
            s = replay_under_load(be, wiki, window_s=FIFTEEN_MINUTES,
                                  start=start, speedup=speedup)
            stats_by[(name, speedup)] = s
            rows.append({"load_x": speedup, "backend": name,
                         "util_pct": 100 * s.utilization,
                         "mean_wait_ms": s.mean_wait_s * 1e3,
                         "p95_resp_ms": s.p95_response_s * 1e3,
                         "stable": s.stable})
    table = render_table(rows, precision=3,
                         title="Sustained load — response time vs load "
                               "multiplier (Wikipedia, NP(M))")
    with capsys.disabled():
        print(table)
    save_result("sustained_load", table)

    # Shape assertions.
    for name in ("u200", "zcu104", "gpu", "cpu"):
        assert stats_by[(name, 1.0)].stable
        assert stats_by[(name, 1.0)].mean_wait_s < 1e-6
    # Utilization ordering at high load mirrors the latency ordering.
    hot = SPEEDUPS[-1]
    assert stats_by[("u200", hot)].utilization \
        < stats_by[("gpu", hot)].utilization \
        < stats_by[("cpu", hot)].utilization
    # CPU saturates (or nearly) at the hottest load while U200 stays cold.
    assert stats_by[("cpu", hot)].utilization > 0.5
    assert stats_by[("u200", hot)].utilization < 0.2

    benchmark.pedantic(
        lambda: replay_under_load(
            SimulatedFPGABackend(FPGAAccelerator(model, U200_DESIGN), wiki),
            wiki, window_s=FIFTEEN_MINUTES, start=start, speedup=100.0),
        rounds=3, iterations=1, warmup_rounds=1)
