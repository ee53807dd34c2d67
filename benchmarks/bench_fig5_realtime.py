"""Figure 5 (right column): real-time inference latency in 15-minute windows.

Paper artifact: replay the test stream in 15-minute batches and plot the
latency of each batch over stream time, for GPU, U200, and ZCU104.

Reproduction targets (shape): U200 well below GPU; ZCU104 in the GPU's
neighbourhood but with larger fluctuation (resource-constrained); NP(S)
under 10 ms per window on U200.
"""

import numpy as np
import pytest

from repro.hw import FPGAAccelerator, U200_DESIGN, ZCU104_DESIGN
from repro.models import ModelConfig
from repro.perf import GPU
from repro.pipeline import (FIFTEEN_MINUTES, LinearCostBackend,
                            SimulatedFPGABackend, realtime_replay, summarize)
from repro.profiling import count_ops
from repro.reporting import render_table, save_result


@pytest.mark.parametrize("dataset", ["wikipedia", "reddit", "gdelt"])
def test_fig5_realtime_windows(benchmark, capsys, datasets, dataset):
    graph = datasets[dataset]
    from conftest import np_model
    model = np_model(graph, 2)        # NP(S), the paper's real-time pick
    start = int(graph.num_edges * 0.85)

    counts = count_ops(ModelConfig(edge_dim=graph.edge_dim,
                                   node_dim=graph.node_dim))
    backends = {
        "u200": SimulatedFPGABackend(FPGAAccelerator(model, U200_DESIGN),
                                     graph),
        "gpu": LinearCostBackend(GPU.marginal_edge_s(counts),
                                 GPU.batch_overhead_s, name=GPU.name),
    }
    if dataset == "wikipedia":      # ZCU104 runs Wikipedia only (paper)
        backends["zcu104"] = SimulatedFPGABackend(
            FPGAAccelerator(model, ZCU104_DESIGN), graph)

    results = {}
    for name, be in backends.items():
        pts = realtime_replay(be, graph, window_s=FIFTEEN_MINUTES,
                              start=start)
        results[name] = pts

    rows = []
    for name, pts in results.items():
        s = summarize(pts)
        rows.append({"backend": name, "windows": int(s["windows"]),
                     "mean_edges": s["mean_edges"],
                     "mean_ms": s["mean_s"] * 1e3,
                     "p95_ms": s["p95_s"] * 1e3,
                     "max_ms": s["max_s"] * 1e3,
                     "cv": float(np.std([p.latency_s for p in pts])
                                 / max(np.mean([p.latency_s for p in pts]),
                                       1e-12))})
    table = render_table(rows, precision=3,
                         title=f"Figure 5 — 15-minute real-time replay "
                               f"({dataset}), NP(S)")
    sample = [{"t_hours": p.t_start_s / 3600.0, "edges": p.n_edges,
               "u200_ms": p.latency_s * 1e3}
              for p in results["u200"][:12]]
    table += "\n" + render_table(sample, precision=3,
                                 title="U200 latency trace (first windows)")
    with capsys.disabled():
        print(table)
    save_result(f"fig5_realtime_{dataset}", table)

    # --- shape assertions ---------------------------------------------------
    mean = {r["backend"]: r["mean_ms"] for r in rows}
    assert mean["u200"] < mean["gpu"]                      # U200 wins
    assert mean["u200"] < 10.0                             # NP(S) < 10 ms
    if "zcu104" in mean:
        cv = {r["backend"]: r["cv"] for r in rows}
        assert mean["zcu104"] < 8 * mean["gpu"]            # GPU-class
        assert cv["zcu104"] >= cv["gpu"] * 0.5             # fluctuates more

    benchmark.pedantic(
        lambda: realtime_replay(backends["u200"], graph,
                                window_s=FIFTEEN_MINUTES, start=start,
                                end=min(start + 400, graph.num_edges)),
        rounds=3, iterations=1, warmup_rounds=1)
