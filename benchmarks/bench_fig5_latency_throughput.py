"""Figure 5 (left two columns): latency & throughput vs batch size.

Paper artifact: per dataset, latency and throughput curves over batch sizes
for the CPU (32T) and GPU baselines running TGN-attn, and our accelerator on
U200 / ZCU104 running NP(L/M/S).

Reproduction targets (shape): FPGA latency below GPU below CPU at every
batch size; throughput saturation with batch size; NP(S) fastest of the NP
family; U200 above ZCU104 by roughly the resource ratio.
"""

import numpy as np
import pytest

from repro.hw import FPGAAccelerator, U200_DESIGN, ZCU104_DESIGN
from repro.models import ModelConfig
from repro.perf import CPU_32T, GPU
from repro.profiling import count_ops
from repro.reporting import render_table, save_result

BATCHES = [100, 200, 500, 1000, 2000, 4000]


def _fpga_curve(model, hw, graph):
    acc = FPGAAccelerator(model, hw)
    lat, thpt = [], []
    for n in BATCHES:
        rep = acc.run_stream(graph, batch_size=n, start=0,
                             end=min(2 * n, graph.num_edges))
        lat.append(rep.batch_latencies_s[0])
        thpt.append(n / rep.batch_latencies_s[0])
    return lat, thpt


@pytest.mark.parametrize("dataset", ["wikipedia", "reddit", "gdelt"])
def test_fig5_latency_throughput_sweep(benchmark, capsys, datasets, dataset,
                                       wiki_np_models):
    graph = datasets[dataset]
    base_counts = count_ops(ModelConfig(edge_dim=graph.edge_dim,
                                        node_dim=graph.node_dim))

    # Baselines (TGN-attn on GPP cost models).
    cpu_lat = [CPU_32T.latency_s(base_counts, n) for n in BATCHES]
    gpu_lat = [GPU.latency_s(base_counts, n) for n in BATCHES]

    # Ours: NP(L/M/S) on both FPGAs.  ZCU104 runs Wikipedia only in the
    # paper (external-memory limit); we follow the same protocol.
    from conftest import np_model
    curves = {}
    for name, budget in (("NP(L)", 6), ("NP(M)", 4), ("NP(S)", 2)):
        model = np_model(graph, budget)
        curves[("u200", name)] = _fpga_curve(model, U200_DESIGN, graph)
        if dataset == "wikipedia":
            curves[("zcu104", name)] = _fpga_curve(model, ZCU104_DESIGN,
                                                   graph)

    rows = []
    for i, n in enumerate(BATCHES):
        row = {"batch": n,
               "cpu_ms": cpu_lat[i] * 1e3, "gpu_ms": gpu_lat[i] * 1e3}
        for (board, name), (lat, thpt) in curves.items():
            row[f"{board}_{name}_ms"] = lat[i] * 1e3
        rows.append(row)
    table = render_table(rows, precision=2,
                         title=f"Figure 5 — latency vs batch ({dataset}) [ms]")

    trows = []
    for i, n in enumerate(BATCHES):
        row = {"batch": n,
               "cpu_kEs": n / cpu_lat[i] / 1e3,
               "gpu_kEs": n / gpu_lat[i] / 1e3}
        for (board, name), (lat, thpt) in curves.items():
            row[f"{board}_{name}_kEs"] = thpt[i] / 1e3
        trows.append(row)
    table += "\n" + render_table(
        trows, precision=1,
        title=f"Figure 5 — throughput vs batch ({dataset}) [kE/s]")
    with capsys.disabled():
        print(table)
    save_result(f"fig5_sweep_{dataset}", table)

    # --- shape assertions ---------------------------------------------------
    for i in range(len(BATCHES)):
        u200_np_l = curves[("u200", "NP(L)")][0][i]
        assert u200_np_l < gpu_lat[i] < cpu_lat[i], BATCHES[i]
    # Throughput saturates (non-decreasing then flat-ish).
    u200_thpt = curves[("u200", "NP(M)")][1]
    assert u200_thpt[-1] > u200_thpt[0]
    # NP(S) at least as fast as NP(L) at large batch.
    assert curves[("u200", "NP(S)")][1][-1] \
        >= 0.95 * curves[("u200", "NP(L)")][1][-1]
    # Paper headline: U200 speedup vs GPU at large batch > ~4.6x for NP(L+).
    speedup_vs_gpu = (BATCHES[-1] / curves[("u200", "NP(L)")][0][-1]) \
        / (BATCHES[-1] / gpu_lat[-1])
    assert speedup_vs_gpu > 2.0

    # Timed kernel: one U200 NP(M) batch simulation at batch 1000.
    model = wiki_np_models["NP(M)"] if dataset == "wikipedia" else \
        np_model(graph, 4)
    acc = FPGAAccelerator(model, U200_DESIGN)

    def step():
        acc.run_stream(graph, batch_size=1000, end=1000)

    benchmark.pedantic(step, rounds=3, iterations=1, warmup_rounds=1)
