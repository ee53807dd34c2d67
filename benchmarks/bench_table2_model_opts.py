"""Table II reproduction: the accumulated model-optimization ladder.

Per dataset (Wikipedia / Reddit / GDELT analogues) and per variant
(baseline, +SAT, +LUT, +NP(L/M/S)) we report:

* analytic kMEM / kMAC(GRU, GNN, total) at the paper's dimensions, printed
  next to the published values;
* **measured** single-thread throughput of the NumPy deployment path at the
  paper's dimensions, with the baseline-relative speedup;
* AP from an actual knowledge-distillation run at reduced training scale
  (the accuracy protocol is identical to the paper's; absolute AP differs
  because the streams are synthetic — the target is the *small delta*).

The timed kernel is the ladder's inference sweep.

``test_gnn_stage_scaling`` (``--smoke``-capable) is the CI guard on the GNN
stage's formulation: its cost at k = 10 over budget 2, one ratio in
``results/BENCH_gnn_kernel.json``.  ``test_kernel_stage_shares`` (same) is
the guard on the sampler staying a FIFO read: the sample stage's share of
the four Table I stages, in ``results/BENCH_kernel_stages.json``.
"""

import numpy as np
import pytest

from repro.models import KERNEL_STAGES, ModelConfig, TGNN, variant_ladder
from repro.pipeline import SoftwareBackend, run_engine
from repro.profiling import table2_ladder
from repro.profiling.paper_reference import TABLE1, TABLE2
from repro.reporting import render_table, save_json, save_result
from repro.training import (DistillationConfig, DistillationTrainer,
                            TrainConfig, Trainer)

TRAIN_DIMS = dict(memory_dim=16, time_dim=12, embed_dim=16, num_neighbors=5,
                  lut_bins=32)
TRAIN_BUDGETS = {"+NP(L)": 3, "+NP(M)": 2, "+NP(S)": 1}  # scaled to k=5


def _train_ap_column(graph, seed=0):
    """AP per ladder row via teacher training + student distillation."""
    _, (tr, va, te) = graph.split(0.70, 0.10)
    base_cfg = ModelConfig(edge_dim=graph.edge_dim, node_dim=graph.node_dim,
                           **TRAIN_DIMS)
    teacher = TGNN(base_cfg, rng=np.random.default_rng(seed))
    trainer = Trainer(teacher, graph,
                      TrainConfig(epochs=3, batch_size=100, seed=seed))
    trainer.train(tr)
    teacher_ap = trainer.evaluate(va, te).ap
    aps = {"baseline": teacher_ap}

    def distill(cfg, tag):
        student = TGNN(cfg, rng=np.random.default_rng(seed + 1))
        student.calibrate(graph)
        dt = DistillationTrainer(teacher, student, graph,
                                 DistillationConfig(epochs=3, batch_size=100,
                                                    seed=seed))
        dt.train(tr)
        aps[tag] = dt.evaluate(va, te).ap

    sat_cfg = base_cfg.with_(simplified_attention=True)
    lut_cfg = sat_cfg.with_(lut_time_encoder=True)
    distill(sat_cfg, "+SAT")
    distill(lut_cfg, "+LUT")
    for tag, budget in TRAIN_BUDGETS.items():
        distill(lut_cfg.with_(pruning_budget=budget), tag)
    return aps


def _measured_throughput(graph, end=2000):
    """Single-thread kE/s at the paper's dimensions per ladder variant.

    The best of three passes, each on a fresh backend, with the
    variants taking turns, so one slow pass on a busy host cannot reorder
    the ladder (the min-of-reps scheme of ``test_gnn_stage_scaling``).
    """
    base = ModelConfig(edge_dim=graph.edge_dim, node_dim=graph.node_dim)
    models = {}
    for cfg in variant_ladder(base):
        models[cfg.name] = model = TGNN(cfg, rng=np.random.default_rng(0))
        model.calibrate(graph)
    best = dict.fromkeys(models, 0.0)
    for _ in range(3):
        for name, model in models.items():
            backend = SoftwareBackend(model, graph)
            run_engine(backend, graph, 200, end=400)          # warm-up
            rep = run_engine(backend, graph, 200, start=400, end=end)
            best[name] = max(best[name], rep.throughput_eps / 1e3)
    return best


@pytest.mark.parametrize("dataset", ["wikipedia", "reddit", "gdelt"])
def test_table2_ladder(benchmark, capsys, datasets, dataset):
    graph = datasets[dataset]
    base = ModelConfig(edge_dim=graph.edge_dim, node_dim=graph.node_dim)

    analytic = table2_ladder(base)
    thpt = _measured_throughput(graph)
    aps = _train_ap_column(graph)
    paper = {r["model"]: r for r in TABLE2[dataset]}

    rows = []
    for a in analytic:
        name = a["model"]
        p = paper[name]
        rows.append({
            "model": name,
            "kMEM": a["kMEM"], "kMEM_ppr": p["kMEM"],
            "GRU": a["kMAC_GRU"], "GRU_ppr": p["kMAC_GRU"],
            "GNN": a["kMAC_GNN"], "GNN_ppr": p["kMAC_GNN"],
            "tot%": a["kMAC_pct"], "tot%_ppr": p["kMAC_pct"],
            "AP": aps[name], "dAP": aps[name] - aps["baseline"],
            "dAP_ppr": p["ap_delta"],
            "kE/s": thpt[name],
            "x": thpt[name] / thpt["baseline"],
            "x_ppr": p["speedup"],
        })
    table = render_table(rows, precision=3,
                         title=f"Table II — {dataset} "
                               f"(ours vs paper '_ppr' columns)")
    with capsys.disabled():
        print(table)
    save_result(f"table2_{dataset}", table)

    # --- shape assertions --------------------------------------------------
    speedups = [r["x"] for r in rows]
    assert speedups[0] == 1.0
    assert speedups[-1] == max(speedups)          # NP(S) fastest
    assert speedups[-1] > 1.5                     # real measured gain
    # Students may exceed the teacher at toy scale (the simplified attention
    # regularises); the claim to check is that no variant LOSES much AP.
    assert min(r["dAP"] for r in rows[1:]) > -0.12
    assert rows[3]["kMEM"] < rows[0]["kMEM"]      # NP reduces MEMs

    # --- timed kernel: one ladder inference pass ---------------------------
    model = TGNN(base.with_(simplified_attention=True, lut_time_encoder=True,
                            pruning_budget=2), rng=np.random.default_rng(0))
    model.calibrate(graph)
    model.prepare_inference()
    rt = model.new_runtime(graph)
    batches = [graph.slice(i, i + 200) for i in range(0, 1000, 200)]

    def step():
        for b in batches:
            model.infer_batch(b, rt, graph)

    benchmark.pedantic(step, rounds=3, iterations=1, warmup_rounds=1)


# --------------------------------------------------------------------------- #
def _stage_ms(model, graph, batches):
    """One ``infer_batch`` pass from a fresh runtime: ms per Table I stage."""
    rt, timings = model.new_runtime(graph), {}
    for b in batches:
        model.infer_batch(b, rt, graph, timings=timings)
    return {stage: timings[stage] * 1e3 for stage in KERNEL_STAGES}


@pytest.mark.smoke
def test_gnn_stage_scaling(capsys, smoke, wiki):
    """``W_v`` must be applied once per node, not once per neighbor.

    ``infer_batch(timings=)["gnn"]`` at the paper's dims on the same
    batches of 200, unpruned ``+LUT`` (k = 10) over budget 2.  With the
    deployment kernel in the accelerator's order (aggregate, then
    transform) five times the neighbors cost five times the gathers and
    aggregation but the same ``W_v`` product (~1.6x); per-neighbor values
    pay the product five times over as well (~4.2x).  Both lanes run in one
    process, fastest of N passes each, so the ratio is machine-independent;
    it lands in ``results/BENCH_gnn_kernel.json`` for the CI
    perf-trajectory check (ceiling 2.5).
    """
    from conftest import np_model

    n_batches, reps = (5, 5) if smoke else (10, 9)
    batches = [wiki.slice(i * 200, (i + 1) * 200) for i in range(n_batches)]
    lanes = {None: np_model(wiki, None), 2: np_model(wiki, 2)}

    best = dict.fromkeys(lanes, float("inf"))
    for _ in range(reps):            # alternate lanes; min absorbs jitter
        for budget, model in lanes.items():
            best[budget] = min(best[budget],
                               _stage_ms(model, wiki, batches)["gnn"])
    ratio = best[None] / best[2]

    rows = [{"budget": "none (k=10)", "gnn_ms": best[None]},
            {"budget": 2, "gnn_ms": best[2]},
            {"budget": "k=10 over 2", "gnn_ms": ratio}]
    table = render_table(
        rows, precision=3,
        title=f"GNN stage — {n_batches} batches of 200, paper dims "
              f"({'smoke' if smoke else 'full'})")
    assert ratio <= 2.5

    with capsys.disabled():
        print(table)
    save_result("gnn_stage_scaling", table)
    save_json("BENCH_gnn_kernel", {
        "gnn_ms": {"unpruned": best[None], "budget_2": best[2]},
        "scaling_ratio": ratio,
        "workload": {"batches": n_batches, "batch_size": 200, "reps": reps,
                     "mode": "smoke" if smoke else "full"},
    })


@pytest.mark.smoke
def test_kernel_stage_shares(capsys, smoke, wiki):
    """The sample stage must stay a table read, not a search.

    ``infer_batch(timings=)`` per Table I stage for NP(4) at the paper's
    dims on batches of 200 (the ``kernel_b200`` model of ``benchmarks/e2e``),
    each stage the fastest of N passes in one process, as shares of their
    sum beside the paper's 1-CPU-thread shares.  The FIFO read by address
    puts ``sample`` at ~0.025-0.03 of the pass (paper 0.015); the
    sort-the-row read it replaced ~0.06.  The share lands in
    ``results/BENCH_kernel_stages.json`` for the CI perf-trajectory check
    (ceiling 0.05).
    """
    from conftest import np_model

    n_batches, reps = (5, 7) if smoke else (20, 15)
    batches = [wiki.slice(i * 200, (i + 1) * 200) for i in range(n_batches)]
    model = np_model(wiki, 4)

    best = dict.fromkeys(KERNEL_STAGES, float("inf"))
    for _ in range(reps):
        for stage, ms in _stage_ms(model, wiki, batches).items():
            best[stage] = min(best[stage], ms)
    total = sum(best.values())
    paper = {s: TABLE1["wikipedia"][s]["t_1cpu"] for s in KERNEL_STAGES}
    rows = [{"stage": s, "ms": best[s], "share": best[s] / total,
             "paper_share": paper[s] / sum(paper.values())}
            for s in KERNEL_STAGES]
    table = render_table(
        rows, precision=3,
        title=f"Kernel stages, NP(4) — {n_batches} batches of 200, paper "
              f"dims ({'smoke' if smoke else 'full'})")
    sample_share = best["sample"] / total
    assert sample_share <= 0.05

    with capsys.disabled():
        print(table)
    save_result("kernel_stage_shares", table)
    save_json("BENCH_kernel_stages", {
        "stage_ms": best,
        "shares": {r["stage"]: r["share"] for r in rows},
        "paper_shares": {r["stage"]: r["paper_share"] for r in rows},
        "sample_share": sample_share,
        "workload": {"batches": n_batches, "batch_size": 200, "reps": reps,
                     "mode": "smoke" if smoke else "full"},
    })
