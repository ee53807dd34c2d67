"""Knowledge-distillation workflow: from TGN-attn teacher to deployable student.

Walks the full §III pipeline on a Reddit-like stream:

1. train the vanilla TGN-attn teacher by temporal self-supervision;
2. distill the ladder of simplified students (+SAT, +LUT, +NP) with the
   Eq. (17) soft cross-entropy on attention logits;
3. report the mini Table II: complexity, accuracy retention, measured
   single-thread speedup, and teacher-student attention agreement.

Run:  python examples/distillation_workflow.py
"""

import numpy as np

from repro.datasets import reddit_like
from repro.models import ModelConfig, TGNN
from repro.pipeline import SoftwareBackend, run_engine
from repro.profiling import count_ops
from repro.reporting import render_table
from repro.training import (DistillationConfig, DistillationTrainer,
                            TrainConfig, Trainer)


def main() -> None:
    graph = reddit_like(num_edges=3000, num_users=300, num_items=40)
    _, (train_end, val_end, test_end) = graph.split(0.70, 0.10)

    dims = dict(memory_dim=24, time_dim=16, embed_dim=24,
                edge_dim=graph.edge_dim, num_neighbors=6, lut_bins=64)
    teacher_cfg = ModelConfig(**dims)

    # --- 1. teacher -------------------------------------------------------- #
    teacher = TGNN(teacher_cfg, rng=np.random.default_rng(0))
    trainer = Trainer(teacher, graph, TrainConfig(epochs=4, batch_size=100,
                                                  seed=0))
    trainer.train(train_end, log=True)
    teacher_eval = trainer.evaluate(val_end, test_end)
    print(f"\nteacher AP = {teacher_eval.ap:.4f}  "
          f"AUC = {teacher_eval.auc:.4f}")

    # --- 2. distill the ladder ---------------------------------------------- #
    ladder = [
        ("+SAT", teacher_cfg.with_(simplified_attention=True)),
        ("+LUT", teacher_cfg.with_(simplified_attention=True,
                                   lut_time_encoder=True)),
        ("+NP", teacher_cfg.with_(simplified_attention=True,
                                  lut_time_encoder=True, pruning_budget=2)),
    ]
    rows = [{"model": "teacher",
             "kMAC": count_ops(teacher_cfg).total_macs / 1e3,
             "AP": teacher_eval.ap, "dAP": 0.0, "agree": 1.0,
             "kE/s_1T": _measured_throughput(teacher, graph),
             "speedup": 1.0}]
    base_thpt = rows[0]["kE/s_1T"]
    for name, cfg in ladder:
        student = TGNN(cfg, rng=np.random.default_rng(1))
        student.calibrate(graph)
        dt = DistillationTrainer(
            teacher, student, graph,
            DistillationConfig(epochs=4, batch_size=100, kd_weight=2.0,
                               seed=0),
            warm_start=True)
        hist = dt.train(train_end, log=True)
        ev = dt.evaluate(val_end, test_end)
        thpt = _measured_throughput(student, graph)
        rows.append({"model": name,
                     "kMAC": count_ops(cfg).total_macs / 1e3,
                     "AP": ev.ap, "dAP": ev.ap - teacher_eval.ap,
                     "agree": hist[-1]["top1_agreement"],
                     "kE/s_1T": thpt, "speedup": thpt / base_thpt})

    # --- 3. report ----------------------------------------------------------- #
    print(render_table(rows, precision=3,
                       title="Distillation ladder (Reddit-like stream)"))
    worst = min(r["dAP"] for r in rows[1:])
    print(f"\nworst accuracy delta vs teacher: {worst:+.4f} "
          f"(paper reports <= -0.0033 at full scale)")
    print(f"best measured single-thread speedup: "
          f"{max(r['speedup'] for r in rows):.2f}x")


def _measured_throughput(model: TGNN, graph) -> float:
    model.prepare_inference()
    backend = SoftwareBackend(model, graph)
    run_engine(backend, graph, 200, end=400)
    rep = run_engine(backend, graph, 200, start=400, end=2400)
    return rep.throughput_eps / 1e3


if __name__ == "__main__":
    main()
