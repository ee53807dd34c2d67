"""Fraud detection on a streaming transaction graph (the paper's §I example).

"A fraud detection application would like to frequently examine all users
involved in newly appearing transactions."  This example builds exactly that
deployment:

1. generate a transaction stream with **injected anomalies** — transactions
   that violate the stream's community structure (a user suddenly hitting a
   merchant no one like them uses);
2. train the co-designed TGNN + link predictor on the clean prefix via
   self-supervision;
3. replay the rest of the stream in 15-minute windows through the simulated
   U200 accelerator, scoring every new transaction with the link predictor;
4. flag the lowest-scoring transactions and report anomaly-detection quality
   (precision@k / AUC) together with the per-window inference latency.

Run:  python examples/fraud_detection.py
"""

import numpy as np

from repro.autograd import no_grad
from repro.datasets import StreamSpec, generate_stream
from repro.graph import TemporalGraph, iter_time_windows
from repro.hw import FPGAAccelerator, U200_DESIGN
from repro.models import ModelConfig, TGNN
from repro.pipeline import SimulatedFPGABackend
from repro.training import TrainConfig, Trainer, roc_auc

RNG = np.random.default_rng(7)
ANOMALY_RATE = 0.05


def build_stream_with_anomalies():
    """Community-structured transactions + out-of-pattern injections."""
    spec = StreamSpec(name="payments", num_users=300, num_items=60,
                      num_edges=4000, edge_dim=32, node_dim=0,
                      num_communities=6, p_in_community=0.95, p_repeat=0.5,
                      seed=11)
    g = generate_stream(spec)
    # Inject anomalies: rewire a fraction of destinations to merchants from
    # *other* communities with features from the wrong prototype.
    n = g.num_edges
    is_anomaly = RNG.random(n) < ANOMALY_RATE
    dst = g.dst.copy()
    edge_feat = g.edge_feat.copy()
    item_ids = np.arange(spec.num_users, spec.num_users + spec.num_items)
    for i in np.nonzero(is_anomaly)[0]:
        dst[i] = RNG.choice(item_ids)
        edge_feat[i] = RNG.normal(0.0, 1.0, size=spec.edge_dim)  # off-pattern
    return TemporalGraph(g.src, dst, g.t, edge_feat=edge_feat,
                         node_feat=None, num_nodes=g.num_nodes), is_anomaly


def main() -> None:
    graph, is_anomaly = build_stream_with_anomalies()
    _, (train_end, _, _) = graph.split(0.6, 0.1)
    print(f"stream: {graph}; {is_anomaly.sum()} injected anomalies "
          f"({100 * ANOMALY_RATE:.0f}%)")

    # --- train the co-designed model on the historical prefix ------------- #
    cfg = ModelConfig(memory_dim=32, time_dim=16, embed_dim=32, edge_dim=32,
                      num_neighbors=6, simplified_attention=True,
                      lut_time_encoder=True, lut_bins=64, pruning_budget=3)
    model = TGNN(cfg, rng=np.random.default_rng(0))
    model.calibrate(graph)
    trainer = Trainer(model, graph, TrainConfig(epochs=4, batch_size=100,
                                                seed=0))
    trainer.train(train_end)
    print(f"training done: final loss {trainer.history[-1]['loss']:.4f}")

    # --- deploy: replay live traffic in 15-minute windows ------------------ #
    model.prepare_inference()
    backend = SimulatedFPGABackend(FPGAAccelerator(model, U200_DESIGN),
                                   graph)
    # The backend only prices batches; the deployment's vertex state is
    # ours.  Warm it over the training prefix.
    rt = model.new_runtime(graph)
    for b in iter_time_windows(graph, 3600.0, end=train_end):
        model.infer_batch(b, rt, graph)

    scores, labels, latencies = [], [], []
    for window in iter_time_windows(graph, 900.0, start=train_end):
        # Score BEFORE the window's edges update state (pre-update query).
        res = model.infer_batch(window, rt, graph)
        with no_grad():
            link_logit = trainer.predictor(res.src_embeddings,
                                           res.dst_embeddings)
        scores.append(link_logit.data)
        labels.append(is_anomaly[window.eid])
        # Timing of the same window on the accelerator.
        latencies.append(backend.process_batch(window))

    scores = np.concatenate(scores)
    labels = np.concatenate(labels).astype(float)

    # Low link probability == suspicious.
    auc = roc_auc(labels, -scores)
    k = max(int(labels.sum()), 1)
    flagged = np.argsort(scores)[:k]
    precision_at_k = labels[flagged].mean()
    base_rate = labels.mean()
    print(f"\nanomaly detection over {len(labels)} live transactions:")
    print(f"  AUC(low-score => fraud)  : {auc:.3f}")
    print(f"  precision@{k:<4d}          : {precision_at_k:.3f} "
          f"(base rate {base_rate:.3f}, "
          f"lift {precision_at_k / base_rate:.1f}x)")
    print(f"  per-window latency (U200): mean "
          f"{np.mean(latencies) * 1e6:.1f} us, "
          f"p95 {np.percentile(latencies, 95) * 1e6:.1f} us")

    assert auc > 0.6, "anomaly signal should be clearly above chance"


if __name__ == "__main__":
    main()
