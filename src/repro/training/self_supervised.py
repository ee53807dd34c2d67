"""Self-supervised temporal link prediction training (the TGN protocol).

Models learn by predicting the stream's own future edges: each training batch
contributes positive pairs (the batch's real edges) and uniformly sampled
negative destinations; the loss is binary cross-entropy on the link
predictor's logits.  State is reset at each epoch start and evolves
chronologically through the epoch.

The streaming evaluator replays the stream through the same
``process_batch`` and scores pairs through the same predictor helper, so
train and test follow the identical state-update protocol — the property
that makes "AP difference" comparisons across model variants meaningful.
Knowledge distillation (``distillation.py``) is this loop with one more
loss term.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..autograd import Tensor, no_grad
from ..autograd import functional as F
from ..autograd.optim import Adam, clip_grad_norm
from ..graph.batching import iter_fixed_size
from ..graph.temporal_graph import EdgeBatch, TemporalGraph
from ..models.link_predictor import LinkPredictor
from ..models.tgn import TGNN, ModelRuntime
from .metrics import average_precision, roc_auc

__all__ = ["TrainConfig", "Trainer", "EvalResult"]


@dataclass(frozen=True)
class TrainConfig:
    """Hyper-parameters for the self-supervised loop (paper defaults)."""

    epochs: int = 3
    batch_size: int = 200          # the paper's Fig. 7 operating point
    lr: float = 1e-3
    grad_clip: float = 5.0
    seed: int = 0

    def __post_init__(self):
        if not (self.epochs >= 1 and self.batch_size >= 1):
            raise ValueError(f"epochs and batch_size must be at least 1, "
                             f"got {self.epochs} and {self.batch_size}")


@dataclass
class EvalResult:
    """Streaming evaluation outcome over an edge range."""

    ap: float
    auc: float
    n_edges: int


class Trainer:
    """Trains a TGNN + link predictor on a chronological stream.

    ``train`` is the one training loop.  A subclass changes what a batch
    costs through two hooks: ``_new_runtimes`` builds the epoch's state and
    ``_batch_loss`` runs the forward pass, returning the loss to minimise
    and the ``METRICS`` that ``train`` averages per epoch into ``history``.
    """

    METRICS: tuple[str, ...] = ("loss",)

    def __init__(self, model: TGNN, graph: TemporalGraph,
                 cfg: TrainConfig | None = None):
        self.model = model
        self.graph = graph
        self.cfg = cfg if cfg is not None else TrainConfig()
        self.rng = np.random.default_rng(self.cfg.seed)
        self.predictor = LinkPredictor(model.cfg.embed_dim, rng=self.rng)
        self.optimizer = Adam(
            list(model.parameters()) + list(self.predictor.parameters()),
            lr=self.cfg.lr)
        self.history: list[dict] = []

    # ------------------------------------------------------------------ #
    def _pair_logits(self, result) -> tuple[Tensor, np.ndarray]:
        """Predictor logits of the positive pairs, then of the (src,
        negative) pairs, with their labels."""
        pos = self.predictor(result.src_embeddings, result.dst_embeddings)
        neg = self.predictor(result.src_embeddings, result.neg_embeddings)
        labels = np.concatenate([np.ones(len(pos.data)),
                                 np.zeros(len(neg.data))])
        return Tensor.concat([pos, neg], axis=0), labels

    def _link_loss(self, result) -> Tensor:
        """BCE over positive pairs and (src, negative) pairs."""
        return F.bce_with_logits(*self._pair_logits(result))

    def _new_runtimes(self) -> ModelRuntime:
        return self.model.new_runtime(self.graph, np.float64)

    def _batch_loss(self, batch: EdgeBatch, runtimes: ModelRuntime,
                    neg: np.ndarray) -> tuple[Tensor, dict[str, float]]:
        result = self.model.process_batch(batch, runtimes, self.graph,
                                          neg_dst=neg)
        loss = self._link_loss(result)
        return loss, {"loss": loss.item()}

    # ------------------------------------------------------------------ #
    def train(self, train_end: int, log: bool = False) -> list[dict]:
        """Run ``cfg.epochs`` epochs over edges ``[0, train_end)``.

        Each epoch starts from fresh state and draws uniform negative
        destinations over all vertices (the TGN protocol) from ``rng``.
        A prepared model (what ``load_model`` returns) drops its
        deployment tables while its parameters move and is prepared again
        once training ends, so ``infer_batch`` never serves stale tables.
        """
        prepared = self.model.prepared
        self.model.drop_inference()
        for epoch in range(self.cfg.epochs):
            runtimes = self._new_runtimes()
            columns: dict[str, list[float]] = {k: [] for k in self.METRICS}
            for batch in iter_fixed_size(self.graph, self.cfg.batch_size,
                                         end=train_end):
                neg = self.rng.integers(0, self.graph.num_nodes,
                                        size=len(batch))
                loss, metrics = self._batch_loss(batch, runtimes, neg)
                self.optimizer.zero_grad()
                loss.backward()
                clip_grad_norm(self.optimizer.parameters, self.cfg.grad_clip)
                self.optimizer.step()
                for k, column in columns.items():
                    column.append(metrics[k])
            entry = {"epoch": epoch, **{k: float(np.mean(column))
                                        for k, column in columns.items()}}
            self.history.append(entry)
            if log:  # pragma: no cover - console side effect
                print(f"epoch {epoch}: " + "  ".join(
                    f"{k} {entry[k]:.4f}" for k in self.METRICS))
        if prepared:
            self.model.prepare_inference()
        return self.history

    # ------------------------------------------------------------------ #
    def evaluate(self, start: int, end: int, seed: int = 12345) -> EvalResult:
        """Streaming AP/AUC of ``model`` over edges ``[start, end)``.

        A fresh runtime replays ``[0, start)`` without scoring (building
        memory/neighbor state exactly as deployment would), then each edge
        up to ``end`` (clipped to the stream) is scored against one uniform
        negative destination; ``n_edges`` counts the edges scored.
        Negative sampling uses its own ``seed`` so evaluation is
        deterministic regardless of how much training consumed ``rng``.
        """
        eval_rng = np.random.default_rng(seed)
        runtime = self.model.new_runtime(self.graph, np.float64)
        labels_all: list[np.ndarray] = []
        scores_all: list[np.ndarray] = []
        with no_grad():
            for batch in iter_fixed_size(self.graph, self.cfg.batch_size,
                                         end=start):
                self.model.process_batch(batch, runtime, self.graph)
            for batch in iter_fixed_size(self.graph, self.cfg.batch_size,
                                         start=start, end=end):
                neg = eval_rng.integers(0, self.graph.num_nodes,
                                        size=len(batch))
                result = self.model.process_batch(batch, runtime, self.graph,
                                                  neg_dst=neg)
                logits, labels = self._pair_logits(result)
                scores_all.append(logits.data)
                labels_all.append(labels)
        labels = np.concatenate(labels_all)
        scores = np.concatenate(scores_all)
        return EvalResult(ap=average_precision(labels, scores),
                          auc=roc_auc(labels, scores),
                          n_edges=len(labels) // 2)
