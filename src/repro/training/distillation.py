"""Knowledge distillation: training simplified students against a TGN teacher.

The paper's setup (§III-A): the student — simplified attention, optionally
LUT encoder and pruning — trains under *both* the self-supervised link loss
and a soft cross-entropy (Eq. 17) that pulls its Δt-based attention logits
``alpha' = a + W_t . dt`` toward the teacher's qK attention logits at
temperature T = 1.  So distillation is the self-supervised :class:`Trainer`
plus that one term, weighted by ``kd_weight``; at ``kd_weight=0`` it trains
the student exactly as plain self-supervision would.

Teacher and student run side by side over the same chronological stream with
separate vertex states but — because neighbor tables depend only on the
stream, never on parameters — **identical** neighbor lists, so their logit
rows align one-to-one.  The teacher runs under no-grad; its logits enter the
loss as constants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..autograd import Tensor, no_grad
from ..autograd import functional as F
from ..graph.temporal_graph import EdgeBatch, TemporalGraph
from ..models.tgn import TGNN, ModelRuntime
from .self_supervised import TrainConfig, Trainer

__all__ = ["DistillationConfig", "DistillationTrainer"]


@dataclass(frozen=True)
class DistillationConfig(TrainConfig):
    """:class:`TrainConfig` plus the weight of the Eq. (17) term."""

    kd_weight: float = 1.0     # weight of the attention-alignment loss


class DistillationTrainer(Trainer):
    """Joint self-supervision + attention distillation for a student TGNN.

    A :class:`Trainer` of the student (``model``; ``evaluate`` scores it)
    whose batch loss adds the Eq. (17) term against ``teacher``.
    """

    METRICS = ("link_loss", "kd_loss", "top1_agreement")

    def __init__(self, teacher: TGNN, student: TGNN, graph: TemporalGraph,
                 cfg: DistillationConfig | None = None,
                 warm_start: bool = False):
        if teacher.cfg.num_neighbors != student.cfg.num_neighbors:
            raise ValueError("teacher and student must sample the same "
                             "number of neighbors for logit alignment")
        if not student.cfg.simplified_attention:
            raise ValueError("the student must use the simplified attention")
        if warm_start:
            warm_start_student(teacher, student)
        super().__init__(student, graph,
                         cfg if cfg is not None else DistillationConfig())
        self.teacher = teacher

    # ------------------------------------------------------------------ #
    def _new_runtimes(self) -> tuple[ModelRuntime, ModelRuntime]:
        return (self.teacher.new_runtime(self.graph, np.float64),
                self.model.new_runtime(self.graph, np.float64))

    def _batch_loss(self, batch: EdgeBatch,
                    runtimes: tuple[ModelRuntime, ModelRuntime],
                    neg: np.ndarray) -> tuple[Tensor, dict[str, float]]:
        rt_t, rt_s = runtimes
        with no_grad():
            res_t = self.teacher.process_batch(batch, rt_t, self.graph,
                                               neg_dst=neg)
        res_s = self.model.process_batch(batch, rt_s, self.graph,
                                         neg_dst=neg)
        link_loss = self._link_loss(res_s)
        # Attention alignment (Eq. 17, T = 1), masked to valid neighbors.
        att_s, logits_t = res_s.attention, res_t.attention.logits.data
        kd_loss = F.soft_cross_entropy(att_s.logits, logits_t,
                                       mask=att_s.mask)
        return link_loss + kd_loss * self.cfg.kd_weight, {
            "link_loss": link_loss.item(), "kd_loss": kd_loss.item(),
            "top1_agreement": attention_agreement(
                att_s.logits.data, logits_t, att_s.mask)}


def warm_start_student(teacher: TGNN, student: TGNN) -> list[str]:
    """Copy every shape-compatible shared parameter from teacher to student.

    The architectures differ only in the attention mechanism (and possibly
    the time encoder), so the GRU updater, node projection, value weights
    and output transform can inherit the teacher's solution — a standard
    distillation warm start that shortens student training.  Returns the
    names of the copied parameters.
    """
    teacher_sd = teacher.state_dict()
    student_sd = student.state_dict()
    copied = []
    for name, value in student_sd.items():
        if name in teacher_sd and teacher_sd[name].shape == value.shape:
            student_sd[name] = teacher_sd[name]
            copied.append(name)
    student.load_state_dict(student_sd)
    return copied


def attention_agreement(student_logits: np.ndarray, teacher_logits: np.ndarray,
                        mask: np.ndarray) -> float:
    """Fraction of rows where student and teacher agree on the top neighbor.

    The distillation progress metric: rows with fewer than two valid
    neighbors are skipped (agreement there is vacuous).
    """
    mask = np.asarray(mask, dtype=bool)
    rows = mask.sum(axis=1) >= 2
    if not rows.any():
        return 1.0
    s = np.where(mask, student_logits, -np.inf)[rows]
    t = np.where(mask, teacher_logits, -np.inf)[rows]
    return float(np.mean(np.argmax(s, axis=1) == np.argmax(t, axis=1)))
