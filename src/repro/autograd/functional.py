"""Differentiable functional building blocks used by the TGNN models.

All functions accept and return :class:`~repro.autograd.tensor.Tensor` and
are composed from the primitive ops in ``tensor.py``, so their gradients are
automatically correct wherever the primitives are.  Numerically sensitive
reductions (softmax, log-sum-exp, BCE) are written in the max-shifted stable
form.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, as_tensor

__all__ = [
    "softmax",
    "log_softmax",
    "masked_softmax",
    "bce_with_logits",
    "soft_cross_entropy",
]


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Max-shifted softmax along ``axis``."""
    x = as_tensor(x)
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    e = shifted.exp()
    return e / e.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable ``log(softmax(x))``."""
    x = as_tensor(x)
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def masked_softmax(x: Tensor, mask: np.ndarray, axis: int = -1) -> Tensor:
    """Softmax restricted to positions where ``mask`` is True.

    Masked-out positions get exactly zero probability.  Rows whose mask is
    entirely False produce a uniform all-zero row (no NaNs), which is the
    behaviour the attention aggregator wants for isolated vertices with no
    temporal neighbors yet.
    """
    x = as_tensor(x)
    mask = np.asarray(mask, dtype=bool)
    neg_inf = np.where(mask, 0.0, -1e30)
    shifted = x + Tensor(neg_inf)
    shifted = shifted - Tensor(shifted.data.max(axis=axis, keepdims=True))
    e = shifted.exp() * Tensor(mask.astype(np.float64))
    denom = e.sum(axis=axis, keepdims=True)
    # Guard fully-masked rows: replace 0 denominators by 1 (numerator is 0).
    safe = Tensor(np.where(denom.data == 0.0, 1.0, denom.data))
    return e / (denom + (safe - denom).detach())


def bce_with_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean binary cross-entropy on raw logits.

    Uses the standard stable form
    ``max(x, 0) - x*t + log(1 + exp(-|x|))``.
    """
    logits = as_tensor(logits)
    t = Tensor(np.asarray(targets, dtype=np.float64))
    relu_x = logits.relu()
    # |x| with the correct sub-gradient: relu(x) + relu(-x).
    abs_x = logits.relu() + (-logits).relu()
    softplus = ((-abs_x).exp() + 1.0).log()
    loss = relu_x - logits * t + softplus
    return loss.mean()


def soft_cross_entropy(student_logits: Tensor, teacher_logits: np.ndarray,
                       temperature: float = 1.0,
                       mask: np.ndarray | None = None) -> Tensor:
    """Distillation loss of Eq. (17): soft CE between attention logits.

    ``- sum_v softmax(teacher/T) . log_softmax(student/T)`` averaged over
    rows.  The teacher side is a constant (no gradient flows into it), which
    matches the knowledge-distillation setup in the paper.  ``mask`` limits
    the distribution to valid neighbor slots.
    """
    teacher = np.asarray(teacher_logits, dtype=np.float64) / temperature
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        teacher = np.where(mask, teacher, -1e30)
    t_shift = teacher - teacher.max(axis=-1, keepdims=True)
    t_prob = np.exp(t_shift)
    if mask is not None:
        t_prob *= mask
    denom = t_prob.sum(axis=-1, keepdims=True)
    t_prob = t_prob / np.where(denom == 0.0, 1.0, denom)

    scaled = student_logits * (1.0 / temperature)
    if mask is not None:
        log_p = _masked_log_softmax(scaled, mask)
        per_row = -(Tensor(t_prob) * log_p).sum(axis=-1)
        valid_rows = mask.any(axis=-1)
        if not valid_rows.any():
            return per_row.sum() * 0.0
        return per_row[np.nonzero(valid_rows)[0]].mean()
    log_p = log_softmax(scaled, axis=-1)
    return -(Tensor(t_prob) * log_p).sum(axis=-1).mean()


def _masked_log_softmax(x: Tensor, mask: np.ndarray) -> Tensor:
    neg_inf = np.where(mask, 0.0, -1e30)
    shifted = x + Tensor(neg_inf)
    shifted = shifted - Tensor(shifted.data.max(axis=-1, keepdims=True))
    e = shifted.exp() * Tensor(mask.astype(np.float64))
    denom = e.sum(axis=-1, keepdims=True)
    denom = denom + Tensor(np.where(denom.data == 0.0, 1.0, 0.0))
    return shifted - denom.log()

