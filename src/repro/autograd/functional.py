"""Differentiable functional building blocks used by the TGNN models.

All functions accept and return :class:`~repro.autograd.tensor.Tensor` and
are composed from the primitive ops in ``tensor.py``, so their gradients are
automatically correct wherever the primitives are.  Numerically sensitive
reductions (the masked softmax, log-sum-exp, BCE) are written in the
max-shifted stable form.  Only what the models and their training call is
here: a softmax over every slot is :func:`masked_softmax` with a full mask.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, as_tensor

__all__ = [
    "masked_softmax",
    "bce_with_logits",
    "soft_cross_entropy",
]


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
    ``max(x, 0) - x*t + log(1 + exp(-|x|))`` and its closed-form
    derivative ``(sigmoid(x) - t) / n`` as the backward pass, which also
    holds at a logit of exactly 0 (the ``relu`` sub-gradients of the
    composed form give ``-t / n`` there).
    """
    logits = as_tensor(logits)
    x = logits.data
    t = np.asarray(targets, dtype=np.float64)
    e = np.exp(-np.abs(x))
    loss = np.maximum(x, 0.0) - x * t + np.log(e + 1.0)
    scale = 1.0 / loss.size

    def backward(g: np.ndarray) -> None:
        sigmoid = np.where(x >= 0, 1.0, e) / (e + 1.0)
        logits._accumulate(g * scale * (sigmoid - t))

    return Tensor._make(loss.sum() * scale, (logits,), "bce", backward)


def soft_cross_entropy(student_logits: Tensor, teacher_logits: np.ndarray,
                       mask: np.ndarray) -> Tensor:
    """Distillation loss of Eq. (17) at temperature 1: soft CE between
    attention logits.

    ``- sum_v softmax(teacher) . log_softmax(student)`` averaged over
    the rows with a valid slot, both distributions limited to the valid
    neighbor slots ``mask`` marks.  The teacher side is a constant (no
    gradient flows into it), which matches the knowledge-distillation
    setup in the paper.
    """
    mask = np.asarray(mask, dtype=bool)
    teacher = np.where(mask, np.asarray(teacher_logits, dtype=np.float64),
                       -1e30)
    t_shift = teacher - teacher.max(axis=-1, keepdims=True)
    t_prob = np.exp(t_shift)
    t_prob *= mask
    denom = t_prob.sum(axis=-1, keepdims=True)
    t_prob = t_prob / np.where(denom == 0.0, 1.0, denom)

    log_p = _masked_log_softmax(student_logits, mask)
    per_row = -(Tensor(t_prob) * log_p).sum(axis=-1)
    valid_rows = mask.any(axis=-1)
    if not valid_rows.any():
        return per_row.sum() * 0.0
    return per_row[np.nonzero(valid_rows)[0]].mean()


def _masked_log_softmax(x: Tensor, mask: np.ndarray) -> Tensor:
    neg_inf = np.where(mask, 0.0, -1e30)
    shifted = x + Tensor(neg_inf)
    shifted = shifted - Tensor(shifted.data.max(axis=-1, keepdims=True))
    e = shifted.exp() * Tensor(mask.astype(np.float64))
    denom = e.sum(axis=-1, keepdims=True)
    denom = denom + Tensor(np.where(denom.data == 0.0, 1.0, 0.0))
    return shifted - denom.log()

