"""Attention-score-based temporal neighbor pruning (§III-B).

The simplified attention computes its logits from Δt *alone*, before any
hidden feature is fetched.  That ordering is what makes pruning profitable:
for a budget ``p`` we keep the ``p`` highest-logit valid neighbors, apply the
softmax only to them, and fetch/compute values only for them — a linear
reduction in both MACs and external-memory accesses.

On the FPGA this same decision drives prefetching (§IV-C): the EU resolves
the surviving neighbor indices from timestamps only, then prefetches their
memory while the MUU is still busy.
"""

from __future__ import annotations

import numpy as np

__all__ = ["top_k_mask", "prune"]


def prune(logits: np.ndarray, mask: np.ndarray, budget: int
          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One top-``budget`` pass, both forms: ``(selected, indices, sel_mask)``
    — the full-width :func:`top_k_mask`, and ``indices`` of shape ``(n,
    min(budget, k))`` naming each row's chosen slots in ascending slot
    order (timestamp order within the pruned list), padded with slot 0
    where ``sel_mask`` flags no real selection.  The compact form comes
    from ordering only the ``budget`` slots already chosen."""
    logits = np.asarray(logits, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if logits.shape != mask.shape:
        raise ValueError("logits and mask shapes must match")
    if budget <= 0:
        raise ValueError("budget must be positive")
    n, k = logits.shape
    # Key: valid logits as-is, invalid slots -inf; stable tie-break by index
    # via a tiny monotone penalty well below float64 resolution of logits.
    keyed = np.where(mask, logits, -np.inf)
    keyed -= np.arange(k, dtype=np.float64) * 1e-12
    # At neighbor-list widths a stable sort of the whole row is cheaper than
    # argpartition, and it breaks exact ties toward the lower slot as well.
    top = np.argsort(np.negative(keyed, out=keyed), axis=1,
                     kind="stable")[:, :budget]
    # A row short of valid slots fills up with invalid ones.
    flat = top + np.arange(0, n * k, k)[:, None]
    valid = mask.take(flat)
    selected = np.zeros((n, k), dtype=bool)
    selected.reshape(-1)[flat] = valid
    # Invalid slots sort behind every real one as the out-of-range ``k``.
    order = np.sort(np.where(valid, top, k), axis=1)[:, :budget]
    sel_mask = order < k
    return selected, np.where(sel_mask, order, 0), sel_mask


def top_k_mask(logits: np.ndarray, mask: np.ndarray, budget: int) -> np.ndarray:
    """Boolean mask keeping the ``budget`` highest-logit valid slots per row.

    Rows with fewer than ``budget`` valid slots keep all of them.  Ties are
    broken toward lower slot index (deterministic, matching a hardware
    comparator tree's fixed priority).
    """
    return prune(logits, mask, budget)[0]
