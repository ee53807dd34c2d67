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

__all__ = ["top_k_mask", "compact_selection", "select_pruned"]


def top_k_mask(logits: np.ndarray, mask: np.ndarray, budget: int) -> np.ndarray:
    """Boolean mask keeping the ``budget`` highest-logit valid slots per row.

    Rows with fewer than ``budget`` valid slots keep all of them.  Ties are
    broken toward lower slot index (deterministic, matching a hardware
    comparator tree's fixed priority).
    """
    logits = np.asarray(logits, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if logits.shape != mask.shape:
        raise ValueError("logits and mask shapes must match")
    n, k = logits.shape
    if budget >= k:
        return mask.copy()
    if budget <= 0:
        raise ValueError("budget must be positive")
    # Key: valid logits as-is, invalid slots -inf; stable tie-break by index
    # via a tiny monotone penalty well below float64 resolution of logits.
    keyed = np.where(mask, logits, -np.inf)
    tie = np.arange(k, dtype=np.float64) * 1e-12
    keyed = keyed - tie
    # argpartition picks the top-`budget` per row in O(k).
    top_idx = np.argpartition(-keyed, budget - 1, axis=1)[:, :budget]
    out = np.zeros_like(mask)
    np.put_along_axis(out, top_idx, True, axis=1)
    return out & mask


def compact_selection(keep: np.ndarray, budget: int
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Compact form of a :func:`top_k_mask` result: ``(indices, sel_mask)``.

    ``indices`` has shape ``(n, min(budget, k))`` giving the chosen slot per
    row (padded with slot 0 where a row has fewer valid neighbors) and
    ``sel_mask`` flags real selections.  The fast inference path runs the
    top-k pass once, reports ``keep`` as the full-width ``selected`` mask and
    gathers neighbor data through ``indices`` so aggregation runs on
    ``budget`` columns instead of ``k``.
    """
    n, k = keep.shape
    # Order selected slots by ascending slot index to preserve the
    # timestamp-sorted neighbor order within the pruned list.
    order = np.argsort(~keep, axis=1, kind="stable")[:, :min(budget, k)]
    sel_mask = keep[np.arange(n)[:, None], order]
    return np.where(sel_mask, order, 0), sel_mask


def select_pruned(logits: np.ndarray, mask: np.ndarray, budget: int
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Top-``budget`` selection straight to its compact form."""
    return compact_selection(top_k_mask(logits, mask, budget), budget)
