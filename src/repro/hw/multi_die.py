"""Multi-die (SLR) placement of serving shards (§IV-B, Fig. 2 right).

Advanced FPGAs like the Alveo U200 are built from multiple Super Logic
Regions with a limited number of inter-die connections; the paper
distributes the CUs across SLR0/SLR2 with the shared front end (edge
parser, data loader, updater) on SLR1, crossing die boundaries through
on-chip FIFOs.

The serving engine reuses that layout for its shards: this module assigns
shards to dies, round-robin or by mailbox traffic, and the engine prices
every mailbox hop between two dies at ``die_crossing_cycles``.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["plan_shard_dies", "plan_shard_dies_traffic_aware"]


def plan_shard_dies(num_shards: int, dies: int) -> list[int]:
    """Assign serving shards to dies, via the same placement as the CUs.

    The sharded serving engine reuses the Fig. 2 layout: the shared front
    end (ingest, batcher) conceptually sits on the middle die, and shard
    state spreads round-robin over the remaining dies — so cross-shard
    mailbox traffic between shards on different dies pays the SLR-boundary
    FIFO latency (``HardwareConfig.die_crossing_cycles``).  Single-die
    parts place every shard on die 0 and mailbox traffic stays on-chip.
    """
    if num_shards <= 0 or dies <= 0:
        raise ValueError("num_shards and dies must be positive")
    if dies == 1:
        return [0] * num_shards
    shared_die = dies // 2
    outer = [d for d in range(dies) if d != shared_die]
    return [outer[i % len(outer)] for i in range(num_shards)]


def plan_shard_dies_traffic_aware(traffic: np.ndarray,
                                  dies: int) -> list[int]:
    """Assign shards to dies so heavy mailbox pairs share a die.

    ``traffic[i, j]`` is the (predicted or measured) count of edges shard
    ``i`` forwards to shard ``j`` — e.g.
    :meth:`repro.serving.Placement.mail_matrix`.  Placement policies that
    migrate or replicate vertices change this matrix, so the die plan must
    be *re-derived* after a placement change or the cross-die mailbox
    penalty is priced against stale traffic.

    Same floorplan constraints as :func:`plan_shard_dies` (shared front end
    on the middle die, shards on the outer dies, balanced shard counts per
    die), but the shards are placed greedily — heaviest talkers first, each
    onto the non-full outer die it exchanges the most traffic with — and
    then refined by pairwise swaps until no swap reduces crossings.  The
    round-robin plan is refined the same way and the better of the two is
    returned, so the result never crosses more (predicted) edges than
    :func:`plan_shard_dies`.  Fully deterministic: ties break toward the
    lowest die index.
    """
    traffic = np.asarray(traffic, dtype=np.float64)
    n = len(traffic)
    if traffic.shape != (n, n):
        raise ValueError("traffic must be a square shard x shard matrix")
    if n <= 0 or dies <= 0:
        raise ValueError("traffic matrix and dies must be non-empty")
    if dies == 1:
        return [0] * n
    shared_die = dies // 2
    outer = [d for d in range(dies) if d != shared_die]
    cap = math.ceil(n / len(outer))
    sym = traffic + traffic.T       # a crossing costs either direction
    np.fill_diagonal(sym, 0.0)      # self-traffic never crosses

    def crossings(assign) -> float:
        a = np.asarray(assign)
        return float(sym[a[:, None] != a[None, :]].sum()) / 2.0

    def refine(assign) -> list[int]:
        """Swap shard pairs across dies while it reduces crossings.

        Each candidate swap is scored by its O(n) delta (only pairs
        involving the two swapped shards change), not a full recount.
        """
        assign = np.asarray(assign).copy()
        improved = True
        while improved:
            improved = False
            best = (1e-12, None)
            for i in range(n):
                for j in range(i + 1, n):
                    a, b = assign[i], assign[j]
                    if a == b:
                        continue
                    before = sym[i] @ (assign != a) + sym[j] @ (assign != b)
                    after = sym[i] @ (assign != b) + sym[j] @ (assign != a)
                    # The (i, j) pair crosses both before and after the
                    # swap, but the ``after`` expression (evaluated against
                    # the pre-swap assignment) scores it as local twice.
                    after += 2.0 * sym[i, j]
                    gain = before - after
                    if gain > best[0]:
                        best = (gain, (i, j))
            if best[1] is not None:
                i, j = best[1]
                assign[i], assign[j] = assign[j], assign[i]
                improved = True
        return [int(d) for d in assign]

    # Greedy seed: heaviest talkers first onto their best non-full die.
    order = np.argsort(-sym.sum(axis=1), kind="stable")
    greedy = [-1] * n
    fill = {d: 0 for d in outer}
    for s in map(int, order):
        best_die, best_gain = None, -1.0
        for d in outer:
            if fill[d] >= cap:
                continue
            gain = sum(sym[s, t] for t in range(n) if greedy[t] == d)
            if gain > best_gain:
                best_die, best_gain = d, gain
        greedy[s] = best_die
        fill[best_die] += 1

    candidates = [refine(greedy), refine(plan_shard_dies(n, dies))]
    return min(candidates, key=crossings)
