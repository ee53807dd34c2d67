"""The Updater: a fully-associative cache with rotating pointers (§IV-B).

Responsibilities (numbered as in the paper):

1. receive updated vertex information from the CUs (round-robin order),
2. write it back to external memory,
3. guarantee chronological commit order, and
4. eliminate redundant updates — when a vertex is updated again while an
   older update is still uncommitted, the stale line is invalidated.

This module provides both the *functional* dedup decision (which writes
survive) and the *timing* (commit cycles consumed, stalls when the cache
fills).  The chronological-commit invariant — a vertex's surviving write is
always its latest — is property-tested against a last-write-wins oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["UpdaterCache", "UpdaterReport"]


@dataclass
class UpdaterReport:
    """Outcome of pushing one batch of vertex updates through the Updater."""

    cycles: int                 # commit cycles consumed
    invalidated: int            # stale lines eliminated (redundant updates)
    committed: int              # lines written back to external memory
    survivors: np.ndarray       # indices (into the input) that committed
    stalled_cycles: int         # cycles the CUs waited on a full cache


class UpdaterCache:
    """Cycle-approximate model of the rotating-pointer commit cache.

    Entries enter in arrival order (the CUs' round-robin order preserves
    stream chronology); the commit pointer retires up to ``scan_width``
    consecutive lines per cycle.  An uncommitted line is invalidated when a
    newer update for the same vertex arrives, so external memory sees only
    the newest value — and sees it in chronological position.

    At one arrival per cycle the pointer never has more than one valid
    line to retire, so ``scan_width`` does not change the cycle count.
    """

    def __init__(self, lines: int, scan_width: int = 3):
        if lines <= 0 or scan_width <= 0:
            raise ValueError("lines and scan_width must be positive")
        self.lines = lines
        self.scan_width = scan_width

    def process(self, vertex_ids: np.ndarray) -> UpdaterReport:
        """Run one batch of vertex updates (in arrival order) to completion.

        Returns timing and the surviving update set.  Each arrival takes
        one line, one per cycle; the commit pointer retires valid lines
        from the FIFO head; an arrival stalls one cycle when every line is
        occupied.
        """
        ids = np.asarray(vertex_ids, dtype=np.int64).tolist()
        n = len(ids)
        if n == 0:
            return UpdaterReport(cycles=0, invalidated=0, committed=0,
                                 survivors=np.zeros(0, dtype=np.int64),
                                 stalled_cycles=0)

        # Functional outcome: last occurrence of each vertex commits, except
        # when the older line already committed before the newer arrival.
        # With one arrival per cycle and `scan_width >= 1`, a line older than
        # `lines` ago has always committed; we conservatively model the
        # invalidation window as the cache depth.
        keep = [True] * n
        last_seen: dict[int, int] = {}
        for i, vid in enumerate(ids):
            j = last_seen.get(vid)
            if j is not None and i - j < self.lines:
                # Older update still (potentially) uncommitted: invalidate.
                keep[j] = False
            last_seen[vid] = i
        survivors = np.flatnonzero(keep)
        invalidated = n - len(survivors)

        # Timing, in closed form.  A valid line is retired the cycle after
        # it arrives, so with one arrival per cycle at most one is ever
        # pending and ``scan_width`` never enters.  An invalidated line is
        # never reclaimed: it holds its slot for the rest of the batch, so
        # arrival ``i`` stalls once when at least ``lines`` lines before it
        # were invalidated.  The last arrival always survives and drains
        # in one more cycle.
        stalled = 0
        if invalidated >= self.lines:
            dead = np.flatnonzero(np.logical_not(keep))
            stalled = n - 1 - int(dead[self.lines - 1])
        return UpdaterReport(cycles=n + stalled + 1, invalidated=invalidated,
                             committed=len(survivors), survivors=survivors,
                             stalled_cycles=stalled)
