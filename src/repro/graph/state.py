"""Mutable per-vertex state: the Vertex Memory Table and Vertex Mailbox.

These are the two external-memory tables of the paper's Graph Storage
(Fig. 2).  Memory is the GRU hidden state ``s_v``; the mailbox caches the
most recent raw message per vertex ("Most-Recent" aggregator of TGN), which
the UPDT function consumes on the vertex's *next* appearance — the
information-leak fix described in Section II.

Layout is flat and contiguous: ``(num_nodes, d)`` float arrays updated in
place.  ``snapshot``/``restore`` give the training loop cheap epoch resets.
The two wide tables are stored at the state's ``dtype`` — float32 for a
deployed model, the word the accelerator moves — and both timestamp columns
are always float64: Δt and the LUT bin it selects are taken from them.
"""

from __future__ import annotations

import numpy as np

__all__ = ["VertexState", "VertexRows", "last_occurrence"]


class VertexRows:
    """Per-vertex arrays that share one row format.

    ``_ROW`` names the arrays (attributes of the same name) and gives the
    value each holds for a vertex with no history; copying, resetting and
    snapshotting a vertex's row all go through it.
    """

    _ROW: dict[str, float]

    def _arrays(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in self._ROW}

    def snapshot(self) -> dict[str, np.ndarray]:
        """Deep copy of every array, keyed by ``_ROW`` name."""
        return {name: a.copy() for name, a in self._arrays().items()}

    def restore(self, snap: dict[str, np.ndarray]) -> None:
        for name, a in self._arrays().items():
            a[...] = snap[name]

    def reset(self, rows=None) -> None:
        """Forget ``rows`` (default: every vertex)."""
        for name, a in self._arrays().items():
            a[slice(None) if rows is None else rows] = self._ROW[name]

    def copy_rows(self, src: "VertexRows", rows) -> None:
        """Take ``src``'s rows for the vertices ``rows`` verbatim."""
        theirs = src._arrays()
        for name, a in self._arrays().items():
            a[rows] = theirs[name][rows]


class VertexState(VertexRows):
    """Vertex memory + mailbox + bookkeeping timestamps.

    Parameters
    ----------
    num_nodes:
        Vertex count.
    memory_dim:
        Width of the memory vector ``s_v``.
    raw_message_dim:
        Width of a cached raw message ``s_src || s_dst || f_e`` (the time
        encoding is appended at update time from the stored timestamp, so it
        is *not* part of the cached payload).
    dtype:
        Floating dtype of ``memory`` and ``mailbox``.
    """

    # A ``mail_time`` of -inf marks "no mail yet".
    _ROW = {"memory": 0.0, "mailbox": 0.0, "mail_time": -np.inf,
            "last_update": 0.0}

    def __init__(self, num_nodes: int, memory_dim: int, raw_message_dim: int,
                 dtype=np.float64):
        self.num_nodes = int(num_nodes)
        self.memory_dim = int(memory_dim)
        self.raw_message_dim = int(raw_message_dim)
        self.memory = np.zeros((num_nodes, memory_dim), dtype=dtype)
        self.mailbox = np.zeros((num_nodes, raw_message_dim), dtype=dtype)
        # Timestamp of the cached message; -inf marks "no mail yet".
        self.mail_time = np.full(num_nodes, -np.inf, dtype=np.float64)
        # Timestamp at which `memory` was last written (for delta-t).
        self.last_update = np.zeros(num_nodes, dtype=np.float64)

    # ------------------------------------------------------------------ #
    def has_mail(self, vertices: np.ndarray) -> np.ndarray:
        return self.mail_time[np.asarray(vertices, dtype=np.int64)] > -np.inf

    def write_memory(self, vertices: np.ndarray, values: np.ndarray,
                     t: np.ndarray) -> None:
        """Commit updated memory rows and their update timestamps.

        When a vertex appears multiple times in ``vertices`` the **last**
        write wins — the same semantics the hardware Updater enforces by
        invalidating stale cache lines (Section IV-B).  NumPy fancy
        assignment applies duplicates in order, so we deduplicate explicitly
        to keep the guarantee independent of NumPy internals.
        """
        v = np.asarray(vertices, dtype=np.int64)
        last = last_occurrence(v)
        self.memory[v[last]] = values[last]
        self.last_update[v[last]] = np.asarray(t, dtype=np.float64)[last]

    def write_mail(self, vertices: np.ndarray, messages: np.ndarray,
                   t: np.ndarray) -> None:
        """Cache raw messages (Most-Recent aggregator: last write wins)."""
        v = np.asarray(vertices, dtype=np.int64)
        last = last_occurrence(v)
        self.mailbox[v[last]] = messages[last]
        self.mail_time[v[last]] = np.asarray(t, dtype=np.float64)[last]

    # ------------------------------------------------------------------ #
    def memory_words(self) -> int:
        """External-memory footprint in words (for the resource model)."""
        return self.num_nodes * (self.memory_dim + self.raw_message_dim + 2)


def last_occurrence(v: np.ndarray) -> np.ndarray:
    """Boolean mask selecting the last occurrence of each value in ``v``."""
    if len(v) == 0:
        return np.zeros(0, dtype=bool)
    last = np.ones(len(v), dtype=bool)
    # A position is NOT last if the same value appears later.  Stable sort
    # groups occurrences; within a group only the final index survives.
    order = np.argsort(v, kind="stable")
    sorted_v = v[order]
    not_last_sorted = np.empty(len(v), dtype=bool)
    not_last_sorted[:-1] = sorted_v[:-1] == sorted_v[1:]
    not_last_sorted[-1] = False
    last[order] = ~not_last_sorted
    return last
