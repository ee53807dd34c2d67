"""Message construction (Eqs. 4-5) and the Most-Recent aggregator contract.

A graph signal between ``i`` and ``j`` at time ``t_e`` generates two raw
messages ``m_i = s_i || s_j || f_e`` and ``m_j = s_j || s_i || f_e``.  The
time encoding ``Phi(dt)`` of Eq. (4) is appended later, *at consumption
time*, from the stored mail timestamp — storing raw payloads keeps the
mailbox row width independent of the encoder and lets the LUT encoder swap
in without touching external-memory layout.

The "Most-Recent" aggregator itself is the last-write-wins semantics of
:meth:`repro.graph.state.VertexState.write_mail`.
"""

from __future__ import annotations

import numpy as np

__all__ = ["raw_messages", "build_raw_messages"]


def raw_messages(mem_self: np.ndarray, mem_other: np.ndarray,
                 edge_feat: np.ndarray) -> np.ndarray:
    """``m = s_self || s_other || f_e`` row by row: the mailbox row layout."""
    return np.concatenate([mem_self, mem_other, edge_feat], axis=1)


def build_raw_messages(mem_src: np.ndarray, mem_dst: np.ndarray,
                       edge_feat: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Build both directed raw messages for a batch of edges.

    Parameters
    ----------
    mem_src, mem_dst:
        ``(B, d_mem)`` *updated* memory of the endpoints (Algorithm 1 updates
        memory before caching the new messages).
    edge_feat:
        ``(B, d_ef)`` edge features; ``d_ef`` may be zero.

    Returns
    -------
    ``(msg_src, msg_dst)`` each of shape ``(B, 2*d_mem + d_ef)``.
    """
    if mem_src.shape != mem_dst.shape:
        raise ValueError("endpoint memory shapes must match")
    if len(edge_feat) != len(mem_src):
        raise ValueError("edge_feat batch size mismatch")
    return (raw_messages(mem_src, mem_dst, edge_feat),
            raw_messages(mem_dst, mem_src, edge_feat))
