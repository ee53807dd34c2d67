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

__all__ = ["raw_messages"]


def raw_messages(mem_self: np.ndarray, mem_other: np.ndarray,
                 edge_feat: np.ndarray) -> np.ndarray:
    """``m = s_self || s_other || f_e`` row by row: the mailbox row layout."""
    return np.concatenate([mem_self, mem_other, edge_feat], axis=1)
