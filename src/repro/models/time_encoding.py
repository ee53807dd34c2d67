"""Time encoders: the Transformer-style cosine encoder and its LUT replacement.

Cosine encoder (Eq. 6): ``Phi(dt) = cos(omega * dt + phi)`` with learnable
``omega, phi``.  Its outputs feed vector-matrix products inside the GRU and
the attention aggregator — about 30 % of the simplified model's compute
(§III-C) — and the trigonometric nonlinearity blocks pre-computation.

LUT encoder (§III-C): partition the Δt axis into ``n_bins`` intervals holding
*equal numbers of observed Δt* (the Fig. 1 power law puts most mass near 0,
so equal-width bins would waste resolution), learn one output vector per bin,
and at inference pre-multiply each entry by the downstream weight matrices so
an encode-plus-matmul collapses to a single on-chip lookup (1 cycle on the
FPGA).
"""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor, init
from ..autograd.module import Module, Parameter

__all__ = ["CosineTimeEncoder", "LUTTimeEncoder"]


class CosineTimeEncoder(Module):
    """Eq. (6): ``Phi(dt)_d = cos(omega_d * dt + phi_d)``.

    ``omega`` is initialised geometrically over ~10 decades (the classic
    functional time encoding of Xu et al.), so different output dimensions
    resolve different timescales out of the box.
    """

    def __init__(self, time_dim: int, rng: np.random.Generator | None = None):
        super().__init__()
        self.time_dim = time_dim
        rng = init.default_rng(rng)
        base = 1.0 / (10.0 ** np.linspace(0.0, 9.0, time_dim))
        self.omega = Parameter(base * (1.0 + 0.01 * rng.standard_normal(time_dim)))
        self.phase = Parameter(np.zeros(time_dim))

    def forward(self, dt: Tensor | np.ndarray) -> Tensor:
        """Encode Δt of shape ``(...,)`` to ``(..., time_dim)``."""
        dt = dt if isinstance(dt, Tensor) else Tensor(np.asarray(dt, dtype=np.float64))
        expanded = dt.reshape(*dt.shape, 1)
        return (expanded * self.omega + self.phase).cos()


class LUTTimeEncoder(Module):
    """Equal-frequency binned time encoder with learnable entries (§III-C).

    Call :meth:`calibrate` with observed training Δt *before* training to fix
    the bin edges (they are data statistics, not parameters).  Entries are
    initialised from a cosine encoder evaluated at bin centres so the student
    starts close to the teacher's time features.

    At deployment, :meth:`premultiply` folds a weight matrix into the table:
    ``premultiply(W)[b] = table[b] @ W.T`` — the "reversed computation order"
    trick that removes every ``time_dim``-wide matmul at inference.
    """

    def __init__(self, time_dim: int, n_bins: int = 128,
                 rng: np.random.Generator | None = None):
        super().__init__()
        if n_bins <= 0:
            raise ValueError("n_bins must be positive")
        self.time_dim = time_dim
        self.n_bins = n_bins
        self.table = Parameter(init.normal((n_bins, time_dim), std=0.1, rng=rng))
        # Edges default to a degenerate single-bin partition until calibrated.
        self.edges = np.concatenate(([0.0], np.full(n_bins - 1, np.inf), [np.inf]))
        self.calibrated = False

    # ------------------------------------------------------------------ #
    def calibrate(self, deltas: np.ndarray,
                  reference: CosineTimeEncoder | None = None) -> None:
        """Fit equal-frequency bin edges from observed Δt values.

        If ``reference`` is given, entries are re-initialised to the cosine
        encoding of each bin's median Δt (the distillation warm start).
        """
        from ..datasets.stats import equal_frequency_edges
        self.edges = equal_frequency_edges(deltas, n_bins=self.n_bins)
        self.calibrated = True
        if reference is not None:
            centers = self._bin_centers(deltas)
            self.table.data[...] = reference(centers).data

    def _bin_centers(self, deltas: np.ndarray) -> np.ndarray:
        """Median observed Δt per bin (empty bins fall back to edge values)."""
        d = np.asarray(deltas, dtype=np.float64)
        idx = self.bin_index(d)
        centers = np.zeros(self.n_bins)
        for b in range(self.n_bins):
            members = d[idx == b]
            if len(members):
                centers[b] = np.median(members)
            else:
                lo = self.edges[b]
                centers[b] = lo if np.isfinite(lo) else self.edges[b - 1]
        return centers

    # ------------------------------------------------------------------ #
    def bin_index(self, dt: np.ndarray) -> np.ndarray:
        """Map Δt values to bin ids in ``[0, n_bins)`` (vectorised)."""
        dt = np.asarray(dt, dtype=np.float64)
        idx = np.searchsorted(self.edges, dt, side="right") - 1
        return np.clip(idx, 0, self.n_bins - 1)

    def forward(self, dt: Tensor | np.ndarray) -> Tensor:
        """Differentiable lookup: gradient scatters into the hit entries."""
        raw = dt.data if isinstance(dt, Tensor) else np.asarray(dt, dtype=np.float64)
        return self.table[self.bin_index(raw)]

    # ------------------------------------------------------------------ #
    def premultiply(self, weight: np.ndarray) -> np.ndarray:
        """Fold ``weight`` (shape ``(out, time_dim)``) into the table.

        Returns ``(n_bins, out)`` such that row ``b`` equals
        ``weight @ table[b]`` — the on-chip pre-computed product the FPGA
        stores in BRAM/URAM.  One lookup then replaces encode + matmul.
        """
        weight = np.asarray(weight, dtype=np.float64)
        if weight.shape[1] != self.time_dim:
            raise ValueError("weight inner dim must equal time_dim")
        return self.table.data @ weight.T

    def storage_words(self, out_dims: list[int] | None = None) -> int:
        """On-chip words needed for the (pre-multiplied) tables."""
        if out_dims:
            return self.n_bins * int(sum(out_dims))
        return self.n_bins * self.time_dim
