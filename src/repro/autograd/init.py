"""Weight initialisation schemes.

All functions take an optional ``rng`` so experiments are reproducible
end-to-end from a single seed (the benches and training harness thread one
``np.random.Generator`` through every stochastic component).
"""

from __future__ import annotations

import numpy as np

__all__ = ["glorot_uniform", "normal", "default_rng"]


def default_rng(rng: np.random.Generator | None) -> np.random.Generator:
    """Return ``rng`` or a freshly seeded deterministic generator."""
    # The designated seed-0 fallback every unseeded component shares.
    return rng if rng is not None \
        else np.random.default_rng(0)  # repro-lint: ok=unseeded-rng (documented deterministic fallback)


def glorot_uniform(fan_out: int, fan_in: int,
                   rng: np.random.Generator | None = None) -> np.ndarray:
    """Glorot/Xavier uniform init for a ``(fan_out, fan_in)`` weight."""
    rng = default_rng(rng)
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_out, fan_in))


def normal(shape: tuple[int, ...], std: float = 0.02,
           rng: np.random.Generator | None = None) -> np.ndarray:
    rng = default_rng(rng)
    return rng.normal(0.0, std, size=shape)
