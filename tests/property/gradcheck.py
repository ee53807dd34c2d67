"""The autograd oracle: reverse-mode gradients against finite differences.

Not collected; the autograd suites import it as
``from tests.property.gradcheck import check_gradients``.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.autograd import Tensor


def sum_sq(t: Tensor) -> Tensor:
    """``sum(t ** 2)`` from the ops the models use: ``(t * t).sum()``."""
    return (t * t).sum()

def numerical_grad(fn: Callable[..., Tensor], inputs: Sequence[Tensor],
                   index: int, eps: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient of scalar ``fn`` w.r.t. input ``index``."""
    x = inputs[index]
    grad = np.zeros_like(x.data)
    flat = x.data.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        f_plus = fn(*inputs).item()
        flat[i] = orig - eps
        f_minus = fn(*inputs).item()
        flat[i] = orig
        gflat[i] = (f_plus - f_minus) / (2.0 * eps)
    return grad


def check_gradients(fn: Callable[..., Tensor], inputs: Sequence[Tensor],
                    eps: float = 1e-6, atol: float = 1e-5,
                    rtol: float = 1e-4) -> None:
    """Assert analytic gradients of scalar ``fn`` match finite differences.

    Raises ``AssertionError`` naming the offending input index on mismatch.
    """
    for p in inputs:
        p.zero_grad()
    out = fn(*inputs)
    if out.data.size != 1:
        raise ValueError("check_gradients requires a scalar-valued function")
    out.backward()
    for idx, p in enumerate(inputs):
        if not p.requires_grad:
            continue
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        numeric = numerical_grad(fn, inputs, idx, eps=eps)
        if not np.allclose(analytic, numeric, atol=atol, rtol=rtol):
            worst = float(np.max(np.abs(analytic - numeric)))
            raise AssertionError(
                f"gradient mismatch on input {idx}: max abs err {worst:.3e}")
