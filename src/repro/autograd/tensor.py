"""Reverse-mode automatic differentiation on NumPy arrays.

This module is the training substrate for the reproduction: the paper trains
its teacher (TGN-attn) and distilled student models with PyTorch; we provide
an equivalent, dependency-free engine.  Design goals, in order:

1. **Correctness** — every op's vector-Jacobian product is validated against
   central finite differences (the tests' ``gradcheck`` oracle and the
   property-based tests).
2. **Vectorised hot paths** — all forward/backward math is expressed as whole
   array NumPy operations; no Python loops over elements.
3. **Small surface** — only the ops the TGNN models need are implemented, so
   every op can be carefully tested.

The public entry point is :class:`Tensor`.  A global no-grad mode
(:func:`no_grad`) lets inference reuse the exact training code path with no
graph recorded, which keeps the model implementations single-source: every
module in :mod:`repro.models` has one body, and ``TGNN.infer_batch`` is
``process_batch`` under it.

Precision is the other half of that mode.  A tensor stores its data at one
module-level floating dtype: float64 whenever the graph is recorded, and
under ``no_grad(dtype)`` whatever ``dtype`` names.  Every op builds its
result through :class:`Tensor`, so an op on mixed operands (a float32 row
times a float64 array, or GRU's ``1.0 - z``) stores the mode's dtype, not
the float64 NumPy would promote it to.  ``TGNN.infer_batch`` runs under
``no_grad(rt.state.memory.dtype)``: a float32 deployment computes in
float32 end to end, and training, gradients and Adam never leave float64.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = ["Tensor", "no_grad", "as_tensor"]

# Module-level switches: whether to record the graph, and the floating dtype
# every Tensor stores its data at (float64 whenever the graph is recorded).
_GRAD_ENABLED: bool = True
_DTYPE = np.float64


@contextlib.contextmanager
def no_grad(dtype=np.float64):
    """Context manager that disables graph recording (inference mode);
    tensors built inside store their data at ``dtype``."""
    global _GRAD_ENABLED, _DTYPE
    prev = _GRAD_ENABLED, _DTYPE
    _GRAD_ENABLED, _DTYPE = False, dtype
    try:
        yield
    finally:
        _GRAD_ENABLED, _DTYPE = prev


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing NumPy broadcasting.

    Broadcasting may (a) prepend axes and (b) stretch size-1 axes; the adjoint
    of both is summation over the broadcast axes.
    """
    if grad.shape == shape:
        return grad
    # (a) remove prepended axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # (b) collapse stretched axes.
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def as_tensor(value) -> "Tensor":
    """Coerce ``value`` (Tensor, ndarray, scalar, nested list) to a Tensor."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


class Tensor:
    """A NumPy array plus an autograd tape node.

    Parameters
    ----------
    data:
        Array-like payload; stored as an ``np.ndarray`` of the current
        precision (float64 unless under ``no_grad(dtype)``).
    requires_grad:
        Whether gradients should be accumulated into ``self.grad`` during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "_op")
    __array_priority__ = 100  # make ndarray.__mul__ defer to Tensor.__rmul__

    def __init__(self, data, requires_grad: bool = False):
        if isinstance(data, Tensor):  # defensive: never nest tensors
            data = data.data
        self.data: np.ndarray = np.asarray(data, dtype=_DTYPE)
        self.grad: np.ndarray | None = None
        self.requires_grad: bool = bool(requires_grad) and _GRAD_ENABLED
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._op: str = "leaf"

    # ------------------------------------------------------------------ #
    # introspection                                                       #
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, op={self._op}{flag})"

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError("item() requires a single-element tensor")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        """Return a new leaf tensor sharing this tensor's data."""
        return Tensor(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------ #
    # graph construction                                                  #
    # ------------------------------------------------------------------ #
    @staticmethod
    def _make(data: np.ndarray, parents: Sequence["Tensor"], op: str,
              backward: Callable[[np.ndarray], None]) -> "Tensor":
        """Create a non-leaf tensor; records the tape only in grad mode."""
        out = Tensor(data)
        if _GRAD_ENABLED and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
            out._op = op
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        """Add ``grad`` into ``self.grad`` (allocating on first use)."""
        if not self.requires_grad:
            return
        grad = _unbroadcast(np.asarray(grad, dtype=np.float64), self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Run reverse-mode accumulation from this tensor.

        ``grad`` defaults to ones (scalar outputs are the common case).
        Topological order is computed iteratively so deep GRU chains cannot
        overflow the Python recursion limit.
        """
        if grad is None:
            grad = np.ones_like(self.data)
        # Iterative post-order DFS over the tape.
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # ------------------------------------------------------------------ #
    # arithmetic                                                          #
    # ------------------------------------------------------------------ #
    def __add__(self, other) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data + other.data

        def backward(g: np.ndarray) -> None:
            self._accumulate(g)
            other._accumulate(g)

        return Tensor._make(out_data, (self, other), "add", backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(g: np.ndarray) -> None:
            self._accumulate(-g)

        return Tensor._make(-self.data, (self,), "neg", backward)

    def __sub__(self, other) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data - other.data

        def backward(g: np.ndarray) -> None:
            self._accumulate(g)
            other._accumulate(-g)

        return Tensor._make(out_data, (self, other), "sub", backward)

    def __rsub__(self, other) -> "Tensor":
        return as_tensor(other) - self

    def __mul__(self, other) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data * other.data

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * other.data)
            other._accumulate(g * self.data)

        return Tensor._make(out_data, (self, other), "mul", backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data / other.data

        def backward(g: np.ndarray) -> None:
            self._accumulate(g / other.data)
            other._accumulate(-g * self.data / (other.data ** 2))

        return Tensor._make(out_data, (self, other), "div", backward)

    def __rtruediv__(self, other) -> "Tensor":
        return as_tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("Tensor.__pow__ supports scalar exponents only")
        out_data = self.data ** exponent

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * exponent * self.data ** (exponent - 1))

        return Tensor._make(out_data, (self,), "pow", backward)

    def __matmul__(self, other) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data @ other.data

        def backward(g: np.ndarray) -> None:
            a, b = self.data, other.data
            if a.ndim == 1 and b.ndim == 1:  # inner product -> scalar
                self._accumulate(g * b)
                other._accumulate(g * a)
            elif a.ndim == 1:  # (k,) @ (k, n) -> (n,)
                self._accumulate(g @ b.T)
                other._accumulate(np.outer(a, g))
            elif b.ndim == 1:  # (m, k) @ (k,) -> (m,)
                self._accumulate(np.outer(g, b))
                other._accumulate(a.T @ g)
            else:
                ga = g @ np.swapaxes(b, -1, -2)
                gb = np.swapaxes(a, -1, -2) @ g
                self._accumulate(_unbroadcast(ga, a.shape))
                other._accumulate(_unbroadcast(gb, b.shape))

        return Tensor._make(out_data, (self, other), "matmul", backward)

    # ------------------------------------------------------------------ #
    # elementwise nonlinearities                                          #
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * out_data)

        return Tensor._make(out_data, (self,), "exp", backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(g: np.ndarray) -> None:
            self._accumulate(g / self.data)

        return Tensor._make(out_data, (self,), "log", backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * (1.0 - out_data ** 2))

        return Tensor._make(out_data, (self,), "tanh", backward)

    def sigmoid(self) -> "Tensor":
        # Numerically stable logistic: exp only ever sees non-positive input.
        # ``exp(-|x|)`` is evaluated once, in place: three arrays in all.
        x = self.data
        e = np.abs(x, out=np.empty_like(x))
        np.exp(np.negative(e, out=e), out=e)
        # Numerator, branch-free: e <= 1, so max(e, [x >= 0]) is 1 where
        # x >= 0 and e = exp(x) below.
        out_data = np.maximum(e, x >= 0)
        e += 1.0
        out_data /= e

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * out_data * (1.0 - out_data))

        return Tensor._make(out_data, (self,), "sigmoid", backward)

    def relu(self) -> "Tensor":
        out_data = np.maximum(self.data, 0.0)

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * (self.data > 0))

        return Tensor._make(out_data, (self,), "relu", backward)

    def sqrt(self) -> "Tensor":
        return self ** 0.5

    def cos(self) -> "Tensor":
        out_data = np.cos(self.data)

        def backward(g: np.ndarray) -> None:
            self._accumulate(-g * np.sin(self.data))

        return Tensor._make(out_data, (self,), "cos", backward)

    # ------------------------------------------------------------------ #
    # reductions                                                          #
    # ------------------------------------------------------------------ #
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(g: np.ndarray) -> None:
            g = np.asarray(g)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            self._accumulate(np.broadcast_to(g, self.data.shape))

        return Tensor._make(out_data, (self,), "sum", backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if np.isscalar(axis) else tuple(axis)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: int, keepdims: bool = False) -> "Tensor":
        """Max along ``axis``; ties split gradient evenly (sub-gradient)."""
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(g: np.ndarray) -> None:
            expanded = out_data if keepdims else np.expand_dims(out_data, axis)
            mask = (self.data == expanded).astype(np.float64)
            mask /= mask.sum(axis=axis, keepdims=True)
            g_full = g if keepdims else np.expand_dims(g, axis)
            self._accumulate(mask * g_full)

        return Tensor._make(out_data, (self,), "max", backward)

    # ------------------------------------------------------------------ #
    # shape manipulation                                                  #
    # ------------------------------------------------------------------ #
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)

        def backward(g: np.ndarray) -> None:
            self._accumulate(g.reshape(self.data.shape))

        return Tensor._make(out_data, (self,), "reshape", backward)

    def transpose(self, axes: tuple[int, ...] | None = None) -> "Tensor":
        out_data = np.transpose(self.data, axes)
        inverse = None if axes is None else tuple(np.argsort(axes))

        def backward(g: np.ndarray) -> None:
            self._accumulate(np.transpose(g, inverse))

        return Tensor._make(out_data, (self,), "transpose", backward)

    def __getitem__(self, index) -> "Tensor":
        """Basic and integer-array indexing with scatter-add adjoint."""
        out_data = self.data[index]

        def backward(g: np.ndarray) -> None:
            if not self.requires_grad:
                return
            full = np.zeros_like(self.data)
            np.add.at(full, index, g)  # handles repeated indices correctly
            self._accumulate(full)

        return Tensor._make(out_data, (self,), "getitem", backward)

    @staticmethod
    def concat(tensors: Iterable["Tensor"], axis: int = -1) -> "Tensor":
        tensors = [as_tensor(t) for t in tensors]
        out_data = np.concatenate([t.data for t in tensors], axis=axis)
        sizes = [t.data.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)

        def backward(g: np.ndarray) -> None:
            for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                t._accumulate(g[tuple(idx)])

        return Tensor._make(out_data, tuple(tensors), "concat", backward)

    @staticmethod
    def stack(tensors: Iterable["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [as_tensor(t) for t in tensors]
        out_data = np.stack([t.data for t in tensors], axis=axis)

        def backward(g: np.ndarray) -> None:
            for i, t in enumerate(tensors):
                t._accumulate(np.take(g, i, axis=axis))

        return Tensor._make(out_data, tuple(tensors), "stack", backward)

    @staticmethod
    def where(condition: np.ndarray, a: "Tensor", b: "Tensor") -> "Tensor":
        """Elementwise select; ``condition`` is a plain boolean array."""
        a, b = as_tensor(a), as_tensor(b)
        cond = np.asarray(condition, dtype=bool)
        out_data = np.where(cond, a.data, b.data)

        def backward(g: np.ndarray) -> None:
            a._accumulate(np.where(cond, g, 0.0))
            b._accumulate(np.where(cond, 0.0, g))

        return Tensor._make(out_data, (a, b), "where", backward)
