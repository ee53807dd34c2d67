"""Minimal neural-network module system over the autograd engine.

Mirrors the subset of ``torch.nn`` that the TGNN models need: parameter
registration and recursive collection, :class:`Linear`, :class:`GRUCell`
(Eqs. (7)-(10) of the paper), and a small :class:`MLP` used by the link
predictor.  State-dict save/load is plain ``dict[str, np.ndarray]`` so model
checkpoints stay NumPy-native.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from . import init
from .tensor import Tensor

__all__ = ["Parameter", "Module", "Linear", "GRUCell", "MLP", "Sequential"]


class Parameter(Tensor):
    """A Tensor that is always a trainable leaf."""

    def __init__(self, data):
        super().__init__(data, requires_grad=True)
        # Parameters must be trainable even when constructed under no_grad
        # (e.g. a model built inside an inference context then trained).
        self.requires_grad = True


class Module:
    """Base class providing parameter/submodule registration by attribute."""

    def __init__(self):
        object.__setattr__(self, "_parameters", {})
        object.__setattr__(self, "_modules", {})

    def __setattr__(self, name, value):
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    # -- parameter access ------------------------------------------------ #
    def parameters(self) -> Iterator[Parameter]:
        """Yield all parameters of this module and its submodules."""
        for p in self._parameters.values():
            yield p
        for m in self._modules.values():
            yield from m.parameters()

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, p in self._parameters.items():
            yield (f"{prefix}{name}", p)
        for mod_name, m in self._modules.items():
            yield from m.named_parameters(prefix=f"{prefix}{mod_name}.")

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    # -- checkpointing ---------------------------------------------------- #
    def state_dict(self) -> dict[str, np.ndarray]:
        """Return a flat name -> array copy of all parameters."""
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load parameter values in place; shapes must match exactly."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(f"state dict mismatch: missing={sorted(missing)}, "
                           f"unexpected={sorted(unexpected)}")
        for name, value in state.items():
            p = own[name]
            value = np.asarray(value, dtype=np.float64)
            if value.shape != p.data.shape:
                raise ValueError(f"shape mismatch for {name}: "
                                 f"{value.shape} vs {p.data.shape}")
            p.data[...] = value

    # -- call protocol ----------------------------------------------------- #
    def forward(self, *args, **kwargs):  # pragma: no cover - interface
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class Linear(Module):
    """Affine map ``y = x @ W^T + b`` with Glorot-uniform initialisation."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: np.random.Generator | None = None):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.glorot_uniform(out_features, in_features, rng=rng))
        self.bias = Parameter(np.zeros(out_features)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight.T
        if self.bias is not None:
            out = out + self.bias
        return out


class GRUCell(Module):
    """Gated recurrent unit matching Eqs. (7)-(10) of the paper.

    ``r = sigma(W_ir m + b_ir + W_hr s + b_hr)``
    ``z = sigma(W_iz m + b_iz + W_hz s + b_hz)``
    ``n = tanh(W_in m + b_in + r * (W_hn s + b_hn))``
    ``s' = (1 - z) * n + z * s``
    """

    def __init__(self, input_size: int, hidden_size: int,
                 rng: np.random.Generator | None = None):
        super().__init__()
        self.input_size = input_size
        self.hidden_size = hidden_size
        # Stacked gate weights: rows [r; z; n], applied in one matmul each
        # for input and hidden (same layout as torch.nn.GRUCell).
        self.weight_ih = Parameter(init.glorot_uniform(3 * hidden_size, input_size, rng=rng))
        self.weight_hh = Parameter(init.glorot_uniform(3 * hidden_size, hidden_size, rng=rng))
        self.bias_ih = Parameter(np.zeros(3 * hidden_size))
        self.bias_hh = Parameter(np.zeros(3 * hidden_size))

    def forward(self, m: Tensor, s: Tensor) -> Tensor:
        return self.gates(m @ self.weight_ih.T + self.bias_ih, s)

    def gates(self, gi: Tensor, s: Tensor) -> Tensor:
        """The cell from its input product ``gi = W_i m + b_i`` on: a caller
        that builds ``gi`` another way (one LUT read for the time slice,
        :class:`~repro.models.memory_updater.GRUMemoryUpdater`) shares
        everything after it."""
        h = self.hidden_size
        gh = s @ self.weight_hh.T + self.bias_hh
        # r and z share one logistic over the [:, :2h] block.
        rz = (gi[:, 0:2 * h] + gh[:, 0:2 * h]).sigmoid()
        r, z = rz[:, 0:h], rz[:, h:2 * h]
        n = (gi[:, 2 * h:3 * h] + r * gh[:, 2 * h:3 * h]).tanh()
        return (1.0 - z) * n + z * s


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *layers: Module):
        super().__init__()
        self.layers = list(layers)
        for i, layer in enumerate(layers):
            setattr(self, f"layer{i}", layer)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x


class MLP(Module):
    """Two-layer perceptron with ReLU, the downstream link decoder shape."""

    def __init__(self, in_features: int, hidden: int, out_features: int,
                 rng: np.random.Generator | None = None):
        super().__init__()
        self.fc1 = Linear(in_features, hidden, rng=rng)
        self.fc2 = Linear(hidden, out_features, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        return self.fc2(self.fc1(x).relu())
