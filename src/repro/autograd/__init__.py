"""NumPy reverse-mode autograd: the training substrate of the reproduction.

Public surface::

    from repro.autograd import Tensor, no_grad
    from repro.autograd import functional as F
    from repro.autograd.module import Module, Linear, GRUCell, MLP
    from repro.autograd.optim import Adam
"""

from . import functional, init  # noqa: F401
from .module import GRUCell, Linear, MLP, Module, Parameter  # noqa: F401
from .optim import Adam, clip_grad_norm  # noqa: F401
from .tensor import Tensor, as_tensor, no_grad  # noqa: F401

__all__ = [
    "Tensor", "no_grad", "as_tensor",
    "Module", "Parameter", "Linear", "GRUCell", "MLP",
    "Adam", "clip_grad_norm",
    "functional", "init",
]
