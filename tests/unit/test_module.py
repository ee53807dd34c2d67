"""Unit tests for the module system: registration, Linear, GRUCell, MLP."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.autograd.init import glorot_uniform
from repro.autograd.module import GRUCell, Linear, MLP, Module, Parameter
from tests.property.gradcheck import check_gradients, sum_sq


class TestRegistration:
    def test_parameters_recursive(self):
        mlp = MLP(4, 8, 2)
        names = dict(mlp.named_parameters())
        assert set(names) == {"fc1.weight", "fc1.bias",
                              "fc2.weight", "fc2.bias"}

    def test_state_dict_roundtrip(self):
        a, b = Linear(3, 2), Linear(3, 2, rng=np.random.default_rng(9))
        assert not np.allclose(a.weight.data, b.weight.data)
        b.load_state_dict(a.state_dict())
        assert np.allclose(a.weight.data, b.weight.data)

    def test_state_dict_mismatch_raises(self):
        a = Linear(3, 2)
        with pytest.raises(KeyError):
            a.load_state_dict({"weight": np.zeros((2, 3))})
        sd = a.state_dict()
        sd["weight"] = np.zeros((5, 5))
        with pytest.raises(ValueError):
            a.load_state_dict(sd)

    def test_parameter_trainable_even_under_no_grad(self):
        from repro.autograd import no_grad
        with no_grad():
            p = Parameter(np.ones(3))
        assert p.requires_grad


class TestLinear:
    def test_glorot_uniform_init(self):
        w = glorot_uniform(64, 32, rng=np.random.default_rng(0))
        limit = np.sqrt(6.0 / (32 + 64))
        assert w.shape == (64, 32)
        assert np.abs(w).max() <= limit and np.abs(w).max() > 0.9 * limit
        assert abs(w.var() - limit ** 2 / 3) < 0.1 * limit ** 2 / 3
        assert np.array_equal(w, glorot_uniform(64, 32))  # seed-0 default

    def test_affine_values(self):
        lin = Linear(3, 2)
        x = np.random.default_rng(0).normal(size=(4, 3))
        got = lin(Tensor(x)).data
        ref = x @ lin.weight.data.T + lin.bias.data
        assert np.allclose(got, ref)

    def test_linear_3d_input(self):
        lin = Linear(3, 2)
        x = np.random.default_rng(1).normal(size=(4, 5, 3))
        assert lin(Tensor(x)).shape == (4, 5, 2)

    def test_no_bias(self):
        lin = Linear(3, 2, bias=False)
        assert lin.bias is None
        assert lin(Tensor(np.zeros((1, 3)))).data.sum() == 0.0

    def test_gradcheck(self):
        lin = Linear(3, 2, rng=np.random.default_rng(2))
        x = Tensor(np.random.default_rng(3).normal(size=(4, 3)))
        check_gradients(lambda w, b: sum_sq(x @ w.T + b),
                        [lin.weight, lin.bias])


class TestGRUCell:
    def test_shapes(self):
        gru = GRUCell(6, 4)
        m = Tensor(np.zeros((5, 6)))
        s = Tensor(np.zeros((5, 4)))
        assert gru(m, s).shape == (5, 4)

    def test_zero_input_keeps_interpolation_bounds(self):
        # s' is a convex combination of candidate (tanh in [-1,1]) and s.
        gru = GRUCell(3, 4, rng=np.random.default_rng(0))
        s = np.random.default_rng(1).uniform(-1, 1, size=(10, 4))
        out = gru(Tensor(np.zeros((10, 3))), Tensor(s)).data
        assert np.all(out <= np.maximum(np.abs(s), 1.0) + 1e-9)

    def test_matches_manual_reference(self):
        gru = GRUCell(3, 2, rng=np.random.default_rng(4))
        m = np.random.default_rng(5).normal(size=(4, 3))
        s = np.random.default_rng(6).normal(size=(4, 2))
        got = gru(Tensor(m), Tensor(s)).data

        def sig(x):
            return 1.0 / (1.0 + np.exp(-x))
        gi = m @ gru.weight_ih.data.T + gru.bias_ih.data
        gh = s @ gru.weight_hh.data.T + gru.bias_hh.data
        r = sig(gi[:, 0:2] + gh[:, 0:2])
        z = sig(gi[:, 2:4] + gh[:, 2:4])
        n = np.tanh(gi[:, 4:6] + r * gh[:, 4:6])
        assert np.allclose(got, (1 - z) * n + z * s, atol=1e-12)

    def test_gradients_flow_to_all_parameters(self):
        gru = GRUCell(3, 2, rng=np.random.default_rng(7))
        out = gru(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 2))))
        (out * out).sum().backward()
        for name, p in gru.named_parameters():
            assert p.grad is not None, name
            assert np.any(p.grad != 0.0), name


class TestComposites:
    def test_mlp_relu_nonlinearity(self):
        mlp = MLP(2, 4, 1, rng=np.random.default_rng(8))
        x1 = mlp(Tensor(np.array([[1.0, 1.0]]))).item()
        x2 = mlp(Tensor(np.array([[2.0, 2.0]]))).item()
        x15 = mlp(Tensor(np.array([[1.5, 1.5]]))).item()
        # ReLU makes it piecewise linear, generally not exactly midpoint —
        # but output must be finite and deterministic.
        assert np.isfinite([x1, x2, x15]).all()

    def test_mlp_gradcheck(self):
        mlp = MLP(3, 5, 2, rng=np.random.default_rng(9))
        x = Tensor(np.random.default_rng(10).normal(size=(4, 3)),
                   requires_grad=True)
        check_gradients(lambda t, *_: sum_sq(mlp(t)),
                        [x, *mlp.parameters()])
