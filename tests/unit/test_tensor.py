"""Unit tests for the autograd Tensor: forward values and exact gradients."""

import numpy as np
import pytest

from repro.autograd import Tensor, check_gradients, no_grad
from repro.autograd.tensor import _unbroadcast


class TestForwardValues:
    def test_add_matches_numpy(self):
        a, b = Tensor([1.0, 2.0]), Tensor([3.0, 4.0])
        assert np.allclose((a + b).data, [4.0, 6.0])

    def test_scalar_radd(self):
        a = Tensor([1.0, 2.0])
        assert np.allclose((1.0 + a).data, [2.0, 3.0])

    def test_sub_and_rsub(self):
        a = Tensor([5.0, 1.0])
        assert np.allclose((a - 2.0).data, [3.0, -1.0])
        assert np.allclose((2.0 - a).data, [-3.0, 1.0])

    def test_mul_broadcast(self):
        a = Tensor(np.ones((2, 3)))
        b = Tensor([1.0, 2.0, 3.0])
        assert np.allclose((a * b).data, [[1, 2, 3], [1, 2, 3]])

    def test_div(self):
        a = Tensor([6.0, 9.0])
        assert np.allclose((a / 3.0).data, [2.0, 3.0])

    def test_pow(self):
        assert np.allclose((Tensor([2.0, 3.0]) ** 2).data, [4.0, 9.0])

    def test_pow_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            Tensor([2.0]) ** Tensor([2.0])

    def test_matmul_2d(self):
        a = Tensor(np.arange(6.0).reshape(2, 3))
        b = Tensor(np.arange(12.0).reshape(3, 4))
        assert np.allclose((a @ b).data, a.data @ b.data)

    def test_matmul_batched(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(5, 2, 3)))
        b = Tensor(rng.normal(size=(3, 4)))
        assert np.allclose((a @ b).data, a.data @ b.data)

    def test_exp_log_roundtrip(self):
        x = Tensor([0.5, 1.5])
        assert np.allclose(x.exp().log().data, x.data)

    def test_sigmoid_extremes_stable(self):
        x = Tensor([-1000.0, 0.0, 1000.0])
        s = x.sigmoid().data
        assert np.all(np.isfinite(s))
        assert np.allclose(s, [0.0, 0.5, 1.0])

    def test_sigmoid_is_the_textbook_stable_form(self):
        """One ``exp(-|x|)`` pass, array-equal to the two-branch logistic;
        a scalar works too and the input is not written."""
        mags = np.array([0.0, 5e-324, 1e-300, 1.0, 40.0, 800.0])
        x = np.concatenate([mags, -mags])
        keep = x.copy()
        e = np.exp(-np.abs(x))
        want = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
        assert np.array_equal(Tensor(x).sigmoid().data, want)
        assert np.array_equal(x, keep)
        assert Tensor(0.0).sigmoid().item() == 0.5

    def test_relu(self):
        out = Tensor([-1.0, 0.0, 2.0]).relu().data
        assert np.array_equal(out, [0, 0, 2])
        assert not np.signbit(out).any()         # no -0.0
        x = Tensor([-1.0, 0.0, 2.0], requires_grad=True)
        x.relu().sum().backward()
        assert np.array_equal(x.grad, [0, 0, 1])

    def test_cos(self):
        x = Tensor([0.0, np.pi])
        assert np.allclose(x.cos().data, [1.0, -1.0])

    def test_sum_axis_keepdims(self):
        x = Tensor(np.ones((2, 3)))
        assert x.sum(axis=1, keepdims=True).shape == (2, 1)
        assert x.sum().item() == 6.0

    def test_mean_axis(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        assert np.allclose(x.mean(axis=0).data, [1.5, 2.5, 3.5])

    def test_max_axis(self):
        x = Tensor([[1.0, 5.0], [7.0, 2.0]])
        assert np.allclose(x.max(axis=1).data, [5.0, 7.0])

    def test_reshape_transpose(self):
        x = Tensor(np.arange(6.0))
        assert x.reshape(2, 3).shape == (2, 3)
        assert x.reshape((3, 2)).T.shape == (2, 3)

    def test_getitem_fancy(self):
        x = Tensor(np.arange(10.0))
        idx = np.array([1, 1, 3])
        assert np.allclose(x[idx].data, [1.0, 1.0, 3.0])

    def test_concat_stack(self):
        a, b = Tensor(np.ones((2, 2))), Tensor(np.zeros((2, 3)))
        assert Tensor.concat([a, b], axis=1).shape == (2, 5)
        assert Tensor.stack([a, a], axis=0).shape == (2, 2, 2)

    def test_where(self):
        out = Tensor.where(np.array([True, False]), Tensor([1.0, 1.0]),
                           Tensor([2.0, 2.0]))
        assert np.allclose(out.data, [1.0, 2.0])


class TestGradients:
    """Every primitive op's VJP validated against finite differences."""

    def _p(self, shape, seed=0):
        rng = np.random.default_rng(seed)
        return Tensor(rng.normal(size=shape), requires_grad=True)

    def test_add_mul_chain(self):
        a, b = self._p((3, 2)), self._p((3, 2), seed=1)
        check_gradients(lambda x, y: ((x + y) * x).sum(), [a, b])

    def test_sub_div(self):
        a, b = self._p((4,)), self._p((4,), seed=1)
        b.data += 3.0  # keep the denominator away from zero
        check_gradients(lambda x, y: (x / y - y).sum(), [a, b])

    def test_matmul_grads(self):
        a, b = self._p((3, 4)), self._p((4, 2), seed=1)
        check_gradients(lambda x, y: (x @ y).sum(), [a, b])

    def test_matmul_vector_cases(self):
        a, b = self._p((4,)), self._p((4,), seed=1)
        check_gradients(lambda x, y: x @ y, [a, b])
        m = self._p((4, 3), seed=2)
        check_gradients(lambda x, w: (x @ w).sum(), [a, m])
        check_gradients(lambda w, x: (w @ x).sum(), [m.T if False else self._p((3, 4), seed=3), a])

    def test_broadcast_grads(self):
        a, b = self._p((2, 3)), self._p((3,), seed=1)
        check_gradients(lambda x, y: (x * y + y).sum(), [a, b])

    def test_elementwise_nonlinearities(self):
        x = self._p((5,))
        check_gradients(lambda t: t.tanh().sum(), [x])
        check_gradients(lambda t: t.sigmoid().sum(), [x])
        check_gradients(lambda t: t.exp().sum(), [x])
        check_gradients(lambda t: t.cos().sum(), [x])
        y = self._p((5,), seed=2)
        y.data = np.abs(y.data) + 0.5
        check_gradients(lambda t: t.log().sum(), [y])

    def test_reductions(self):
        x = self._p((3, 4))
        check_gradients(lambda t: t.sum(axis=0).sum(), [x])
        check_gradients(lambda t: t.mean(axis=1).sum(), [x])
        check_gradients(lambda t: t.max(axis=1).sum(), [x])

    def test_getitem_scatter_add(self):
        # Repeated indices must accumulate gradient, not overwrite.
        x = Tensor(np.zeros(4), requires_grad=True)
        idx = np.array([1, 1, 2])
        out = x[idx].sum()
        out.backward()
        assert np.allclose(x.grad, [0.0, 2.0, 1.0, 0.0])

    def test_concat_grads(self):
        a, b = self._p((2, 2)), self._p((2, 3), seed=1)
        check_gradients(
            lambda x, y: (Tensor.concat([x, y], axis=1) ** 2).sum(), [a, b])

    def test_where_grads(self):
        a, b = self._p((4,)), self._p((4,), seed=1)
        cond = np.array([True, False, True, False])
        check_gradients(
            lambda x, y: (Tensor.where(cond, x, y) * 2.0).sum(), [a, b])

    def test_deep_chain_no_recursion_error(self):
        x = Tensor(np.ones(4), requires_grad=True)
        y = x
        for _ in range(3000):
            y = y + 1.0
        y.sum().backward()
        assert np.allclose(x.grad, np.ones(4))


class TestGraphMechanics:
    def test_no_grad_blocks_recording(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            y = x * 2.0
        assert not y.requires_grad
        assert y._backward is None

    def test_grad_accumulates_across_backwards(self):
        x = Tensor(np.ones(3), requires_grad=True)
        (x * 2.0).sum().backward()
        (x * 2.0).sum().backward()
        assert np.allclose(x.grad, [4.0, 4.0, 4.0])

    def test_detach_breaks_graph(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = (x * 2.0).detach() * 3.0
        y.sum().backward()
        assert x.grad is None

    def test_diamond_dependency(self):
        # f = (x*2) + (x*3): gradient must be 5, not 2 or 3.
        x = Tensor(np.ones(2), requires_grad=True)
        (x * 2.0 + x * 3.0).sum().backward()
        assert np.allclose(x.grad, [5.0, 5.0])

    def test_unbroadcast_shapes(self):
        g = np.ones((4, 3, 2))
        assert _unbroadcast(g, (3, 2)).shape == (3, 2)
        assert _unbroadcast(g, (1, 2)).shape == (1, 2)
        assert np.allclose(_unbroadcast(g, (1, 2)), [[12.0, 12.0]])
