"""Unit tests for differentiable functional blocks."""

import numpy as np

from repro.autograd import Tensor
from repro.autograd import functional as F
from tests.property.gradcheck import check_gradients


def softmax(x: Tensor) -> Tensor:
    """A softmax over every slot: the masked softmax with a full mask."""
    return F.masked_softmax(x, np.ones(x.shape, dtype=bool))


class TestSoftmax:
    def test_rows_sum_to_one(self):
        x = Tensor(np.random.default_rng(0).normal(size=(4, 5)))
        s = softmax(x).data
        assert np.allclose(s.sum(axis=-1), 1.0)

    def test_shift_invariance(self):
        x = np.random.default_rng(1).normal(size=(3, 4))
        a = softmax(Tensor(x)).data
        b = softmax(Tensor(x + 100.0)).data
        assert np.allclose(a, b)

    def test_extreme_values_stable(self):
        x = Tensor(np.array([[1e30, 0.0, -1e30]]))
        s = softmax(x).data
        assert np.all(np.isfinite(s))
        assert np.allclose(s, [[1.0, 0.0, 0.0]])

    def test_softmax_gradient(self):
        x = Tensor(np.random.default_rng(3).normal(size=(2, 4)),
                   requires_grad=True)
        check_gradients(lambda t: (lambda s: s * s)(softmax(t)).sum(), [x])


class TestMaskedSoftmax:
    def test_masked_positions_zero(self):
        x = Tensor(np.zeros((2, 4)))
        mask = np.array([[True, True, False, False],
                         [True, False, False, False]])
        s = F.masked_softmax(x, mask).data
        assert np.allclose(s[0], [0.5, 0.5, 0.0, 0.0])
        assert np.allclose(s[1], [1.0, 0.0, 0.0, 0.0])

    def test_fully_masked_row_is_zero_not_nan(self):
        x = Tensor(np.ones((1, 3)))
        s = F.masked_softmax(x, np.zeros((1, 3), dtype=bool)).data
        assert np.allclose(s, 0.0)
        assert np.all(np.isfinite(s))

    def test_gradient_flows_only_through_valid(self):
        mask = np.array([[True, True, False]])
        x = Tensor(np.array([[1.0, 2.0, 3.0]]), requires_grad=True)
        s = F.masked_softmax(x, mask)
        (s * s).sum().backward()
        assert x.grad[0, 2] == 0.0
        check_gradients(
            lambda t: (lambda s: s * s)(F.masked_softmax(t, mask)).sum(), [x])


class TestLosses:
    def test_bce_matches_reference(self):
        logits = np.array([0.0, 2.0, -2.0])
        targets = np.array([1.0, 1.0, 0.0])
        got = F.bce_with_logits(Tensor(logits), targets).item()
        p = 1.0 / (1.0 + np.exp(-logits))
        ref = -(targets * np.log(p) + (1 - targets) * np.log(1 - p)).mean()
        assert abs(got - ref) < 1e-10

    def test_bce_extreme_logits_finite(self):
        out = F.bce_with_logits(Tensor([1000.0, -1000.0]),
                                np.array([0.0, 1.0]))
        assert np.isfinite(out.item())

    def test_bce_gradient(self):
        x = Tensor(np.random.default_rng(0).normal(size=6),
                   requires_grad=True)
        t = np.random.default_rng(1).integers(0, 2, 6).astype(float)
        check_gradients(lambda z: F.bce_with_logits(z, t), [x])

    def test_bce_gradient_is_sigmoid_minus_target(self):
        """The closed form: d mean-BCE / dx = (sigmoid(x) - t) / n, also
        at logits where the naive form overflows and at exactly 0."""
        logits = np.array([-800.0, -3.0, -0.25, 0.0, 0.0, 0.5, 40.0, 800.0])
        t = np.array([1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 0.0, 1.0])
        x = Tensor(logits, requires_grad=True)
        F.bce_with_logits(x, t).backward()
        sig = 0.5 * (1.0 + np.tanh(0.5 * logits))
        assert np.allclose(x.grad, (sig - t) / len(t), rtol=0, atol=1e-15)

    def test_soft_ce_minimized_when_matching(self):
        teacher = np.array([[2.0, 0.0, -1.0]])
        full = np.ones(teacher.shape, dtype=bool)
        same = F.soft_cross_entropy(Tensor(teacher), teacher, full).item()
        worse = F.soft_cross_entropy(Tensor(-teacher), teacher, full).item()
        assert same < worse

    def test_soft_ce_matches_reference(self):
        """Eq. (17) at T = 1 over the valid slots: the mean, over rows with
        one, of ``-sum softmax(teacher) * log softmax(student)``."""
        rng = np.random.default_rng(6)
        teacher, student = rng.normal(size=(2, 4, 5))
        mask = rng.random((4, 5)) < 0.7
        mask[2] = False
        got = F.soft_cross_entropy(Tensor(student), teacher, mask).item()

        def log_softmax(x):
            x = np.where(mask, x, -1e30)
            x = x - x.max(axis=1, keepdims=True)
            return x - np.log(np.exp(x).sum(axis=1, keepdims=True))

        rows = mask.any(axis=1)
        p_t = np.exp(log_softmax(teacher))[rows]
        want = -(p_t * log_softmax(student)[rows]).sum(axis=1).mean()
        assert abs(got - want) < 1e-12

    def test_soft_ce_masked_rows(self):
        teacher = np.array([[1.0, 2.0, 9.9], [0.0, 0.0, 0.0]])
        mask = np.array([[True, True, False], [False, False, False]])
        student = Tensor(np.array([[1.0, 2.0, -5.0], [7.0, 7.0, 7.0]]),
                         requires_grad=True)
        loss = F.soft_cross_entropy(student, teacher, mask=mask)
        loss.backward()
        # Masked column and fully-masked row contribute no gradient.
        assert np.allclose(student.grad[0, 2], 0.0)
        assert np.allclose(student.grad[1], 0.0)

    def test_soft_ce_gradient(self):
        teacher = np.random.default_rng(2).normal(size=(3, 4))
        x = Tensor(np.random.default_rng(3).normal(size=(3, 4)),
                   requires_grad=True)
        full = np.ones(teacher.shape, dtype=bool)
        check_gradients(
            lambda t: F.soft_cross_entropy(t, teacher, full),
            [x])
