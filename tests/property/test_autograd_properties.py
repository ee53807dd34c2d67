"""Property-based validation of the autograd engine with hypothesis."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.autograd import Tensor
from repro.autograd import functional as F
from tests.property.gradcheck import check_gradients

settings.register_profile("repro", deadline=None, max_examples=40)
settings.load_profile("repro")

floats = hnp.from_dtype(np.dtype(np.float64), min_value=-3.0, max_value=3.0,
                        allow_nan=False, allow_infinity=False)


def arrays(shape):
    return hnp.arrays(np.float64, shape, elements=floats)


# A softmax over every slot is the masked softmax with a full mask.
FULL = np.ones((4, 3), dtype=bool)


@st.composite
def matmul_pair(draw):
    m = draw(st.integers(1, 4))
    k = draw(st.integers(1, 4))
    n = draw(st.integers(1, 4))
    a = draw(arrays((m, k)))
    b = draw(arrays((k, n)))
    return a, b


class TestGradientProperties:
    @given(matmul_pair())
    def test_matmul_gradcheck(self, pair):
        a, b = pair
        ta = Tensor(a, requires_grad=True)
        tb = Tensor(b, requires_grad=True)
        check_gradients(lambda x, y: (x @ y).sum(), [ta, tb],
                        atol=1e-4, rtol=1e-3)

    @given(arrays((3, 4)))
    def test_tanh_sigmoid_chain_gradcheck(self, x):
        t = Tensor(x, requires_grad=True)
        check_gradients(lambda z: (z.tanh().sigmoid() * z).sum(), [t],
                        atol=1e-4, rtol=1e-3)

    @given(arrays((2, 5)), arrays((5,)))
    def test_broadcast_add_mul_gradcheck(self, a, b):
        ta = Tensor(a, requires_grad=True)
        tb = Tensor(b, requires_grad=True)
        check_gradients(lambda x, y: ((x + y) * y).sum(), [ta, tb],
                        atol=1e-4, rtol=1e-3)

    @given(arrays((4, 3)))
    def test_softmax_rows_form_distribution(self, x):
        s = F.masked_softmax(Tensor(x), FULL).data
        assert np.all(s >= 0)
        assert np.allclose(s.sum(axis=-1), 1.0)

    @given(arrays((4, 3)), st.floats(1.0, 50.0))
    def test_softmax_shift_invariance(self, x, shift):
        a = F.masked_softmax(Tensor(x), FULL).data
        b = F.masked_softmax(Tensor(x + shift), FULL).data
        assert np.allclose(a, b, atol=1e-10)

    @given(arrays((3, 4)),
           hnp.arrays(np.bool_, (3, 4), elements=st.booleans()))
    def test_masked_softmax_respects_mask(self, x, mask):
        s = F.masked_softmax(Tensor(x), mask).data
        assert np.all(s[~mask] == 0.0)
        assert np.all(np.isfinite(s))
        rows = mask.any(axis=1)
        assert np.allclose(s[rows].sum(axis=1), 1.0)
        assert np.allclose(s[~rows], 0.0)

    @given(arrays((6,)),
           hnp.arrays(np.float64, (6,),
                      elements=st.sampled_from([0.0, 1.0])))
    def test_bce_nonnegative_and_grad_bounded(self, logits, targets):
        t = Tensor(logits, requires_grad=True)
        loss = F.bce_with_logits(t, targets)
        assert loss.item() >= 0.0
        loss.backward()
        # d/dx BCE = (sigmoid(x) - t) / n: bounded by 1/n.
        assert np.all(np.abs(t.grad) <= 1.0 / 6 + 1e-9)

    @given(arrays((5, 4)))
    def test_sum_then_backward_is_ones(self, x):
        t = Tensor(x, requires_grad=True)
        t.sum().backward()
        assert np.allclose(t.grad, 1.0)

    @given(arrays((4, 4)))
    def test_double_backward_accumulates(self, x):
        t = Tensor(x, requires_grad=True)
        (t * 2.0).sum().backward()
        g1 = t.grad.copy()
        (t * 2.0).sum().backward()
        assert np.allclose(t.grad, 2 * g1)
