"""Unit tests for optimisers and gradient clipping."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.autograd.module import Parameter
from repro.autograd.optim import Adam, clip_grad_norm


def quadratic_loss(p: Parameter) -> Tensor:
    d = p - 3.0
    return (d * d).sum()


class TestAdam:
    def test_converges_on_quadratic(self):
        p = Parameter(np.zeros(4))
        opt = Adam([p], lr=0.1)
        for _ in range(300):
            opt.zero_grad()
            quadratic_loss(p).backward()
            opt.step()
        assert np.allclose(p.data, 3.0, atol=1e-2)

    def test_bias_correction_first_step_magnitude(self):
        # First Adam step is ~lr regardless of gradient scale.
        for scale in (1e-3, 1e3):
            p = Parameter(np.zeros(1))
            opt = Adam([p], lr=0.01)
            p.grad = np.array([scale])
            opt.step()
            assert abs(abs(p.data[0]) - 0.01) < 1e-3

    def test_empty_parameters_raise(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)

    def test_skips_gradless_parameters(self):
        p1, p2 = Parameter(np.zeros(2)), Parameter(np.ones(2))
        opt = Adam([p1, p2], lr=0.1)
        p1.grad = np.ones(2)
        opt.step()
        assert np.allclose(p2.data, 1.0)
        assert not np.allclose(p1.data, 0.0)

    def test_matches_the_reference_update(self):
        """Three steps against Kingma & Ba's Algorithm 1, written out."""
        lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
        grads = [np.array([0.5, -2.0]), np.array([0.1, 1.0]),
                 np.array([-0.3, 0.0])]
        p = Parameter(np.array([1.0, -1.0]))
        opt = Adam([p], lr=lr, betas=(b1, b2), eps=eps)
        want, m, v = p.data.copy(), np.zeros(2), np.zeros(2)
        for t, g in enumerate(grads, start=1):
            p.grad = g.copy()
            opt.step()
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            want -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t))
                                                + eps)
            assert np.allclose(p.data, want, rtol=0, atol=1e-15)

    def test_moments_are_per_parameter(self):
        """Stepping two parameters together equals stepping each alone."""
        rng = np.random.default_rng(4)
        grads = rng.normal(size=(5, 2, 3))
        joint = [Parameter(np.zeros(3)), Parameter(np.ones(3))]
        alone = [Parameter(np.zeros(3)), Parameter(np.ones(3))]
        opt = Adam(joint, lr=0.1)
        opts = [Adam([p], lr=0.1) for p in alone]
        for step in grads:
            for p, q, g in zip(joint, alone, step):
                p.grad, q.grad = g.copy(), g.copy()
            opt.step()
            for o in opts:
                o.step()
        for p, q in zip(joint, alone):
            assert np.array_equal(p.data, q.data)

    def test_zero_grad_clears_every_parameter(self):
        ps = [Parameter(np.zeros(2)), Parameter(np.zeros((2, 2)))]
        opt = Adam(ps, lr=0.1)
        quadratic_loss(ps[0]).backward()
        ps[1].grad = np.ones((2, 2))
        opt.zero_grad()
        assert all(p.grad is None or not p.grad.any() for p in ps)


class TestClipGradNorm:
    def test_clips_large_norm(self):
        p = Parameter(np.zeros(4))
        p.grad = np.full(4, 10.0)
        pre = clip_grad_norm([p], max_norm=1.0)
        assert pre == pytest.approx(20.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0)

    def test_leaves_small_norm(self):
        p = Parameter(np.zeros(4))
        p.grad = np.full(4, 0.1)
        clip_grad_norm([p], max_norm=10.0)
        assert np.allclose(p.grad, 0.1)

    def test_handles_missing_grads(self):
        p = Parameter(np.zeros(4))
        assert clip_grad_norm([p], max_norm=1.0) == 0.0
