"""Unit tests for the cosine and LUT time encoders."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.models import CosineTimeEncoder, LUTTimeEncoder


class TestCosineEncoder:
    def test_output_range_and_shape(self):
        enc = CosineTimeEncoder(8)
        out = enc(np.array([0.0, 10.0, 1e6])).data
        assert out.shape == (3, 8)
        assert np.all(np.abs(out) <= 1.0 + 1e-12)

    def test_batched_2d_input(self):
        enc = CosineTimeEncoder(4)
        out = enc(np.zeros((3, 5)))
        assert out.shape == (3, 5, 4)

    def test_forward_is_eq6(self):
        enc = CosineTimeEncoder(6)
        dt = np.random.default_rng(0).uniform(0, 1e5, size=(4, 3))
        assert np.array_equal(
            enc(dt).data, np.cos(dt[..., None] * enc.omega.data
                                 + enc.phase.data))

    def test_multi_scale_frequencies(self):
        enc = CosineTimeEncoder(10)
        # omega spans many decades so both tiny and huge dt are resolved.
        w = np.abs(enc.omega.data)
        assert w.max() / w.min() > 1e6

    def test_gradients_to_omega_phase(self):
        enc = CosineTimeEncoder(4)
        out = enc(np.array([1.0, 2.0]))
        (out ** 2).sum().backward()
        assert enc.omega.grad is not None
        assert enc.phase.grad is not None


class TestLUTEncoder:
    def _calibrated(self, bins=8):
        rng = np.random.default_rng(0)
        enc = LUTTimeEncoder(time_dim=6, n_bins=bins, rng=rng)
        deltas = rng.pareto(1.2, size=2000) * 3600.0
        enc.calibrate(deltas, reference=CosineTimeEncoder(6))
        return enc, deltas

    def test_uncalibrated_single_bin(self):
        enc = LUTTimeEncoder(4, n_bins=8)
        idx = enc.bin_index(np.array([0.0, 1.0, 1e9]))
        assert np.all(idx == 0)

    def test_calibration_spreads_bins(self):
        enc, deltas = self._calibrated()
        idx = enc.bin_index(deltas)
        assert len(np.unique(idx)) >= 6  # nearly all bins used
        counts = np.bincount(idx, minlength=8)
        assert counts.max() < 3 * len(deltas) / 8

    def test_bin_index_monotone(self):
        enc, _ = self._calibrated()
        dts = np.sort(np.random.default_rng(1).uniform(0, 1e6, 100))
        idx = enc.bin_index(dts)
        assert np.all(np.diff(idx) >= 0)

    def test_out_of_range_clipped(self):
        enc, _ = self._calibrated()
        idx = enc.bin_index(np.array([-5.0, 1e30]))
        assert idx[0] == 0 and idx[1] == enc.n_bins - 1

    def test_warm_start_close_to_reference(self):
        rng = np.random.default_rng(0)
        ref = CosineTimeEncoder(6)
        enc = LUTTimeEncoder(6, n_bins=32, rng=rng)
        deltas = rng.uniform(0, 1e4, size=4000)
        enc.calibrate(deltas, reference=ref)
        approx = enc(deltas).data
        exact = ref(deltas).data
        # Piecewise-constant approximation of a smooth encoder: bounded error.
        assert np.mean(np.abs(approx - exact)) < 0.5

    def test_forward_gradient_scatters_to_entries(self):
        enc, _ = self._calibrated()
        dt = np.array([0.0, 0.0, 1e9])
        out = enc(dt)
        out.sum().backward()
        g = enc.table.grad
        assert g is not None
        assert np.allclose(g[enc.bin_index(np.array([0.0]))[0]], 2.0)
        assert np.allclose(g.sum(), 18.0)  # 3 lookups x 6 dims x grad 1

    def test_premultiply_equivalence(self):
        """The §III-C reversal: lookup of W @ table == W @ lookup."""
        enc, deltas = self._calibrated()
        rng = np.random.default_rng(2)
        w = rng.normal(size=(5, 6))
        table = enc.premultiply(w)
        dt = deltas[:50]
        direct = enc(dt).data @ w.T
        via_lut = table[enc.bin_index(dt)]
        assert np.allclose(direct, via_lut, atol=1e-12)

    def test_premultiply_validates_shape(self):
        enc, _ = self._calibrated()
        with pytest.raises(ValueError):
            enc.premultiply(np.zeros((5, 7)))

    def test_storage_words(self):
        enc, _ = self._calibrated()
        assert enc.storage_words() == 8 * 6
        assert enc.storage_words([10, 20]) == 8 * 30

    def test_invalid_bins(self):
        with pytest.raises(ValueError):
            LUTTimeEncoder(4, n_bins=0)
