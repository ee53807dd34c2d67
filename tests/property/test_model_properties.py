"""Property-based invariants of model components: LUT binning, pruning,
attention masking, op-counter monotonicity, performance-model monotonicity."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.datasets import equal_frequency_edges
from repro.hw import ZCU104_DESIGN
from repro.models import ModelConfig, top_k_mask
from repro.models.time_encoding import LUTTimeEncoder
from repro.perf import PerformanceModel
from repro.profiling import count_ops
from repro.training import average_precision, roc_auc

settings.register_profile("repro", deadline=None, max_examples=40)
settings.load_profile("repro")


class TestLUTBinning:
    @given(st.lists(st.floats(0.0, 1e6), min_size=8, max_size=400),
           st.integers(2, 32))
    def test_partition_covers_all_inputs(self, deltas, bins):
        deltas = np.asarray(deltas)
        edges = equal_frequency_edges(deltas, n_bins=bins)
        assert len(edges) == bins + 1
        assert np.all(np.diff(edges) >= 0)
        idx = np.searchsorted(edges, deltas, side="right") - 1
        assert np.all((idx >= 0) & (idx <= bins - 1) | (idx == bins - 1))

    @given(st.lists(st.floats(0.0, 1e5), min_size=50, max_size=300))
    def test_bin_index_monotone_in_dt(self, deltas):
        deltas = np.asarray(deltas)
        enc = LUTTimeEncoder(time_dim=3, n_bins=8)
        enc.calibrate(deltas)
        probe = np.sort(np.concatenate([deltas, [0.0, 1e9]]))
        idx = enc.bin_index(probe)
        assert np.all(np.diff(idx) >= 0)

    @given(st.lists(st.floats(0.1, 1e5), min_size=100, max_size=300),
           st.integers(2, 8))
    def test_premultiply_commutes_with_lookup(self, deltas, out_dim):
        deltas = np.asarray(deltas)
        enc = LUTTimeEncoder(time_dim=4, n_bins=8,
                             rng=np.random.default_rng(0))
        enc.calibrate(deltas)
        w = np.random.default_rng(1).normal(size=(out_dim, 4))
        lut = enc.premultiply(w)
        probe = deltas[:20]
        assert np.allclose(lut[enc.bin_index(probe)],
                           enc(probe).data @ w.T, atol=1e-10)


class TestPruningProperties:
    @given(hnp.arrays(np.float64, (5, 8),
                      elements=hnp.from_dtype(np.dtype(np.float64),
                                              min_value=-10, max_value=10,
                                              allow_nan=False,
                                              allow_infinity=False)),
           hnp.arrays(np.bool_, (5, 8), elements=st.booleans()),
           st.integers(1, 8))
    def test_selection_properties(self, logits, mask, budget):
        keep = top_k_mask(logits, mask, budget)
        # Subset of valid; at most budget per row; exactly min(budget, valid).
        assert np.all(keep <= mask)
        assert np.all(keep.sum(axis=1) == np.minimum(budget, mask.sum(axis=1)))
        # Every kept logit >= every dropped valid logit (per row).
        for r in range(5):
            kept = logits[r][keep[r]]
            dropped = logits[r][mask[r] & ~keep[r]]
            if len(kept) and len(dropped):
                assert kept.min() >= dropped.max() - 1e-9


class TestOpCounterProperties:
    @given(st.integers(1, 10), st.booleans())
    def test_pruning_monotone(self, budget, lut):
        cfg = ModelConfig(simplified_attention=True, lut_time_encoder=lut)
        base = count_ops(cfg)
        pruned = count_ops(cfg.with_(pruning_budget=budget))
        assert pruned.total_macs <= base.total_macs + 1e-9
        assert pruned.total_mems <= base.total_mems + 1e-9

    @given(st.integers(8, 256), st.integers(8, 256))
    def test_counts_scale_with_dims(self, mem, emb):
        small = count_ops(ModelConfig(memory_dim=mem, embed_dim=emb))
        bigger = count_ops(ModelConfig(memory_dim=mem + 8, embed_dim=emb + 8))
        assert bigger.total_macs > small.total_macs

    def test_every_optimization_strictly_helps(self):
        base = count_ops(ModelConfig()).total_macs
        sat = count_ops(ModelConfig(simplified_attention=True)).total_macs
        lut = count_ops(ModelConfig(simplified_attention=True,
                                    lut_time_encoder=True)).total_macs
        np2 = count_ops(ModelConfig(simplified_attention=True,
                                    lut_time_encoder=True,
                                    pruning_budget=2)).total_macs
        assert base > sat > lut > np2


class TestPerfModelProperties:
    @given(st.integers(1, 64), st.integers(1, 8))
    def test_latency_positive_and_monotone_in_batches(self, nb_scale, n_pb):
        hw = ZCU104_DESIGN.with_(nb=4 * nb_scale)
        cfg = ModelConfig(simplified_attention=True)
        pm = PerformanceModel(cfg, hw)
        n1 = hw.nb * n_pb
        l1 = pm.predict(n1).latency_s
        l2 = pm.predict(n1 + hw.nb).latency_s
        assert 0 < l1 < l2

    @given(st.sampled_from([2, 4, 8, 16]))
    def test_more_parallelism_not_slower(self, sg):
        cfg = ModelConfig(simplified_attention=True)
        slow = PerformanceModel(cfg, ZCU104_DESIGN.with_(sg=sg))
        fast = PerformanceModel(cfg, ZCU104_DESIGN.with_(sg=2 * sg))
        assert fast.predict(1000).latency_s <= slow.predict(1000).latency_s


class TestMetricsProperties:
    @given(st.lists(st.tuples(st.booleans(), st.floats(-5, 5)),
                    min_size=2, max_size=60))
    def test_ap_and_auc_in_unit_interval(self, pairs):
        labels = np.array([p[0] for p in pairs], dtype=float)
        scores = np.array([p[1] for p in pairs])
        assume(labels.sum() > 0)
        ap = average_precision(labels, scores)
        auc = roc_auc(labels, scores)
        assert 0.0 <= ap <= 1.0 + 1e-12
        assert 0.0 <= auc <= 1.0 + 1e-12

    @given(st.lists(
        # Coarse score grid: keeps distinct scores distinct under the affine
        # transform (subnormals would collapse into ties and change AP).
        st.tuples(st.booleans(), st.integers(-50, 50).map(lambda i: i / 10.0)),
        min_size=2, max_size=40))
    def test_monotone_transform_invariance(self, pairs):
        labels = np.array([p[0] for p in pairs], dtype=float)
        scores = np.array([p[1] for p in pairs])
        assume(labels.sum() > 0)
        a1 = average_precision(labels, scores)
        a2 = average_precision(labels, 3.0 * scores + 7.0)
        assert abs(a1 - a2) < 1e-12
        u1 = roc_auc(labels, scores)
        u2 = roc_auc(labels, 3.0 * scores + 7.0)
        assert abs(u1 - u2) < 1e-12
