"""Unit tests for model components: config, messages, GRU updater,
attention mechanisms, pruning."""

import numpy as np
import pytest

from repro.autograd import Tensor, no_grad
from repro.autograd.functional import masked_softmax
from repro.models import (DT_SCALE, ModelConfig, NP_BUDGETS,
                          SimplifiedTemporalAttention,
                          VanillaTemporalAttention, top_k_mask,
                          variant_ladder)
from repro.models.message import raw_messages
from repro.models.pruning import prune
from repro.models.memory_updater import GRUMemoryUpdater
from repro.models.time_encoding import CosineTimeEncoder


class TestModelConfig:
    def test_defaults_are_paper_dims(self):
        cfg = ModelConfig()
        assert (cfg.memory_dim, cfg.time_dim, cfg.embed_dim) == (100, 100, 100)
        assert cfg.edge_dim == 172 and cfg.num_neighbors == 10

    def test_message_dims(self):
        cfg = ModelConfig(memory_dim=10, edge_dim=7, time_dim=5)
        assert cfg.raw_message_dim == 27
        assert cfg.message_dim == 32

    def test_pruning_requires_simplified(self):
        with pytest.raises(ValueError, match="simplified"):
            ModelConfig(pruning_budget=4)

    def test_pruning_budget_bounds(self):
        with pytest.raises(ValueError):
            ModelConfig(simplified_attention=True, pruning_budget=11)
        with pytest.raises(ValueError):
            ModelConfig(simplified_attention=True, pruning_budget=0)

    def test_effective_neighbors(self):
        base = ModelConfig(simplified_attention=True)
        assert base.effective_neighbors == 10
        assert base.with_(pruning_budget=4).effective_neighbors == 4

    def test_ladder_structure(self):
        ladder = variant_ladder(ModelConfig())
        assert [c.name for c in ladder] == [
            "baseline", "+SAT", "+LUT", "+NP(L)", "+NP(M)", "+NP(S)"]
        assert [c.pruning_budget for c in ladder[3:]] == [6, 4, 2]
        assert not ladder[0].simplified_attention
        assert all(c.lut_time_encoder for c in ladder[2:])
        assert NP_BUDGETS == {"L": 6, "M": 4, "S": 2}

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            ModelConfig(memory_dim=0)
        with pytest.raises(ValueError):
            ModelConfig(edge_dim=-1)


class TestMessages:
    def test_directed_pair(self):
        ms = np.array([[1.0, 1.0]])
        md = np.array([[2.0, 2.0]])
        ef = np.array([[9.0]])
        a, b = raw_messages(ms, md, ef), raw_messages(md, ms, ef)
        assert np.allclose(a, [[1, 1, 2, 2, 9]])
        assert np.allclose(b, [[2, 2, 1, 1, 9]])

    def test_zero_dim_edge_features(self):
        a = raw_messages(np.ones((3, 2)), np.zeros((3, 2)), np.zeros((3, 0)))
        assert a.shape == (3, 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            raw_messages(np.ones((2, 2)), np.ones((3, 2)), np.zeros((2, 0)))
        with pytest.raises(ValueError):
            raw_messages(np.ones((2, 2)), np.ones((2, 2)), np.zeros((3, 1)))


class TestGRUMemoryUpdater:
    def _updater(self):
        cfg = ModelConfig(memory_dim=6, time_dim=4, embed_dim=6, edge_dim=3,
                          num_neighbors=2)
        enc = CosineTimeEncoder(4, rng=np.random.default_rng(0))
        return cfg, GRUMemoryUpdater(cfg, enc, rng=np.random.default_rng(1))

    def test_forward_is_the_cell_on_message_and_time_encoding(self):
        cfg, upd = self._updater()
        rng = np.random.default_rng(2)
        raw = rng.normal(size=(5, cfg.raw_message_dim))
        dt = rng.uniform(0, 100, 5)
        mem = rng.normal(size=(5, cfg.memory_dim))
        with no_grad():
            a = upd(raw, dt, mem).data
            m = Tensor.concat([Tensor(raw), upd.time_encoder(dt)], axis=-1)
            b = upd.gru(m, Tensor(mem)).data
        assert np.array_equal(a, b)

    def test_output_bounded_by_gru_dynamics(self):
        cfg, upd = self._updater()
        out = upd(np.zeros((3, cfg.raw_message_dim)), np.zeros(3),
                  np.zeros((3, cfg.memory_dim))).data
        assert np.all(np.abs(out) <= 1.0)  # convex combo of tanh and 0


def _attn_inputs(cfg, n=4, seed=0):
    rng = np.random.default_rng(seed)
    k = cfg.num_neighbors
    q = Tensor(rng.normal(size=(n, cfg.memory_dim)))
    nbr = Tensor(rng.normal(size=(n, k, cfg.memory_dim)))
    ef = rng.normal(size=(n, k, cfg.edge_dim))
    te = Tensor(rng.normal(size=(n, k, cfg.time_dim)))
    tz = Tensor(rng.normal(size=(n, cfg.time_dim)))
    mask = np.ones((n, k), dtype=bool)
    mask[0, -1] = False
    dt = rng.uniform(0, 5, size=(n, k))
    return q, nbr, ef, te, tz, mask, dt


class TestVanillaAttention:
    def test_shapes_and_mask(self):
        cfg = ModelConfig(memory_dim=6, time_dim=4, embed_dim=5, edge_dim=3,
                          num_neighbors=4)
        attn = VanillaTemporalAttention(cfg, rng=np.random.default_rng(1))
        q, nbr, ef, te, tz, mask, dt = _attn_inputs(cfg)
        out = attn(q, nbr, ef, te, tz, mask)
        assert out.hidden.shape == (4, 5)
        assert out.logits.shape == (4, 4)
        assert np.array_equal(out.selected, mask)

    def test_isolated_node_zero_hidden(self):
        cfg = ModelConfig(memory_dim=6, time_dim=4, embed_dim=5, edge_dim=3,
                          num_neighbors=4)
        attn = VanillaTemporalAttention(cfg, rng=np.random.default_rng(1))
        q, nbr, ef, te, tz, mask, dt = _attn_inputs(cfg)
        mask[:] = False
        with no_grad():
            out = attn(q, nbr, ef, te, tz, mask)
        assert np.allclose(out.hidden.data, 0.0)


class TestSimplifiedAttention:
    def _cfg(self, budget=None):
        return ModelConfig(memory_dim=6, time_dim=4, embed_dim=5, edge_dim=3,
                           num_neighbors=4, simplified_attention=True,
                           pruning_budget=budget)

    def test_logits_are_eq16_of_dt(self):
        cfg = self._cfg()
        attn = SimplifiedTemporalAttention(cfg, rng=np.random.default_rng(2))
        attn.attn_bias.data[:] = np.arange(4.0)
        dt = _attn_inputs(cfg)[-1]
        ref = dt @ attn.w_t.weight.data.T + attn.w_t.bias.data + np.arange(4.0)
        assert np.array_equal(attn.logits_from_dt(dt).data, ref)

    def test_aggregate_then_transform_is_per_neighbor_values(self):
        """FAM then FTM over a pruned selection against Eq. (16) written per
        neighbor: ``sum_j alpha_j (W_v [f_j || e_j || Phi_j] + b_v)``."""
        cfg = self._cfg(budget=2)
        attn = SimplifiedTemporalAttention(cfg, rng=np.random.default_rng(2))
        attn.w_v.bias.data[:] = 0.5
        q, nbr, ef, te, tz, mask, dt = _attn_inputs(cfg)
        logits = attn.logits_from_dt(dt)
        _, idx, selm = prune(logits.data, mask, 2)
        rows = np.arange(4)[:, None]
        with no_grad():
            alpha = masked_softmax(logits[rows, idx], selm)
            h = attn.transform(alpha, *(
                attn.aggregate(alpha, Tensor(x[rows, idx]))
                for x in (nbr.data, ef, te.data)))
            values = attn.w_v(Tensor.concat([nbr, Tensor(ef), te], axis=-1))
        keep = top_k_mask(logits.data, mask, 2)
        ref = (masked_softmax(logits, keep).data[:, :, None]
               * values.data).sum(axis=1)
        assert np.allclose(h.data, ref, atol=1e-12)


class TestPruning:
    def test_top_k_selects_highest(self):
        logits = np.array([[1.0, 5.0, 3.0, 2.0]])
        mask = np.ones((1, 4), dtype=bool)
        keep = top_k_mask(logits, mask, 2)
        assert np.array_equal(keep, [[False, True, True, False]])

    def test_respects_validity(self):
        logits = np.array([[9.0, 5.0, 3.0]])
        mask = np.array([[False, True, True]])
        keep = top_k_mask(logits, mask, 2)
        assert np.array_equal(keep, [[False, True, True]])

    def test_budget_ge_k_identity(self):
        logits = np.zeros((2, 3))
        mask = np.array([[True, False, True], [True, True, True]])
        assert np.array_equal(top_k_mask(logits, mask, 5), mask)

    def test_row_with_fewer_valid_than_budget(self):
        logits = np.array([[1.0, 2.0, 3.0, 4.0]])
        mask = np.array([[True, False, False, False]])
        keep = top_k_mask(logits, mask, 3)
        assert keep.sum() == 1

    def test_deterministic_tiebreak_low_index(self):
        logits = np.zeros((1, 4))
        mask = np.ones((1, 4), dtype=bool)
        keep = top_k_mask(logits, mask, 2)
        assert np.array_equal(keep, [[True, True, False, False]])

    def test_prune_preserves_time_order(self):
        logits = np.array([[5.0, 1.0, 4.0, 3.0]])
        mask = np.ones((1, 4), dtype=bool)
        _, idx, selm = prune(logits, mask, 2)
        assert np.array_equal(idx[0], [0, 2])  # ascending slot order
        assert selm.all()

    def test_prune_pads_short_rows(self):
        logits = np.array([[1.0, 2.0, 3.0]])
        mask = np.array([[True, False, False]])
        _, idx, selm = prune(logits, mask, 2)
        assert selm[0, 0] and not selm[0, 1]

    def test_prune_compact_form_names_the_full_width_selection(self):
        """Both forms of one pass agree: the slots ``indices`` flags in
        ``sel_mask`` are exactly the ones ``selected`` keeps, ascending."""
        rng = np.random.default_rng(7)
        logits = rng.integers(-2, 3, size=(40, 6)).astype(float)  # ties
        mask = rng.random((40, 6)) < 0.6
        for budget in (1, 2, 4, 6, 9):
            selected, idx, selm = prune(logits, mask, budget)
            assert idx.shape == selm.shape == (40, min(budget, 6))
            for row in range(40):
                want = np.flatnonzero(selected[row])
                assert idx[row][selm[row]].tolist() == want.tolist()

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            top_k_mask(np.zeros((1, 3)), np.ones((1, 3), dtype=bool), 0)
        with pytest.raises(ValueError):
            top_k_mask(np.zeros((1, 3)), np.ones((2, 3), dtype=bool), 1)
