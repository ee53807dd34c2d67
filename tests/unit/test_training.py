"""Unit tests for the self-supervised trainer and knowledge distillation."""

import numpy as np
import pytest

from repro.datasets import wikipedia_like
from repro.models import ModelConfig, TGNN
from repro.training import (DistillationConfig, DistillationTrainer,
                            TrainConfig, Trainer, attention_agreement)

CFG = ModelConfig(memory_dim=10, time_dim=8, embed_dim=10, edge_dim=172,
                  num_neighbors=4)


def stream(n=400):
    return wikipedia_like(num_edges=n, num_users=60, num_items=15)


class TestTrainer:
    def test_loss_decreases(self):
        g = stream()
        model = TGNN(CFG, rng=np.random.default_rng(0))
        tr = Trainer(model, g, TrainConfig(epochs=3, batch_size=50, seed=0))
        hist = tr.train(train_end=280)
        assert len(hist) == 3
        assert hist[-1]["loss"] < hist[0]["loss"]

    def test_the_deployed_variant_trains(self):
        """The served model (+SAT +LUT +NP) trains and beats chance."""
        g = stream()
        cfg = CFG.with_(simplified_attention=True, lut_time_encoder=True,
                        lut_bins=8, pruning_budget=2)
        model = TGNN(cfg, rng=np.random.default_rng(0))
        model.calibrate(g)
        tr = Trainer(model, g, TrainConfig(epochs=2, batch_size=50, seed=0))
        hist = tr.train(train_end=280)
        assert hist[-1]["loss"] < hist[0]["loss"]
        assert tr.evaluate(280, 400).ap > 0.5

    def test_evaluate_beats_chance_after_training(self):
        g = stream(600)
        model = TGNN(CFG, rng=np.random.default_rng(0))
        tr = Trainer(model, g, TrainConfig(epochs=3, batch_size=50, seed=0))
        tr.train(train_end=420)
        res = tr.evaluate(start=420, end=600)
        assert res.ap > 0.55       # random scoring gives ~0.5
        assert res.n_edges == 180

    def test_evaluate_deterministic(self):
        g = stream()
        model = TGNN(CFG, rng=np.random.default_rng(0))
        tr = Trainer(model, g, TrainConfig(epochs=1, batch_size=50, seed=0))
        tr.train(train_end=280)
        a = tr.evaluate(280, 400)
        b = tr.evaluate(280, 400)
        assert a.ap == b.ap and a.auc == b.auc

    def test_n_edges_counts_the_edges_scored(self):
        """``end`` past the stream is clipped: a 400-edge stream scores
        120 edges from 280 on (was reported as ``end - start``)."""
        g = stream()
        tr = Trainer(TGNN(CFG, rng=np.random.default_rng(0)), g,
                     TrainConfig(epochs=1, batch_size=50, seed=0))
        assert tr.evaluate(280, 10**6).n_edges == 120

    @pytest.mark.parametrize("cfg_cls", [TrainConfig, DistillationConfig])
    @pytest.mark.parametrize("field", ["epochs", "batch_size"])
    def test_config_needs_an_epoch_and_a_batch(self, cfg_cls, field):
        """Zero epochs left an empty history (``repro train --epochs 0``
        died on ``hist[-1]``); a zero batch failed deep in batching."""
        for bad in (0, -1):
            with pytest.raises(ValueError, match=field):
                cfg_cls(**{field: bad})
        assert getattr(cfg_cls(**{field: 1}), field) == 1

    def test_epoch_resets_state(self):
        g = stream()
        model = TGNN(CFG, rng=np.random.default_rng(0))
        tr = Trainer(model, g, TrainConfig(epochs=2, batch_size=50, seed=0))
        tr.train(train_end=100)  # two epochs must both run from clean state
        assert len(tr.history) == 2


class TestDistillation:
    def _pair(self, g):
        teacher = TGNN(CFG, rng=np.random.default_rng(0))
        student_cfg = CFG.with_(simplified_attention=True, name="+SAT")
        student = TGNN(student_cfg, rng=np.random.default_rng(1))
        return teacher, student

    def test_rejects_mismatched_students(self):
        g = stream(100)
        teacher, _ = self._pair(g)
        bad = TGNN(CFG, rng=np.random.default_rng(2))  # not simplified
        with pytest.raises(ValueError):
            DistillationTrainer(teacher, bad, g)
        other_k = TGNN(CFG.with_(num_neighbors=6, simplified_attention=True),
                       rng=np.random.default_rng(3))
        with pytest.raises(ValueError):
            DistillationTrainer(teacher, other_k, g)

    def test_agreement_improves(self):
        g = stream(500)
        teacher, student = self._pair(g)
        # Give the teacher some training so its logits are meaningful.
        Trainer(teacher, g, TrainConfig(epochs=2, batch_size=50,
                                        seed=0)).train(350)
        dt = DistillationTrainer(teacher, student, g,
                                 DistillationConfig(epochs=4, batch_size=50,
                                                    kd_weight=4.0, seed=0))
        hist = dt.train(train_end=350)
        assert hist[-1]["top1_agreement"] > hist[0]["top1_agreement"]
        assert hist[-1]["kd_loss"] < hist[0]["kd_loss"]

    def test_teacher_parameters_frozen(self):
        g = stream(200)
        teacher, student = self._pair(g)
        before = {n: p.data.copy() for n, p in teacher.named_parameters()}
        dt = DistillationTrainer(teacher, student, g,
                                 DistillationConfig(epochs=1, batch_size=50,
                                                    seed=0))
        dt.train(train_end=150)
        for n, p in teacher.named_parameters():
            assert np.array_equal(before[n], p.data), n

    def test_evaluate_scores_the_student(self):
        g = stream(300)
        teacher, student = self._pair(g)
        dt = DistillationTrainer(teacher, student, g,
                                 DistillationConfig(epochs=1, batch_size=50,
                                                    seed=0))
        dt.train(train_end=200)
        assert dt.model is student
        res = dt.evaluate(200, 300)
        assert 0.0 <= res.ap <= 1.0
        assert res.n_edges == 100

    def test_zero_kd_weight_is_plain_self_supervision(self):
        """Distillation is the self-supervised loop plus the Eq. 17 term:
        with ``kd_weight=0`` the student trains bit for bit as a plain
        ``Trainer`` with the same seed would train it."""
        g = stream()
        teacher, student = self._pair(g)
        plain = TGNN(student.cfg, rng=np.random.default_rng(1))
        dt = DistillationTrainer(teacher, student, g,
                                 DistillationConfig(epochs=2, batch_size=50,
                                                    kd_weight=0.0, seed=3))
        tr = Trainer(plain, g, TrainConfig(epochs=2, batch_size=50, seed=3))
        distilled, trained = dt.train(280), tr.train(280)
        assert [h["link_loss"] for h in distilled] \
            == [h["loss"] for h in trained]
        assert all(h["kd_loss"] > 0 for h in distilled)
        a, b = dt.evaluate(280, 400), tr.evaluate(280, 400)
        assert (a.ap, a.auc, a.n_edges) == (b.ap, b.auc, b.n_edges)


class TestAttentionAgreement:
    def test_perfect_agreement(self):
        logits = np.array([[3.0, 1.0, 2.0]])
        mask = np.ones((1, 3), dtype=bool)
        assert attention_agreement(logits, logits, mask) == 1.0

    def test_disagreement(self):
        a = np.array([[3.0, 1.0]])
        b = np.array([[1.0, 3.0]])
        mask = np.ones((1, 2), dtype=bool)
        assert attention_agreement(a, b, mask) == 0.0

    def test_short_rows_skipped(self):
        a = np.array([[3.0, 1.0], [9.0, 0.0]])
        b = np.array([[1.0, 3.0], [0.0, 9.0]])
        mask = np.array([[True, False], [True, True]])
        assert attention_agreement(a, b, mask) == 0.0  # only row 2 counted

    def test_all_rows_short(self):
        mask = np.array([[True, False]])
        assert attention_agreement(np.ones((1, 2)), np.ones((1, 2)), mask) == 1.0
