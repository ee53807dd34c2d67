"""Integration: full teacher -> student distillation pipeline with accuracy
retention, mirroring the Table II AP protocol at test scale."""

import numpy as np
import pytest

from repro.datasets import wikipedia_like
from repro.models import ModelConfig, TGNN
from repro.training import (DistillationConfig, DistillationTrainer,
                            TrainConfig, Trainer)


@pytest.fixture(scope="module")
def setting():
    g = wikipedia_like(num_edges=1500, num_users=150, num_items=30)
    _, (tr, va, te) = g.split(0.70, 0.10)
    cfg = ModelConfig(memory_dim=16, time_dim=12, embed_dim=16, edge_dim=172,
                      num_neighbors=5)
    teacher = TGNN(cfg, rng=np.random.default_rng(0))
    trainer = Trainer(teacher, g, TrainConfig(epochs=4, batch_size=100,
                                              seed=0))
    trainer.train(tr)
    teacher_ap = trainer.evaluate(va, te).ap
    return g, cfg, (tr, va, te), teacher, trainer, teacher_ap


class TestTeacher:
    def test_teacher_learns(self, setting):
        *_, trainer, teacher_ap = setting
        assert teacher_ap > 0.60
        assert trainer.history[-1]["loss"] < trainer.history[0]["loss"]


class TestDistilledStudents:
    def test_student_retains_accuracy(self, setting):
        g, cfg, (tr, va, te), teacher, _, teacher_ap = setting
        scfg = cfg.with_(simplified_attention=True, lut_time_encoder=True,
                         lut_bins=32, name="+LUT")
        student = TGNN(scfg, rng=np.random.default_rng(1))
        student.calibrate(g)
        dt = DistillationTrainer(teacher, student, g,
                                 DistillationConfig(epochs=4, batch_size=100,
                                                    seed=0))
        dt.train(tr)
        ap = dt.evaluate(va, te).ap
        # Shape target: small AP loss (paper: <= 0.0033 absolute at full
        # scale; at toy scale we allow a looser but still tight band).
        assert ap > teacher_ap - 0.08
        assert ap > 0.55

    def test_pruned_student_still_accurate(self, setting):
        g, cfg, (tr, va, te), teacher, _, teacher_ap = setting
        scfg = cfg.with_(simplified_attention=True, lut_time_encoder=True,
                         lut_bins=32, pruning_budget=2, name="+NP(S)")
        student = TGNN(scfg, rng=np.random.default_rng(2))
        student.calibrate(g)
        dt = DistillationTrainer(teacher, student, g,
                                 DistillationConfig(epochs=4, batch_size=100,
                                                    seed=0))
        hist = dt.train(tr)
        ap = dt.evaluate(va, te).ap
        assert ap > teacher_ap - 0.10
        assert hist[-1]["top1_agreement"] >= hist[0]["top1_agreement"]

    def test_distillation_beats_self_supervision_only_on_agreement(self, setting):
        """The Eq. 17 term pulls the student's top-1 neighbour onto the
        teacher's.  The teacher is a +SAT model, so its ranking is one the
        Δt-only student can represent: against the qK teacher of
        ``setting`` top-1 agreement moves either way with ``kd_weight`` at
        this scale.  The student starts with logits spread over several
        units, so it trains at ``lr=1e-2`` to turn its ranking in a few
        epochs."""
        g, cfg, (tr, va, te), *_ = setting
        scfg = cfg.with_(simplified_attention=True, name="+SAT")
        teacher = TGNN(scfg, rng=np.random.default_rng(0))
        Trainer(teacher, g, TrainConfig(epochs=4, batch_size=100,
                                        seed=0)).train(tr)

        def agreement_after(kd_weight):
            student = TGNN(scfg, rng=np.random.default_rng(3))
            dt = DistillationTrainer(
                teacher, student, g,
                DistillationConfig(epochs=4, batch_size=100, seed=3,
                                   lr=1e-2, kd_weight=kd_weight))
            return dt.train(tr)[-1]["top1_agreement"]

        assert agreement_after(4.0) > agreement_after(0.0) + 0.1
