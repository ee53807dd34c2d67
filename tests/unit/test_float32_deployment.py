"""The float32 deployment: a prepared model's runtime, tables and weights.

``prepare_inference`` makes a model a float32 deployment: ``new_runtime``
builds float32 memory, mailbox and edge features, and ``infer_batch`` on
such a runtime computes under ``no_grad(float32)`` with float32 copies of
the tables and weights.  These tests hold that path to three contracts:
nothing in it is computed from a float64 array of feature width (the guard
against a silent promotion, which would cost the speed and show nowhere
else), its embeddings stay within a stated bound of the float64 deployed
body over a whole stream, and its link-prediction AP/AUC stay within the
paper's accuracy budget of float64.  No timers.
"""

import numpy as np
import pytest

from repro.autograd import Tensor, no_grad
from repro.datasets import wikipedia_like
from repro.graph import iter_fixed_size
from repro.models import ModelConfig, TGNN, variant_ladder
from repro.models.tgn import DEPLOY_DTYPE
from repro.training import TrainConfig, Trainer
from repro.training.metrics import average_precision, roc_auc
from repro.profiling.paper_reference import HEADLINE

LADDER = variant_ladder(ModelConfig(memory_dim=10, time_dim=8,
                                     embed_dim=10, edge_dim=172,
                                     num_neighbors=10, lut_bins=16))
NP4 = LADDER[4]  # +NP(M): budget 4 of k = 10

# Max |float32 - float64| of any embedding over a 400-edge stream.  The
# cosine rungs (baseline, +SAT) form the phase Δt * omega in float32: Δt
# reaches ~1e6 s and omega ~1, so a time feature carries up to ~0.1 of
# rounding; measured maxima over stream seeds 0-2 were 0.021 (baseline)
# and 0.035 (+SAT).  The LUT rungs read their time features from a table:
# measured at most 2.4e-6, on embeddings of magnitude up to ~6.
BOUND = {"baseline": 0.1, "+SAT": 0.1}
LUT_BOUND = 1e-5


def stream(seed=0):
    return wikipedia_like(num_edges=400, num_users=60, num_items=15,
                          seed=seed)


def prepared(cfg, graph, seed=0):
    model = TGNN(cfg, rng=np.random.default_rng(seed))
    model.calibrate(graph)
    model.prepare_inference()
    return model


class TestRuntime:
    def test_a_prepared_model_builds_float32_rows(self):
        g = stream()
        model = TGNN(NP4, rng=np.random.default_rng(0))
        model.calibrate(g)
        assert model.new_runtime(g).state.memory.dtype == np.float64
        model.prepare_inference()
        rt = model.new_runtime(g)
        assert DEPLOY_DTYPE is np.float32
        assert rt.state.memory.dtype == rt.state.mailbox.dtype \
            == rt.edge_feat.dtype == np.float32
        # Timestamps stay float64: Δt and its LUT bin are taken from them.
        assert rt.state.mail_time.dtype == rt.state.last_update.dtype \
            == rt.neighbors._times.dtype == np.float64
        assert rt.edge_feat.tobytes() \
            == g.edge_feat.astype(np.float32).tobytes()
        rt64 = model.new_runtime(g, np.float64)
        assert rt64.edge_feat is g.edge_feat
        model.drop_inference()
        assert model.new_runtime(g).state.memory.dtype == np.float64

    def test_parameters_stay_float64_and_trainable(self):
        g = stream()
        model = prepared(NP4, g)
        rt = model.new_runtime(g)
        for b in iter_fixed_size(g, 64):
            model.infer_batch(b, rt, g)
        assert all(p.data.dtype == np.float64 and p.requires_grad
                   for p in model.parameters())


def casts_of(model, g, monkeypatch):
    """Run ``g`` through ``infer_batch`` on a float32 runtime; return the
    runtime, the batch results and, per batch, its query count and the
    shape of every non-float32 array a Tensor was built from."""
    casts: list = []
    init = Tensor.__init__

    def spy(self, data, requires_grad=False):
        if isinstance(data, np.ndarray) and data.dtype != np.float32:
            casts[-1][1].append(data.shape)
        init(self, data, requires_grad)

    rt = model.new_runtime(g)
    out = []
    with monkeypatch.context() as patch:
        patch.setattr(Tensor, "__init__", spy)
        for b in iter_fixed_size(g, 64):
            casts.append((2 * len(b), []))
            out.append(model.infer_batch(b, rt, g))
    return rt, out, casts


class TestDtypeGuard:
    def check(self, model, g, monkeypatch):
        rt, out, casts = casts_of(model, g, monkeypatch)
        assert rt.state.memory.dtype == rt.state.mailbox.dtype == np.float32
        assert all(r.embeddings.data.dtype == np.float32
                   and r.attention.hidden.data.dtype == np.float32
                   for r in out)
        # The only float64 arrays entering the float32 body are the Δt
        # block and the softmax's mask constants, (n, k) and (n, budget)
        # for the batch's n queries: no weight, table or feature row is
        # cast per batch.
        for n, shapes in casts:
            assert shapes and set(shapes) <= {(n, NP4.num_neighbors),
                                              (n, NP4.pruning_budget)}

    def test_the_float32_body_casts_no_feature_row(self, monkeypatch):
        g = stream()
        self.check(prepared(NP4, g), g, monkeypatch)

    def test_a_float64_table_fails_the_guard(self, monkeypatch):
        """Mutation check: a float64 ``attn_raw`` table computes the same
        float32 embeddings, cast per call; only the guard sees it."""
        g = stream()
        model = prepared(NP4, g)
        tables, _ = model._deployed
        tables["attn_raw"] = tables["attn_raw"].astype(np.float64)
        with pytest.raises(AssertionError):
            self.check(model, g, monkeypatch)


class TestErrorBound:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("cfg", LADDER, ids=lambda c: c.name)
    def test_float32_tracks_the_float64_deployment(self, cfg, seed):
        g = stream(seed)
        model = prepared(cfg, g, seed)
        rt32, rt64 = model.new_runtime(g), model.new_runtime(g, np.float64)
        worst = 0.0
        for b in iter_fixed_size(g, 64):
            a = model.infer_batch(b, rt32, g).embeddings.data
            c = model.infer_batch(b, rt64, g).embeddings.data
            assert a.dtype == np.float32 and c.dtype == np.float64
            worst = max(worst, float(np.abs(a - c).max()))
        assert worst <= BOUND.get(cfg.name, LUT_BOUND)
        assert np.array_equal(rt32.neighbors._nbrs, rt64.neighbors._nbrs)


def pair_scores(trainer, start, end, dtype, seed=12345):
    """``Trainer.evaluate``'s pairs and logits, at ``dtype``: the same
    replay of ``[0, start)``, the same negatives, the model body under
    ``no_grad(dtype)`` on a ``dtype`` runtime.  The kernel takes no
    negative queries, so this is the deployed arithmetic, not the kernel."""
    model, g = trainer.model, trainer.graph
    eval_rng = np.random.default_rng(seed)
    rt = model.new_runtime(g, dtype)
    labels, scores = [], []
    with no_grad(dtype):
        for b in iter_fixed_size(g, trainer.cfg.batch_size, end=start):
            model.process_batch(b, rt, g)
        for b in iter_fixed_size(g, trainer.cfg.batch_size, start=start,
                                 end=end):
            neg = eval_rng.integers(0, g.num_nodes, size=len(b))
            logits, y = trainer._pair_logits(
                model.process_batch(b, rt, g, neg_dst=neg))
            scores.append(logits.data)
            labels.append(y)
    return np.concatenate(labels), np.concatenate(scores)


@pytest.mark.parametrize("cfg", LADDER, ids=lambda c: c.name)
def test_float32_keeps_ap_and_auc(cfg):
    """Measured |delta| on this fixture (AP 0.63-0.72): at most 1.3e-4 in
    AP and in AUC (+SAT), 0 on +LUT to +NP(M); the budget is the paper's
    0.0033."""
    g = wikipedia_like(num_edges=1000, num_users=100, num_items=20)
    model = TGNN(cfg, rng=np.random.default_rng(0))
    model.calibrate(g)
    trainer = Trainer(model, g, TrainConfig(epochs=2, batch_size=100,
                                            seed=0))
    trainer.train(700)
    y64, s64 = pair_scores(trainer, 700, 1000, np.float64)
    want = trainer.evaluate(700, 1000)
    assert (average_precision(y64, s64), roc_auc(y64, s64)) \
        == (want.ap, want.auc)
    y32, s32 = pair_scores(trainer, 700, 1000, np.float32)
    assert np.array_equal(y32, y64) and s32.dtype == np.float32
    assert abs(average_precision(y32, s32) - want.ap) \
        <= HEADLINE["max_ap_loss"]
    assert abs(roc_auc(y32, s32) - want.auc) <= HEADLINE["max_ap_loss"]
