"""Unit tests for the multi-layer TGNN extension."""

import numpy as np
import pytest

from repro.autograd import no_grad
from repro.datasets import wikipedia_like
from repro.graph import iter_fixed_size
from repro.models import ModelConfig, MultiLayerTGNN, TGNN

CFG = ModelConfig(memory_dim=10, time_dim=8, embed_dim=10, edge_dim=172,
                  num_neighbors=3)


def stream():
    return wikipedia_like(num_edges=200, num_users=40, num_items=10)


class TestConstruction:
    def test_layer_count_validation(self):
        with pytest.raises(ValueError):
            MultiLayerTGNN(CFG, num_layers=0)

    def test_requires_matching_dims(self):
        bad = CFG.with_(embed_dim=12)
        with pytest.raises(ValueError, match="embed_dim"):
            MultiLayerTGNN(bad, num_layers=2)

    def test_per_layer_parameters(self):
        m1 = MultiLayerTGNN(CFG, num_layers=1, rng=np.random.default_rng(0))
        m2 = MultiLayerTGNN(CFG, num_layers=2, rng=np.random.default_rng(0))
        assert m2.num_parameters() > m1.num_parameters()
        names = dict(m2.named_parameters())
        assert any(n.startswith("attn1.") for n in names)
        assert any(n.startswith("transform1.") for n in names)


class TestOneLayerIsTGNN:
    @pytest.mark.parametrize("cfg", [
        CFG, CFG.with_(simplified_attention=True, pruning_budget=2,
                       lut_time_encoder=True, lut_bins=8)],
        ids=["vanilla", "np"])
    def test_same_parameters_same_outputs(self, cfg):
        """Layer 1 *is* the parent's attention / out_transform: from one
        seed the two classes build the same state dict, no name mapping,
        and process a stream to the same bits."""
        g = stream()
        ref = TGNN(cfg, rng=np.random.default_rng(0))
        ml = MultiLayerTGNN(cfg, num_layers=1, rng=np.random.default_rng(0))
        assert isinstance(ml, TGNN)
        sd, sd_ml = ref.state_dict(), ml.state_dict()
        assert list(sd) == list(sd_ml)
        assert all(np.array_equal(sd[k], sd_ml[k]) for k in sd)
        ref.calibrate(g)
        ml.calibrate(g)
        rt_a, rt_b = ref.new_runtime(g), ml.new_runtime(g)
        with no_grad():
            for batch in iter_fixed_size(g, 40):
                a = ref.process_batch(batch, rt_a, g, neg_dst=batch.src)
                b = ml.process_batch(batch, rt_b, g, neg_dst=batch.src)
                assert np.array_equal(a.embeddings.data, b.embeddings.data)
                assert np.array_equal(a.attention.logits.data,
                                      b.attention.logits.data)
        assert rt_a.state.memory.tobytes() == rt_b.state.memory.tobytes()


class TestTwoLayer:
    def test_shapes_and_state_evolution(self):
        g = stream()
        ml = MultiLayerTGNN(CFG, num_layers=2, rng=np.random.default_rng(0))
        rt = ml.new_runtime(g)
        with no_grad():
            res = ml.process_batch(g.slice(0, 30), rt, g)
        assert res.embeddings.shape == (60, CFG.embed_dim)
        assert rt.state.has_mail(g.slice(0, 30).nodes).all()

    def test_negative_queries(self):
        g = stream()
        ml = MultiLayerTGNN(CFG, num_layers=2, rng=np.random.default_rng(0))
        rt = ml.new_runtime(g)
        with no_grad():
            res = ml.process_batch(g.slice(0, 20), rt, g,
                                   neg_dst=np.array([1, 2]))
        assert res.neg_embeddings.shape == (2, CFG.embed_dim)

    def test_second_layer_widens_receptive_field(self):
        """A 2-hop-only relative must influence 2-layer but not 1-layer
        embeddings."""
        from repro.graph import TemporalGraph
        # Chain: 0-1 at t=1, 1-2 at t=2; query vertex 0 at t=3 (edge 0-3).
        g = TemporalGraph([0, 1, 0], [1, 2, 3], [1.0, 2.0, 3.0],
                          edge_feat=np.random.default_rng(0).normal(
                              size=(3, 172)))
        cfg = CFG
        rng_seed = 5

        def final_emb(layers, perturb):
            ml = MultiLayerTGNN(cfg, num_layers=layers,
                                rng=np.random.default_rng(rng_seed))
            rt = ml.new_runtime(g)
            with no_grad():
                ml.process_batch(g.slice(0, 2), rt, g)
                if perturb:   # change vertex 2's memory (2 hops from 0)
                    rt.state.memory[2] += 1.0
                res = ml.process_batch(g.slice(2, 3), rt, g)
            return res.embeddings.data[0]    # vertex 0's embedding

        one_a, one_b = final_emb(1, False), final_emb(1, True)
        two_a, two_b = final_emb(2, False), final_emb(2, True)
        assert np.allclose(one_a, one_b)        # 1 layer: 2-hop invisible
        assert not np.allclose(two_a, two_b)    # 2 layers: 2-hop visible

    def test_gradients_reach_both_layers(self):
        g = stream()
        ml = MultiLayerTGNN(CFG, num_layers=2, rng=np.random.default_rng(0))
        rt = ml.new_runtime(g)
        ml.process_batch(g.slice(0, 30), rt, g)
        res = ml.process_batch(g.slice(30, 60), rt, g)
        (res.embeddings ** 2).sum().backward()
        for name in ("attention.w_v.weight", "attn1.w_v.weight",
                     "out_transform.weight", "transform1.weight",
                     "memory_updater.gru.weight_ih"):
            p = dict(ml.named_parameters())[name]
            assert p.grad is not None, name

    def test_engine_reports_the_kernel_stages(self):
        """``infer_batch`` is inherited, Table I stage clock included (the
        override it replaced dropped ``timings``)."""
        from repro.models import KERNEL_STAGES
        from repro.pipeline import SoftwareBackend, run_engine
        g = stream()
        cfg = CFG.with_(simplified_attention=True, lut_time_encoder=True,
                        lut_bins=8, pruning_budget=2)
        ml = MultiLayerTGNN(cfg, num_layers=2, rng=np.random.default_rng(0))
        ml.calibrate(g)
        rt = ml.new_runtime(g)
        with no_grad():
            ref = [ml.process_batch(b, rt, g).embeddings.data
                   for b in iter_fixed_size(g, 100)]
        backend = SoftwareBackend(ml, g)     # prepares: layer-1 LUT reads
        report = run_engine(backend, g, 100)
        assert set(report.stage_time_s) == set(KERNEL_STAGES)
        assert all(v > 0 for v in report.stage_time_s.values())
        assert np.allclose(backend.rt.state.memory, rt.state.memory,
                           atol=1e-12)
        rt = ml.new_runtime(g)
        for b, want in zip(iter_fixed_size(g, 100), ref):
            got = ml.infer_batch(b, rt, g).embeddings.data
            assert np.allclose(got, want, atol=1e-12)

    def test_trainable_end_to_end(self):
        g = wikipedia_like(num_edges=400, num_users=60, num_items=15)
        ml = MultiLayerTGNN(CFG, num_layers=2, rng=np.random.default_rng(0))
        from repro.training import TrainConfig, Trainer
        trainer = Trainer(ml, g, TrainConfig(epochs=2, batch_size=50,
                                             seed=0))
        hist = trainer.train(train_end=280)
        assert hist[-1]["loss"] < hist[0]["loss"]
        res = trainer.evaluate(280, 400)
        assert res.ap > 0.5
