"""Unit tests for the full TGNN model (Algorithm 1 semantics)."""

import ast
from pathlib import Path

import numpy as np
import pytest

import repro.models
from repro.autograd import no_grad
from repro.datasets import wikipedia_like
from repro.graph import TemporalGraph, iter_fixed_size
from repro.models import ModelConfig, TGNN

SMALL = ModelConfig(memory_dim=8, time_dim=6, embed_dim=8, edge_dim=172,
                    num_neighbors=4)


def tiny_stream():
    return wikipedia_like(num_edges=160, num_users=30, num_items=8)


class TestProcessBatch:
    def test_embedding_shapes(self):
        g = tiny_stream()
        model = TGNN(SMALL, rng=np.random.default_rng(0))
        rt = model.new_runtime(g)
        with no_grad():
            res = model.process_batch(g.slice(0, 10), rt, g)
        assert res.embeddings.shape == (20, 8)
        assert res.src_embeddings.shape == (10, 8)
        assert res.dst_embeddings.shape == (10, 8)
        assert len(res.neg_embeddings) == 0

    def test_negative_queries_appended(self):
        g = tiny_stream()
        model = TGNN(SMALL, rng=np.random.default_rng(0))
        rt = model.new_runtime(g)
        neg = np.array([1, 2, 3])
        with no_grad():
            res = model.process_batch(g.slice(0, 10), rt, g, neg_dst=neg)
        assert res.embeddings.shape == (23, 8)
        assert res.neg_embeddings.shape == (3, 8)
        assert np.array_equal(res.nodes[-3:], neg)

    def test_negative_queries_do_not_touch_state(self):
        g = tiny_stream()
        m1 = TGNN(SMALL, rng=np.random.default_rng(0))
        m2 = TGNN(SMALL, rng=np.random.default_rng(0))
        m2.load_state_dict(m1.state_dict())
        rt1, rt2 = m1.new_runtime(g), m2.new_runtime(g)
        with no_grad():
            m1.process_batch(g.slice(0, 10), rt1, g)
            m2.process_batch(g.slice(0, 10), rt2, g,
                             neg_dst=np.array([5, 6, 7, 8]))
        assert np.allclose(rt1.state.memory, rt2.state.memory)
        assert np.allclose(rt1.state.mailbox, rt2.state.mailbox)

    def test_memory_evolves_only_for_touched_vertices(self):
        g = tiny_stream()
        model = TGNN(SMALL, rng=np.random.default_rng(0))
        rt = model.new_runtime(g)
        with no_grad():
            model.process_batch(g.slice(0, 10), rt, g)   # mail written
            model.process_batch(g.slice(10, 20), rt, g)  # mail consumed
        batch_nodes = set(g.slice(0, 20).nodes.tolist())
        touched = np.nonzero(np.any(rt.state.memory != 0.0, axis=1))[0]
        assert set(touched.tolist()) <= batch_nodes
        assert len(touched) > 0

    def test_first_batch_memory_unchanged(self):
        # No cached mail yet -> UPDT is a no-op on zero memory.
        g = tiny_stream()
        model = TGNN(SMALL, rng=np.random.default_rng(0))
        rt = model.new_runtime(g)
        with no_grad():
            model.process_batch(g.slice(0, 10), rt, g)
        assert np.allclose(rt.state.memory, 0.0)
        assert rt.state.has_mail(g.slice(0, 10).nodes).all()

    def test_embeddings_nonnegative_after_relu(self):
        g = tiny_stream()
        model = TGNN(SMALL, rng=np.random.default_rng(0))
        rt = model.new_runtime(g)
        with no_grad():
            res = model.process_batch(g.slice(0, 10), rt, g)
        assert np.all(res.embeddings.data >= 0.0)

    def test_pruning_restricts_selected(self):
        g = tiny_stream()
        model = TGNN(SMALL.with_(simplified_attention=True, pruning_budget=2),
                     rng=np.random.default_rng(0))
        rt = model.new_runtime(g)
        with no_grad():
            for lo in (0, 40, 80):
                attn = model.process_batch(g.slice(lo, lo + 40), rt,
                                           g).attention
        assert attn.mask.sum(axis=1).max() > 2
        assert np.all(attn.selected.sum(axis=1) <= 2)
        assert np.all(attn.selected <= attn.mask)
        assert attn.logits.shape == attn.mask.shape   # full width (Eq. 17)

    def test_gradients_reach_every_parameter(self):
        g = tiny_stream()
        model = TGNN(SMALL, rng=np.random.default_rng(0))
        rt = model.new_runtime(g)
        model.process_batch(g.slice(0, 20), rt, g)  # populate mail
        res = model.process_batch(g.slice(20, 40), rt, g)
        (res.embeddings ** 2).sum().backward()
        missing = [n for n, p in model.named_parameters() if p.grad is None]
        assert missing == [], missing


class TestInferenceEquivalence:
    @pytest.mark.parametrize("cfg", [
        SMALL,
        SMALL.with_(simplified_attention=True, name="sat"),
        SMALL.with_(simplified_attention=True, lut_time_encoder=True,
                    lut_bins=8, name="lut"),
        SMALL.with_(simplified_attention=True, lut_time_encoder=True,
                    lut_bins=8, pruning_budget=2, name="np"),
    ], ids=lambda c: c.name)
    def test_infer_matches_process(self, cfg):
        g = tiny_stream()
        model = TGNN(cfg, rng=np.random.default_rng(1))
        model.calibrate(g)
        rt_a = model.new_runtime(g)
        with no_grad():
            ref = [model.process_batch(b, rt_a, g).embeddings.data
                   for b in iter_fixed_size(g, 32)]
        model.prepare_inference()
        rt_b = model.new_runtime(g, np.float64)
        got = [model.infer_batch(b, rt_b, g).embeddings.data
               for b in iter_fixed_size(g, 32)]
        for a, b in zip(ref, got):
            assert np.allclose(a, b, atol=1e-9)
        assert np.allclose(rt_a.state.memory, rt_b.state.memory, atol=1e-9)

    def test_timings_collected(self):
        g = tiny_stream()
        model = TGNN(SMALL, rng=np.random.default_rng(0))
        rt = model.new_runtime(g)
        timings = {}
        for b in iter_fixed_size(g, 32):
            model.infer_batch(b, rt, g, timings=timings)
        assert set(timings) == {"sample", "memory", "gnn", "update"}
        assert all(v > 0 for v in timings.values())


class TestRuntime:
    def test_snapshot_restore_roundtrip(self):
        g = tiny_stream()
        model = TGNN(SMALL, rng=np.random.default_rng(0))
        rt = model.new_runtime(g)
        with no_grad():
            model.process_batch(g.slice(0, 40), rt, g)
        snap = rt.snapshot()
        with no_grad():
            model.process_batch(g.slice(40, 80), rt, g)
        rt.restore(snap)
        rt2 = model.new_runtime(g)
        with no_grad():
            model.process_batch(g.slice(0, 40), rt2, g)
        assert np.allclose(rt.state.memory, rt2.state.memory)
        assert np.array_equal(rt.sampler.table._times, rt2.sampler.table._times)

    def test_reset(self):
        g = tiny_stream()
        model = TGNN(SMALL, rng=np.random.default_rng(0))
        rt = model.new_runtime(g)
        with no_grad():
            model.process_batch(g.slice(0, 40), rt, g)
        rt.reset()
        assert np.allclose(rt.state.memory, 0.0)
        assert not rt.sampler.table.gather(np.array([0])).mask.any()

    def test_calibrate_noop_for_cosine(self):
        g = tiny_stream()
        model = TGNN(SMALL, rng=np.random.default_rng(0))
        model.calibrate(g)  # must not raise

    def test_gdelt_style_node_features(self):
        from repro.datasets import gdelt_like
        g = gdelt_like(num_edges=120, num_users=20, num_items=20)
        cfg = ModelConfig(memory_dim=8, time_dim=6, embed_dim=8, edge_dim=0,
                          node_dim=200, num_neighbors=3)
        model = TGNN(cfg, rng=np.random.default_rng(0))
        assert model.node_proj is not None
        rt = model.new_runtime(g)
        with no_grad():
            ref = [model.process_batch(b, rt, g).embeddings.data
                   for b in iter_fixed_size(g, 24)]
        rt2 = model.new_runtime(g)
        got = [model.infer_batch(b, rt2, g).embeddings.data
               for b in iter_fixed_size(g, 24)]
        for a, b in zip(ref, got):
            assert np.allclose(a, b, atol=1e-9)


class TestReceptiveField:
    """The deployed model is one attention layer: a vertex's embedding
    reads its sampled neighbors' memory, and nothing two hops out."""

    CHAIN = TemporalGraph([0, 1, 0], [1, 2, 3], [1.0, 2.0, 3.0],
                          edge_feat=np.random.default_rng(0).normal(
                              size=(3, 172)))

    def embedding_of_0(self, perturb=None):
        """Vertex 0's embedding at its ``0-3`` edge (t=3), after ``0-1``
        (t=1) and ``1-2`` (t=2), with ``perturb``'s memory row shifted in
        between."""
        g = self.CHAIN
        model = TGNN(SMALL, rng=np.random.default_rng(5))
        rt = model.new_runtime(g)
        with no_grad():
            model.process_batch(g.slice(0, 2), rt, g)
            if perturb is not None:
                rt.state.memory[perturb] += 1.0
            return model.process_batch(g.slice(2, 3), rt, g) \
                .embeddings.data[0]

    def test_one_hop_neighbour_reaches_the_embedding(self):
        assert not np.allclose(self.embedding_of_0(),
                               self.embedding_of_0(perturb=1))

    def test_two_hop_vertex_does_not(self):
        assert np.array_equal(self.embedding_of_0(),
                              self.embedding_of_0(perturb=2))


def functions(path: Path):
    """``(qualified name, node)`` of every function and method in ``path``."""
    def walk(body, prefix):
        for node in body:
            if isinstance(node, ast.ClassDef):
                yield from walk(node.body, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield f"{prefix}{node.name}", node
                yield from walk(node.body, f"{prefix}{node.name}.")
    yield from walk(ast.parse(path.read_text()).body, "")


class TestOneModelBody:
    """Deployment is the training code under ``no_grad``: no numpy twin of
    any module, and the ``prepare_inference`` tables are ``infer_batch``'s
    alone."""

    MODELS = Path(repro.models.__file__).parent
    NP4 = SMALL.with_(simplified_attention=True, lut_time_encoder=True,
                      lut_bins=8, pruning_budget=2)

    @pytest.mark.parametrize("path", sorted(MODELS.glob("*.py")),
                             ids=lambda p: p.name)
    def test_no_function_is_a_numpy_twin(self, path):
        twins = [name for name, _ in functions(path)
                 if "numpy" in name.rsplit(".", 1)[-1]
                 or name.endswith("_np")]
        assert twins == []

    def test_only_infer_batch_reads_the_tables(self):
        touching = {name for path in self.MODELS.glob("*.py")
                    for name, fn in functions(path)
                    if any(isinstance(n, ast.Attribute)
                           and n.attr == "_premul_cache"
                           for n in ast.walk(fn))}
        # __init__ / drop_inference / prepare_inference only assign it.
        assert touching == {"TGNN.__init__", "TGNN.drop_inference",
                            "TGNN.prepare_inference", "TGNN.infer_batch"}
        infer = dict(functions(self.MODELS / "tgn.py"))["TGNN.infer_batch"]
        numpy_calls = [n.lineno for n in ast.walk(infer)
                       if isinstance(n, ast.Name) and n.id == "np"]
        assert numpy_calls == []

    def test_a_poisoned_cache_reaches_infer_batch_alone(self):
        from tests.property.sharded_oracle import ShardedRuntime
        g = tiny_stream()
        model = TGNN(self.NP4, rng=np.random.default_rng(0))
        model.calibrate(g)
        batches = list(iter_fixed_size(g, 40))

        def run(step, dtype=np.float64):
            rt = model.new_runtime(g, dtype)
            return [step(b, rt).embeddings.data for b in batches]

        def sharded():
            srt = ShardedRuntime(model, g, num_shards=2, policy="push")
            with no_grad():
                return [{s: r.embeddings.data
                         for s, r in srt.process_batch(b).items()}
                        for b in batches]

        def graded(b, rt):
            return model.process_batch(b, rt, g)

        def ungraded(b, rt):
            with no_grad():
                return model.process_batch(b, rt, g)

        clean = run(graded), run(ungraded), sharded()
        model.prepare_inference()
        # Both precisions: the float64 tables and every float32 copy.
        tables, weights = model._deployed
        for table in (*model._premul_cache.values(), *tables.values(),
                      *(copy for _, copy in weights)):
            table.fill(np.nan)
        poisoned = run(graded), run(ungraded), sharded()
        for want, got in zip(clean[:2], poisoned[:2]):
            assert all(np.isfinite(a).all() and np.array_equal(a, b)
                       for a, b in zip(want, got))
        for want, got in zip(clean[2], poisoned[2]):
            assert want.keys() == got.keys()
            assert all(np.isfinite(got[s]).all()
                       and np.array_equal(want[s], got[s]) for s in want)
        for dtype in (np.float64, np.float32):
            deployed = run(lambda b, rt: model.infer_batch(b, rt, g), dtype)
            assert np.isnan(deployed[-1]).any()
        # The float32 run handed every parameter its own data back.
        assert all(np.array_equal(a, b)
                   for a, b in zip(clean[1], run(ungraded)))

    def test_a_loaded_model_still_trains_its_time_weights(self, tmp_path):
        """``load_model`` returns a prepared model; fine-tuning it goes
        through ``process_batch``, which the tables never reach, so the
        updater's time-slice weights and the LUT entries move.  Training
        drops the tables and prepares the model again at the end, so
        ``infer_batch`` serves the trained weights, not stale tables."""
        from repro.models import load_model, save_model
        from repro.training import TrainConfig, Trainer
        g = tiny_stream()
        model = TGNN(self.NP4, rng=np.random.default_rng(0))
        model.calibrate(g)
        save_model(model, str(tmp_path / "m.npz"))
        loaded = load_model(str(tmp_path / "m.npz"))
        assert loaded._premul_cache is not None
        d_t = self.NP4.time_dim
        before = (loaded.memory_updater.gru.weight_ih.data[:, -d_t:].copy(),
                  loaded.time_encoder.table.data.copy())
        Trainer(loaded, g, TrainConfig(epochs=1, batch_size=40,
                                       seed=0)).train(train_end=120)
        assert not np.array_equal(
            before[0], loaded.memory_updater.gru.weight_ih.data[:, -d_t:])
        assert not np.array_equal(before[1], loaded.time_encoder.table.data)
        rt, rt_ref = (loaded.new_runtime(g, np.float64) for _ in range(2))
        for b in iter_fixed_size(g, 40):
            got = loaded.infer_batch(b, rt, g).embeddings.data
            with no_grad():
                want = loaded.process_batch(b, rt_ref, g).embeddings.data
            assert np.allclose(got, want, atol=1e-9)
        rt = loaded.new_runtime(g)
        assert rt.state.memory.dtype == rt.state.mailbox.dtype == np.float32
