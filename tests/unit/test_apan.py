"""Unit tests for the APAN mailbox-attention baseline."""

import numpy as np
import pytest

from repro.autograd import no_grad
from repro.datasets import gdelt_like, wikipedia_like
from repro.graph import iter_fixed_size
from repro.models import APAN, ModelConfig

CFG = ModelConfig(memory_dim=8, time_dim=6, embed_dim=8, edge_dim=172,
                  num_neighbors=4)


def stream():
    return wikipedia_like(num_edges=120, num_users=25, num_items=8)


class TestAPAN:
    def test_embedding_shapes(self):
        g = stream()
        model = APAN(CFG, mailbox_size=5, rng=np.random.default_rng(0))
        rt = model.new_runtime(g)
        with no_grad():
            emb = model.process_batch(g.slice(0, 10), rt, g)
        assert emb.shape == (20, 8)

    def test_messages_delivered_to_counterpart(self):
        g = stream()
        model = APAN(CFG, mailbox_size=5, rng=np.random.default_rng(0))
        rt = model.new_runtime(g)
        with no_grad():
            model.process_batch(g.slice(0, 10), rt, g)
        b = g.slice(0, 10)
        # Every endpoint received at least one message from its counterpart.
        assert (rt.mail_time[b.src] > -np.inf).any(axis=1).all()
        assert (rt.mail_time[b.dst] > -np.inf).any(axis=1).all()

    def test_mailbox_ring_keeps_most_recent(self):
        g = stream()
        model = APAN(CFG, mailbox_size=2, rng=np.random.default_rng(0))
        rt = model.new_runtime(g)
        with no_grad():
            for batch in iter_fixed_size(g, 20):
                model.process_batch(batch, rt, g)
        # No vertex holds more than mailbox_size messages; times valid.
        filled = rt.mail_time > -np.inf
        assert filled.sum(axis=1).max() <= 2

    def test_state_updates_after_propagation_lands(self):
        # Propagation is asynchronous: the first batch only fills mailboxes
        # (zero-state GRU stays at zero); state moves from the second batch.
        g = stream()
        model = APAN(CFG, mailbox_size=5, rng=np.random.default_rng(0))
        rt = model.new_runtime(g)
        with no_grad():
            model.process_batch(g.slice(0, 30), rt, g)
            assert np.allclose(rt.state, 0.0)
            model.process_batch(g.slice(30, 60), rt, g)
        touched = np.any(rt.state != 0.0, axis=1)
        assert touched.sum() > 0

    def test_infer_matches_process(self):
        g = stream()
        m1 = APAN(CFG, mailbox_size=5, rng=np.random.default_rng(0))
        m2 = APAN(CFG, mailbox_size=5, rng=np.random.default_rng(0))
        m2.load_state_dict(m1.state_dict())
        rt1, rt2 = m1.new_runtime(g), m2.new_runtime(g)
        for batch in iter_fixed_size(g, 30):
            with no_grad():
                a = m1.process_batch(batch, rt1, g).data
            b = m2.infer_batch(batch, rt2, g)
            assert np.allclose(a, b, atol=1e-12)

    def test_runtime_snapshot_restore(self):
        g = stream()
        model = APAN(CFG, mailbox_size=3, rng=np.random.default_rng(0))
        rt = model.new_runtime(g)
        with no_grad():
            model.process_batch(g.slice(0, 20), rt, g)
        snap = rt.snapshot()
        with no_grad():
            model.process_batch(g.slice(20, 40), rt, g)
        rt.restore(snap)
        assert (rt.mail_time > -np.inf).sum() == (snap["mail_time"] > -np.inf).sum()

    @pytest.mark.parametrize("node_features", [False, True])
    def test_gradients_flow(self, node_features):
        g = stream()
        cfg = CFG
        if node_features:
            g = gdelt_like(num_edges=120, num_users=20, num_items=10)
            cfg = CFG.with_(edge_dim=g.edge_dim, node_dim=g.node_dim)
            assert cfg.node_dim > 0
        model = APAN(cfg, mailbox_size=5, rng=np.random.default_rng(0))
        rt = model.new_runtime(g)
        with no_grad():
            model.process_batch(g.slice(0, 20), rt, g)  # fill mailboxes
        emb = model.process_batch(g.slice(20, 40), rt, g)
        (emb ** 2).sum().backward()
        grads = [p.grad is not None for _, p in model.named_parameters()]
        assert any(grads)
        # Query-path weights must always receive gradient.
        assert model.attention.w_k.weight.grad is not None
        assert model.attention.w_v.weight.grad is not None
        if node_features:
            # The projection is applied through the module, so it trains.
            assert model.node_proj.weight.grad is not None
            assert model.node_proj.bias.grad is not None
