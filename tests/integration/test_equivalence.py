"""Integration: the two execution paths produce identical embeddings.

Software training path (autograd) == software deployment path (NumPy),
streamed over many batches with evolving state.  The hardware simulator
executes neither: it prices the batches the deployment path runs.
"""

import numpy as np
import pytest

from repro.autograd import no_grad
from repro.datasets import wikipedia_like
from repro.graph import iter_fixed_size
from repro.models import ModelConfig, TGNN


def ladder_configs():
    base = ModelConfig(memory_dim=10, time_dim=8, embed_dim=10, edge_dim=172,
                       num_neighbors=5)
    sat = base.with_(simplified_attention=True, name="sat")
    lut = sat.with_(lut_time_encoder=True, lut_bins=16, name="lut")
    return [base, sat, lut, lut.with_(pruning_budget=2, name="np")]


@pytest.mark.parametrize("cfg", ladder_configs(), ids=lambda c: c.name)
def test_training_and_deployment_paths_agree_over_stream(cfg):
    g = wikipedia_like(num_edges=400, num_users=60, num_items=15)
    model = TGNN(cfg, rng=np.random.default_rng(0))
    model.calibrate(g)
    rt_a = model.new_runtime(g)
    with no_grad():
        ref = [model.process_batch(b, rt_a, g).embeddings.data
               for b in iter_fixed_size(g, 64)]
    model.prepare_inference()
    # The float64 deployment: the float32 one is held to its own bound.
    rt_b = model.new_runtime(g, np.float64)
    got = [model.infer_batch(b, rt_b, g).embeddings.data
           for b in iter_fixed_size(g, 64)]
    for i, (a, b) in enumerate(zip(ref, got)):
        assert np.allclose(a, b, atol=1e-9), f"batch {i}"
    # Terminal state must agree too (memory, mailbox, neighbor table).
    assert np.allclose(rt_a.state.memory, rt_b.state.memory, atol=1e-9)
    assert np.allclose(rt_a.state.mailbox, rt_b.state.mailbox, atol=1e-9)
    assert np.array_equal(rt_a.sampler.table._nbrs, rt_b.sampler.table._nbrs)


def test_batch_size_does_not_change_per_batch_results_much():
    """Within-batch dependency relaxation: different batch sizes change
    results (documented TGN behaviour) but state stays consistent: the same
    total set of vertices ends up with mail."""
    g = wikipedia_like(num_edges=300, num_users=50, num_items=12)
    cfg = ladder_configs()[0]
    outs = {}
    for bs in (30, 150):
        model = TGNN(cfg, rng=np.random.default_rng(0))
        rt = model.new_runtime(g)
        with no_grad():
            for b in iter_fixed_size(g, bs):
                model.process_batch(b, rt, g)
        outs[bs] = rt.state.has_mail(np.arange(g.num_nodes))
    assert np.array_equal(outs[30], outs[150])
