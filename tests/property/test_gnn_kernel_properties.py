"""Property-based equivalence of the aggregate-then-transform GNN kernel.

``TGNN.infer_batch`` runs the simplified-attention GNN stage in the
Embedding Unit's order: the alpha-weighted *raw* neighbor vectors are summed
first (FAM) and ``W_v`` is applied once per node (FTM), the bias scaled by
``sum(alpha)``.  The transform-then-aggregate body it replaced — ``W_v`` on
every ``(node, neighbor)`` row, padded edge features zeroed, one top-k pass
for the gathers and a second for the reported mask, weight slices cut per
batch — is kept here, and only here, as the oracle.  Random dims, ``k``,
pruning budgets, both time encoders, prepared or not, with and without node
features, over streams whose first batch has no neighbor anywhere and whose
later rows hold 0..k of them, batch sizes 0 / 1 / many: embeddings agree to
1e-12, logits and masks are array-equal, and vertex state and the neighbor
table are byte-identical after every batch.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import TemporalGraph
from repro.models import TGNN, ModelConfig, select_pruned, top_k_mask
from repro.models.attention import DT_SCALE, _masked_softmax_np

NUM_NODES = 7


# --------------------------------------------------------------------------- #
# The oracle: the per-neighbor-values body, verbatim.
def oracle_values(attn, nbr_feat, edge_feat, time_enc, logits, sel_mask):
    kv_in = np.concatenate([nbr_feat, edge_feat, time_enc], axis=2)
    values = kv_in @ attn.w_v.weight.data.T + attn.w_v.bias.data
    alpha = _masked_softmax_np(logits, sel_mask)
    return np.einsum("nk,nke->ne", alpha, values)


def oracle_gnn(model, nodes, t_nodes, g, updated, inverse, rt, graph):
    cfg = model.cfg
    dt_nbr = np.maximum(t_nodes[:, None] - g.times, 0.0)
    dt_nbr = np.where(g.mask, dt_nbr, 0.0)
    self_feat = updated[inverse]
    if model.node_proj is not None:
        self_feat = self_feat + (graph.node_feat[nodes]
                                 @ model.node_proj.weight.data.T
                                 + model.node_proj.bias.data)
    logits = model.attention.logits_numpy(dt_nbr * DT_SCALE)
    if cfg.pruning_budget is not None:
        idx, sel_mask = select_pruned(logits, g.mask, cfg.pruning_budget)
        rows = np.arange(len(nodes))[:, None]
        nbrs, eids = g.nbrs[rows, idx], g.eids[rows, idx]
        sel_dt, sel_logits = dt_nbr[rows, idx], logits[rows, idx]
    else:
        nbrs, eids, sel_dt = g.nbrs, g.eids, dt_nbr
        sel_logits, sel_mask = logits, g.mask
    nbr_feat = rt.state.memory[nbrs]
    if model.node_proj is not None:
        nbr_feat = nbr_feat + (graph.node_feat[nbrs]
                               @ model.node_proj.weight.data.T
                               + model.node_proj.bias.data)
    e_feat = np.where(sel_mask[:, :, None], graph.edge_feat[eids], 0.0)
    cache = model._premul_cache
    if cache is not None and "attn_v" in cache:
        w_v = model.attention.w_v
        kv_raw = np.concatenate([nbr_feat, e_feat], axis=2)
        values = (kv_raw @ w_v.weight.data[:, :-cfg.time_dim].T
                  + cache["attn_v"][model.time_encoder.bin_index(sel_dt)]
                  + w_v.bias.data)
        alpha = _masked_softmax_np(sel_logits, sel_mask)
        hidden = np.einsum("nk,nke->ne", alpha, values)
    else:
        hidden = oracle_values(model.attention, nbr_feat, e_feat,
                               model.time_encoder.encode_numpy(sel_dt),
                               sel_logits, sel_mask)
    selected = g.mask if cfg.pruning_budget is None \
        else top_k_mask(logits, g.mask, cfg.pruning_budget)
    out = np.concatenate([hidden, self_feat], axis=1)
    emb = out @ model.out_transform.weight.data.T \
        + model.out_transform.bias.data
    return np.maximum(emb, 0.0), logits, selected, g.mask


def oracle_infer_batch(model, batch, rt, graph):
    """The batch as the parent ran it: its GRU multiplied by the strided
    ``W_ih[:, :-time_dim]`` view (not the packed copy), then the body above."""
    sliced = copy.copy(model)
    if model._premul_cache is not None:
        upd = model.memory_updater
        w_ih = upd.gru.weight_ih if hasattr(upd, "gru") else upd.w_ih
        sliced._premul_cache = dict(
            model._premul_cache,
            updt_raw=w_ih.data[:, :-model.cfg.time_dim])
    nodes, t_nodes, inverse, updated = sliced._update_memory_np(batch, rt)
    g = rt.sampler.gather(nodes, model.cfg.num_neighbors)
    out = oracle_gnn(model, nodes, t_nodes, g, updated, inverse, rt, graph)
    rt.sampler.insert_edges(batch.src, batch.dst, batch.eid, batch.t)
    return out


# --------------------------------------------------------------------------- #
@st.composite
def scenarios(draw):
    k = draw(st.integers(1, 6))
    cfg = ModelConfig(
        memory_dim=draw(st.integers(1, 9)), time_dim=draw(st.integers(1, 7)),
        embed_dim=draw(st.integers(1, 9)), edge_dim=draw(st.integers(1, 6)),
        node_dim=draw(st.sampled_from([0, 3])), num_neighbors=k,
        simplified_attention=True, lut_time_encoder=draw(st.booleans()),
        lut_bins=8, memory_updater=draw(st.sampled_from(["gru", "rnn"])),
        pruning_budget=draw(st.none() | st.integers(1, k)))
    sizes = draw(st.lists(st.sampled_from([0, 1, 2, 5, 9]), min_size=1,
                          max_size=5))
    return cfg, sizes, draw(st.booleans()), draw(st.integers(0, 2**16))


def build(cfg, n_edges, prepared, seed):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, NUM_NODES, n_edges)
    dst = (src + rng.integers(1, NUM_NODES, n_edges)) % NUM_NODES
    graph = TemporalGraph(
        src, dst, np.cumsum(rng.exponential(3_000.0, n_edges)),
        edge_feat=rng.normal(size=(n_edges, cfg.edge_dim)),
        node_feat=rng.normal(size=(NUM_NODES, cfg.node_dim)),
        num_nodes=NUM_NODES)
    model = TGNN(cfg, rng=rng)
    model.attention.w_v.bias.data[:] = rng.normal(size=cfg.embed_dim)
    if n_edges:
        model.calibrate(graph)
    if prepared:
        model.prepare_inference()
    return graph, model


def assert_same_state(rt, rt_ref):
    snap, ref = rt.snapshot(), rt_ref.snapshot()
    for part in ("state", "nbr"):
        assert snap[part].keys() == ref[part].keys()
        for key, array in snap[part].items():
            assert array.tobytes() == ref[part][key].tobytes(), (part, key)


def check_stream(cfg, sizes, prepared, seed):
    graph, model = build(cfg, sum(sizes), prepared, seed)
    rt, rt_ref = model.new_runtime(graph), model.new_runtime(graph)
    lo = 0
    for size in sizes:
        batch = graph.slice(lo, lo + size)
        lo += size
        emb, logits, selected, mask = oracle_infer_batch(model, batch,
                                                         rt_ref, graph)
        got = model.infer_batch(batch, rt, graph)
        assert got.embeddings.data.shape == emb.shape
        assert np.allclose(got.embeddings.data, emb, rtol=1e-12, atol=1e-12)
        assert np.array_equal(got.attention.logits.data, logits)
        assert np.array_equal(got.attention.selected, selected)
        assert np.array_equal(got.attention.mask, mask)
        assert_same_state(rt, rt_ref)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(scenarios())
def test_aggregate_first_matches_per_neighbor_values(scenario):
    check_stream(*scenario)


@pytest.mark.parametrize("prepared", [False, True])
@pytest.mark.parametrize("budget", [None, 2])
def test_rows_without_a_neighbor_get_zero_hidden(prepared, budget):
    """Every vertex of a stream's first batch has no valid neighbor: its
    hidden state is 0, not ``b_v`` — the bias rides on ``sum(alpha)``.  The
    embedding is then the output transform of ``[0 || f'_i]`` alone."""
    cfg = ModelConfig(memory_dim=5, time_dim=4, embed_dim=6, edge_dim=3,
                      num_neighbors=4, simplified_attention=True,
                      lut_time_encoder=True, lut_bins=8,
                      pruning_budget=budget)
    graph, model = build(cfg, 6, prepared, seed=11)
    assert np.abs(model.attention.w_v.bias.data).min() > 0
    rt = model.new_runtime(graph)
    got = model.infer_batch(graph.slice(0, 6), rt, graph)
    assert not got.attention.mask.any()
    w_out = model.out_transform
    # Fresh memory is 0 and no mail has arrived, so f'_i == 0 as well.
    ref = np.maximum(np.zeros((12, 11)) @ w_out.weight.data.T
                     + w_out.bias.data, 0.0)
    assert np.array_equal(got.embeddings.data, ref)
    check_stream(cfg, [6, 3], prepared, seed=11)


def test_oracle_catches_an_unscaled_bias(monkeypatch):
    """Mutation check: adding ``b_v`` unconditionally (dropping the
    ``sum(alpha)`` factor) must fail the property on the first batch."""
    from repro.models.attention import SimplifiedTemporalAttention

    honest = SimplifiedTemporalAttention.forward_numpy

    def unscaled(self, alpha, nbr, edge, time, w_raw=None):
        return (honest(self, alpha, nbr, edge, time, w_raw)
                + (1.0 - alpha.sum(axis=1, keepdims=True))
                * self.w_v.bias.data)

    cfg = ModelConfig(memory_dim=5, time_dim=4, embed_dim=6, edge_dim=3,
                      num_neighbors=4, simplified_attention=True)
    check_stream(cfg, [4, 4], False, seed=3)
    monkeypatch.setattr(SimplifiedTemporalAttention, "forward_numpy",
                        unscaled)
    with pytest.raises(AssertionError):
        check_stream(cfg, [4, 4], False, seed=3)
