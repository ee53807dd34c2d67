"""Property-based equivalence of the one model body with the bodies it replaced.

``TGNN.infer_batch`` is the training path under ``no_grad``: the updater on
the rows that have mail, then — for the simplified attention — top-k from
the Δt logits, gathers of the selected neighbors only, the alpha-weighted
*raw* neighbor vectors summed first (FAM) and ``W_v`` applied once per node
(FTM), the bias scaled by ``sum(alpha)``.  Two bodies it replaced are kept
here, and only here, as oracles; neither reads anything of the model but its
parameter arrays, the LUT bin edges and the ``prepare_inference`` tables:

* the pure-numpy deployment body (``_update_memory_np`` with both updaters'
  ``forward_numpy`` / ``forward_numpy_premul``, ``_gnn_numpy`` with both
  attentions' numpy forms), verbatim but for ``self`` becoming ``model``:
  vertex state and the neighbor table byte-identical after every batch,
  simplified-attention logits and both masks array-equal, embeddings to
  1e-12;
* the transform-then-aggregate GNN stage before that — ``W_v`` on every
  ``(node, neighbor)`` row, padded edge features zeroed, one top-k pass for
  the gathers and a second for the reported mask: embeddings to 1e-12.

Random dims, ``k``, pruning budgets, both attentions, both time encoders,
both updaters, prepared or not, with and without node features, over streams
whose first batch has no neighbor anywhere and whose later rows hold 0..k of
them, batch sizes 0 / 1 / many.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import TemporalGraph
from repro.models import TGNN, ModelConfig, top_k_mask
from repro.models.message import raw_messages
from repro.models.pruning import prune

NUM_NODES = 7
DT_SCALE = 1.0 / 86_400.0


# --------------------------------------------------------------------------- #
# Oracle 1: the numpy deployment body, verbatim.
def _sigmoid(x):
    ax = np.abs(x)
    e = np.exp(-ax)
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _masked_softmax_np(logits, mask):
    neg = np.where(mask, logits, -np.inf)
    mx = np.max(neg, axis=-1, keepdims=True)
    mx = np.where(np.isfinite(mx), mx, 0.0)
    e = np.exp(np.where(mask, logits - mx, -np.inf))
    e = np.where(mask, e, 0.0)
    denom = e.sum(axis=-1, keepdims=True)
    return e / np.where(denom == 0.0, 1.0, denom)


def compact(keep, budget):
    """Each row's kept slots in ascending order, padded with slot 0, and
    the mask of real selections: the compact form of a pruning mask."""
    k = keep.shape[1]
    order = np.sort(np.where(keep, np.arange(k), k), axis=1)[:, :budget]
    return np.where(order < k, order, 0), order < k


def bin_index(enc, dt):
    idx = np.searchsorted(enc.edges, np.asarray(dt, dtype=np.float64),
                          side="right") - 1
    return np.clip(idx, 0, enc.n_bins - 1)


def encode_numpy(enc, dt):
    if hasattr(enc, "table"):
        return enc.table.data[bin_index(enc, dt)]
    return np.cos(np.asarray(dt, dtype=np.float64)[..., None]
                  * enc.omega.data + enc.phase.data)


def _gates(gru, gi, memory):
    h = gru.hidden_size
    gh = memory @ gru.weight_hh.data.T + gru.bias_hh.data
    r = _sigmoid(gi[:, 0:h] + gh[:, 0:h])
    z = _sigmoid(gi[:, h:2 * h] + gh[:, h:2 * h])
    n = np.tanh(gi[:, 2 * h:3 * h] + r * gh[:, 2 * h:3 * h])
    return (1.0 - z) * n + z * memory


def updater_forward_numpy(upd, raw_messages, memory, time_features):
    m = np.concatenate([raw_messages, time_features], axis=1)
    if hasattr(upd, "gru"):
        gi = m @ upd.gru.weight_ih.data.T + upd.gru.bias_ih.data
        return _gates(upd.gru, gi, memory)
    return np.tanh(m @ upd.w_ih.data.T + memory @ upd.w_hh.data.T
                   + upd.bias.data)


def updater_forward_numpy_premul(upd, raw_messages, bins, premul_table, w_raw,
                                 memory):
    if hasattr(upd, "gru"):
        gi = raw_messages @ w_raw.T + premul_table[bins] + upd.gru.bias_ih.data
        return _gates(upd.gru, gi, memory)
    return np.tanh(raw_messages @ w_raw.T + premul_table[bins]
                   + memory @ upd.w_hh.data.T + upd.bias.data)


def read_rows(state, vertices):
    """Gather ``(memory, mailbox, mail_time, last_update)`` rows."""
    v = np.asarray(vertices, dtype=np.int64)
    return (state.memory[v], state.mailbox[v],
            state.mail_time[v], state.last_update[v])


def update_memory_np(model, batch, rt):
    nodes = batch.nodes
    t_nodes = np.repeat(batch.t, 2)
    uniq, inverse = np.unique(nodes, return_inverse=True)
    mem, mail, mail_t, last = read_rows(rt.state, uniq)
    has_mail = mail_t > -np.inf
    updated = mem.copy()
    if has_mail.any():
        idx = np.nonzero(has_mail)[0]
        dt = np.maximum(mail_t[idx] - last[idx], 0.0)
        cache = model._premul_cache
        if cache is None:
            updated[idx] = updater_forward_numpy(
                model.memory_updater, mail[idx], mem[idx],
                encode_numpy(model.time_encoder, dt))
        else:
            updated[idx] = updater_forward_numpy_premul(
                model.memory_updater, mail[idx],
                bin_index(model.time_encoder, dt), cache["updt"],
                cache["updt_raw"], mem[idx])
        rt.state.write_memory(uniq[idx], updated[idx], mail_t[idx])
    mem_src = updated[inverse[0::2]]
    mem_dst = updated[inverse[1::2]]
    msg_src = raw_messages(mem_src, mem_dst, batch.edge_feat)
    msg_dst = raw_messages(mem_dst, mem_src, batch.edge_feat)
    msgs = np.empty((len(nodes), model.cfg.raw_message_dim))
    msgs[0::2] = msg_src
    msgs[1::2] = msg_dst
    rt.state.write_mail(nodes, msgs, t_nodes)
    return nodes, t_nodes, inverse, updated


def vanilla_forward_numpy(attn, query_feat, nbr_feat, edge_feat, time_enc,
                          time_enc_zero, mask):
    n, k = mask.shape
    q = (np.concatenate([query_feat, time_enc_zero], axis=1)
         @ attn.w_q.weight.data.T + attn.w_q.bias.data)
    kv_in = np.concatenate([nbr_feat, edge_feat, time_enc], axis=2)
    keys = kv_in @ attn.w_k.weight.data.T + attn.w_k.bias.data
    values = kv_in @ attn.w_v.weight.data.T + attn.w_v.bias.data
    logits = np.einsum("nke,ne->nk", keys, q) / np.sqrt(k)
    alpha = _masked_softmax_np(logits, mask)
    hidden = np.einsum("nk,nke->ne", alpha, values)
    return hidden, logits


def logits_numpy(attn, dt_scaled):
    return dt_scaled @ attn.w_t.weight.data.T + attn.w_t.bias.data \
        + attn.attn_bias.data


def aggregate_numpy(alpha, feat):
    return (alpha[:, None, :] @ feat)[:, 0]


def simplified_forward_numpy(attn, alpha, nbr, edge, time, w_raw=None):
    bias = alpha.sum(axis=1, keepdims=True) * attn.w_v.bias.data
    if w_raw is None:
        return (np.concatenate([nbr, edge, time], axis=1)
                @ attn.w_v.weight.data.T + bias)
    return np.concatenate([nbr, edge], axis=1) @ w_raw.T + time + bias


def gnn_numpy(model, nodes, t_nodes, g, updated, inverse, rt, graph):
    cfg = model.cfg
    dt_nbr = np.maximum(t_nodes[:, None] - g.times, 0.0)
    dt_nbr = np.where(g.mask, dt_nbr, 0.0)
    self_feat = updated[inverse]
    if model.node_proj is not None:
        self_feat = self_feat + (graph.node_feat[nodes]
                                 @ model.node_proj.weight.data.T
                                 + model.node_proj.bias.data)

    if cfg.simplified_attention:
        attn = model.attention
        full_logits = logits_numpy(attn, dt_nbr * DT_SCALE)
        nbrs, eids, sel_dt, sel_logits = g.nbrs, g.eids, dt_nbr, full_logits
        selected = sel_mask = g.mask
        if cfg.pruning_budget is not None:
            selected = top_k_mask(full_logits, g.mask, cfg.pruning_budget)
            idx, sel_mask = compact(selected, cfg.pruning_budget)
            rows = np.arange(len(nodes))[:, None]
            nbrs, eids = nbrs[rows, idx], eids[rows, idx]
            sel_dt, sel_logits = dt_nbr[rows, idx], full_logits[rows, idx]
        alpha = _masked_softmax_np(sel_logits, sel_mask)
        nbr_feat = rt.state.memory[nbrs]
        if model.node_proj is not None:
            nbr_feat = nbr_feat + (graph.node_feat[nbrs]
                                   @ model.node_proj.weight.data.T
                                   + model.node_proj.bias.data)
        nbr = aggregate_numpy(alpha, nbr_feat)
        del nbr_feat
        edge = aggregate_numpy(alpha, graph.edge_feat[eids])
        cache = model._premul_cache or {}
        if "attn_v" in cache:
            time_feat = cache["attn_v"][bin_index(model.time_encoder, sel_dt)]
        else:
            time_feat = encode_numpy(model.time_encoder, sel_dt)
        hidden = simplified_forward_numpy(
            attn, alpha, nbr, edge, aggregate_numpy(alpha, time_feat),
            w_raw=cache.get("attn_raw"))
    else:
        nbr_feat = rt.state.memory[g.nbrs]
        if model.node_proj is not None:
            nbr_feat = nbr_feat + (graph.node_feat[g.nbrs]
                                   @ model.node_proj.weight.data.T
                                   + model.node_proj.bias.data)
        e_feat = np.where(g.mask[:, :, None], graph.edge_feat[g.eids], 0.0)
        time_enc = encode_numpy(model.time_encoder, dt_nbr)
        time_zero = encode_numpy(model.time_encoder, np.zeros(len(nodes)))
        hidden, full_logits = vanilla_forward_numpy(
            model.attention, self_feat, nbr_feat, e_feat, time_enc, time_zero,
            g.mask)
        selected = g.mask

    out = np.concatenate([hidden, self_feat], axis=1)
    emb = out @ model.out_transform.weight.data.T \
        + model.out_transform.bias.data
    np.maximum(emb, 0.0, out=emb)
    return emb, full_logits, selected


# --------------------------------------------------------------------------- #
# Oracle 2: the per-neighbor-values GNN stage, verbatim.
def oracle_values(attn, nbr_feat, edge_feat, time_enc, logits, sel_mask):
    kv_in = np.concatenate([nbr_feat, edge_feat, time_enc], axis=2)
    values = kv_in @ attn.w_v.weight.data.T + attn.w_v.bias.data
    alpha = _masked_softmax_np(logits, sel_mask)
    return np.einsum("nk,nke->ne", alpha, values)


def per_neighbor_gnn(model, nodes, t_nodes, g, updated, inverse, rt, graph):
    cfg = model.cfg
    dt_nbr = np.maximum(t_nodes[:, None] - g.times, 0.0)
    dt_nbr = np.where(g.mask, dt_nbr, 0.0)
    self_feat = updated[inverse]
    if model.node_proj is not None:
        self_feat = self_feat + (graph.node_feat[nodes]
                                 @ model.node_proj.weight.data.T
                                 + model.node_proj.bias.data)
    logits = logits_numpy(model.attention, dt_nbr * DT_SCALE)
    if cfg.pruning_budget is not None:
        _, idx, sel_mask = prune(logits, g.mask, cfg.pruning_budget)
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
                  + cache["attn_v"][bin_index(model.time_encoder, sel_dt)]
                  + w_v.bias.data)
        alpha = _masked_softmax_np(sel_logits, sel_mask)
        hidden = np.einsum("nk,nke->ne", alpha, values)
    else:
        hidden = oracle_values(model.attention, nbr_feat, e_feat,
                               encode_numpy(model.time_encoder, sel_dt),
                               sel_logits, sel_mask)
    selected = g.mask if cfg.pruning_budget is None \
        else top_k_mask(logits, g.mask, cfg.pruning_budget)
    out = np.concatenate([hidden, self_feat], axis=1)
    emb = out @ model.out_transform.weight.data.T \
        + model.out_transform.bias.data
    return np.maximum(emb, 0.0), logits, selected


def oracle_infer_batch(model, batch, rt, graph, gnn):
    """Algorithm 1 over the numpy memory stage and the GNN stage ``gnn``."""
    nodes, t_nodes, inverse, updated = update_memory_np(model, batch, rt)
    g = rt.sampler.gather(nodes, model.cfg.num_neighbors)
    out = gnn(model, nodes, t_nodes, g, updated, inverse, rt, graph)
    rt.sampler.insert_edges(batch.src, batch.dst, batch.eid, batch.t)
    return out + (g.mask,)


# --------------------------------------------------------------------------- #
@st.composite
def scenarios(draw):
    k = draw(st.integers(1, 6))
    simplified = draw(st.booleans())
    cfg = ModelConfig(
        memory_dim=draw(st.integers(1, 9)), time_dim=draw(st.integers(1, 7)),
        embed_dim=draw(st.integers(1, 9)), edge_dim=draw(st.integers(1, 6)),
        node_dim=draw(st.sampled_from([0, 3])), num_neighbors=k,
        simplified_attention=simplified, lut_time_encoder=draw(st.booleans()),
        lut_bins=8, memory_updater=draw(st.sampled_from(["gru", "rnn"])),
        pruning_budget=draw(st.none() | st.integers(1, k))
        if simplified else None)
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
    rt, rt_np, rt_pn = (model.new_runtime(graph, np.float64)
                        for _ in range(3))
    lo = 0
    for size in sizes:
        batch = graph.slice(lo, lo + size)
        lo += size
        emb, logits, selected, mask = oracle_infer_batch(
            model, batch, rt_np, graph, gnn_numpy)
        got = model.infer_batch(batch, rt, graph)
        assert got.embeddings.data.shape == emb.shape
        assert np.allclose(got.embeddings.data, emb, rtol=1e-12, atol=1e-12)
        assert np.array_equal(got.attention.selected, selected)
        assert np.array_equal(got.attention.mask, mask)
        assert_same_state(rt, rt_np)
        if not cfg.simplified_attention:
            # The qK logits moved at round-off: einsum -> multiply-sum.
            assert np.allclose(got.attention.logits.data, logits,
                               rtol=1e-12, atol=1e-12)
            continue
        assert np.array_equal(got.attention.logits.data, logits)
        emb, logits, selected, mask = oracle_infer_batch(
            model, batch, rt_pn, graph, per_neighbor_gnn)
        assert np.allclose(got.embeddings.data, emb, rtol=1e-12, atol=1e-12)
        assert np.array_equal(got.attention.logits.data, logits)
        assert np.array_equal(got.attention.selected, selected)
        assert_same_state(rt, rt_pn)


@settings(max_examples=160, deadline=None, derandomize=True)
@given(scenarios())
def test_one_body_matches_the_bodies_it_replaced(scenario):
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
    rt = model.new_runtime(graph, np.float64)
    got = model.infer_batch(graph.slice(0, 6), rt, graph)
    assert not got.attention.mask.any()
    w_out = model.out_transform
    # Fresh memory is 0 and no mail has arrived, so f'_i == 0 as well.
    ref = np.maximum(np.zeros((12, 11)) @ w_out.weight.data.T
                     + w_out.bias.data, 0.0)
    assert np.array_equal(got.embeddings.data, ref)
    check_stream(cfg, [6, 3], prepared, seed=11)


MUTATION_CFG = ModelConfig(memory_dim=5, time_dim=4, embed_dim=6, edge_dim=3,
                           num_neighbors=4, simplified_attention=True)


def test_oracle_catches_an_unscaled_bias(monkeypatch):
    """Mutation check, GNN stage: adding ``b_v`` unconditionally (dropping
    the ``sum(alpha)`` factor) must fail the property on the first batch."""
    from repro.models.attention import SimplifiedTemporalAttention

    honest = SimplifiedTemporalAttention.transform

    def unscaled(self, alpha, nbr, edge, time, premul=None):
        return (honest(self, alpha, nbr, edge, time, premul)
                + (1.0 - alpha.sum(axis=1, keepdims=True)) * self.w_v.bias)

    check_stream(MUTATION_CFG, [4, 4], False, seed=3)
    monkeypatch.setattr(SimplifiedTemporalAttention, "transform", unscaled)
    with pytest.raises(AssertionError):
        check_stream(MUTATION_CFG, [4, 4], False, seed=3)


def test_oracle_catches_a_misplaced_memory_row(monkeypatch):
    """Mutation check, memory stage: the updater runs on the rows that have
    mail only, so its output must be scattered back to *those* unique-vertex
    rows.  Hand the stage an endpoint-to-row map that is off by one and the
    state bytes must differ."""
    from repro.models import tgn

    honest = tgn._assemble_endpoints

    def shifted(batch):
        nodes, t_nodes, uniq, inverse = honest(batch)
        return nodes, t_nodes, uniq, (inverse + 1) % len(uniq)

    check_stream(MUTATION_CFG, [5, 5, 5], False, seed=3)
    monkeypatch.setattr(tgn, "_assemble_endpoints", shifted)
    with pytest.raises(AssertionError):
        check_stream(MUTATION_CFG, [5, 5, 5], False, seed=3)
