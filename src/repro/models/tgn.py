"""Memory-based TGNN (TGN-attn) and its co-designed variants.

One class implements the whole Table II ladder: the :class:`ModelConfig`
flags select vanilla vs. simplified attention, cosine vs. LUT time encoder,
and the pruning budget.  The model follows the paper's Algorithm 1 exactly:

    1. update vertex memory from cached messages         (UPDT / MUU)
    2. refresh cached messages with the new signals      (mailbox)
    3. compute output embeddings via temporal attention  (GNN / EU)
    4. append the new edges to the neighbor table        (FIFO sampler)

Two execution paths share the same parameters:

* :meth:`process_batch` — autograd path used for training and distillation;
* :meth:`infer_batch` — pure-NumPy deployment path with *actual* pruned
  gathers and pre-multiplied LUT tables, instrumented with the per-stage
  timings of Table I.  Its simplified-attention GNN stage runs in the
  accelerator's order (§IV-B): aggregate the alpha-weighted raw neighbor
  vectors (FAM), then apply ``W_v`` once per node (FTM) — exact because the
  value map is affine and Eq. (16)'s ``alpha`` depends on Δt only.  The
  autograd path keeps per-neighbor values as the training reference; the
  deployment path's old per-neighbor body is the oracle of
  ``tests/property/test_gnn_kernel_properties.py``.  The two paths agree
  to float round-off (asserted by integration tests); the hardware
  simulator runs neither — it prices batches from their shape.

Worker-pool contract (measured serving backends)
------------------------------------------------
:class:`TGNN`, :class:`ModelRuntime`, and the graph are **picklable**, and
:meth:`infer_batch` is stateless apart from the runtime it is handed —
parameters (including the ``prepare_inference`` premultiplied LUT cache)
are plain numpy arrays with no open handles, closures, or clocks.  The
measured serving path (:mod:`repro.serving.measured`) relies on this:
each worker process receives ``(model, graph)`` once, builds its own
runtime via :meth:`TGNN.new_runtime`, and replays its shard's sub-batches
FIFO through :meth:`infer_batch`.  Changes that break picklability (e.g.
caching a lambda on the model) break `serve-sim --backend measured
--workers N`; ``test_measured`` pins the contract.  :data:`KERNEL_STAGES`
names the Table I stage keys ``infer_batch`` reports via ``timings``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..autograd import Tensor, no_grad
from ..autograd.module import Linear, Module
from ..graph.sampler import FIFONeighborSampler
from ..graph.state import VertexState
from ..graph.temporal_graph import EdgeBatch, TemporalGraph
from .attention import (DT_SCALE, AttentionOutput, SimplifiedTemporalAttention,
                        VanillaTemporalAttention, _masked_softmax_np)
from .config import ModelConfig
from .memory_updater import GRUMemoryUpdater, RNNMemoryUpdater
from .message import build_raw_messages
from .pruning import compact_selection, top_k_mask
from .time_encoding import CosineTimeEncoder, LUTTimeEncoder

__all__ = ["TGNN", "ModelRuntime", "BatchResult", "MemoryUpdate",
           "KERNEL_STAGES"]

# Table I stage keys of the deployment path, in pipeline order: the
# ``timings`` dict of :meth:`TGNN.infer_batch` uses exactly these, and the
# measured serving backend's per-stage report aggregates under them.
KERNEL_STAGES = ("memory", "sample", "gnn", "update")


def _assemble_endpoints(batch: EdgeBatch) -> tuple[np.ndarray, np.ndarray,
                                                   np.ndarray, np.ndarray]:
    """Per-batch endpoint assembly shared by both pipeline stages.

    Returns ``(nodes, t_nodes, uniq, inverse)``: the interleaved endpoint
    ids, each endpoint's edge timestamp (every edge contributes its ``t``
    twice — once per endpoint), and the unique-vertex table with the
    inverse map back to endpoint rows.  Every memory-update entry point
    (autograd, numpy, LUT-premultiplied) starts from exactly this tuple,
    and ``infer_batch`` reuses ``t_nodes`` downstream instead of
    recomputing the repeat.
    """
    nodes = batch.nodes
    t_nodes = np.repeat(batch.t, 2)
    uniq, inverse = np.unique(nodes, return_inverse=True)
    return nodes, t_nodes, uniq, inverse


@dataclass
class ModelRuntime:
    """Mutable per-stream state: vertex tables + neighbor FIFO.

    Forking a runtime (``snapshot``/``restore``) lets evaluation continue
    from the training boundary without corrupting the training state.
    """

    state: VertexState
    sampler: FIFONeighborSampler

    def snapshot(self) -> dict:
        return {"state": self.state.snapshot(),
                "nbr": self.sampler.table.snapshot()}

    def restore(self, snap: dict) -> None:
        self.state.restore(snap["state"])
        self.sampler.table.restore(snap["nbr"])

    def reset(self) -> None:
        self.state.reset()
        self.sampler.table.reset()


@dataclass
class BatchResult:
    """Output of one processed batch (2 embeddings per edge, interleaved).

    When negative-sample queries were requested, their embeddings occupy the
    trailing rows of ``embeddings`` (``nodes`` includes them too).
    """

    nodes: np.ndarray          # (2B [+n_neg],) vertex ids: src0, dst0, ...
    embeddings: Tensor         # (2B [+n_neg], embed_dim)
    attention: AttentionOutput | None = None
    dt_scaled: np.ndarray | None = None   # (rows, k) scaled neighbor gaps
    num_edges: int = 0         # B; 0 means "infer from len(nodes)//2"

    def _b(self) -> int:
        return self.num_edges if self.num_edges else len(self.nodes) // 2

    @property
    def src_embeddings(self) -> Tensor:
        return self.embeddings[np.arange(0, 2 * self._b(), 2)]

    @property
    def dst_embeddings(self) -> Tensor:
        return self.embeddings[np.arange(1, 2 * self._b(), 2)]

    @property
    def neg_embeddings(self) -> Tensor:
        """Embeddings of the negative-sample query nodes (may be empty)."""
        return self.embeddings[np.arange(2 * self._b(), len(self.nodes))]


@dataclass
class MemoryUpdate:
    """Stage-1 output of :meth:`TGNN.process_batch` (committed memory/mail).

    ``process_batch`` is two pipeline stages — the memory update (the
    paper's MUU) and the embedding computation (EU) — and distributed
    deployments need to observe the boundary between them: after stage 1
    the batch's updated memory rows exist and can be forwarded to other
    shards *before* any shard's attention reads them (the software
    analogue of DGNN-Booster's inter-stage state forwarding; see
    :mod:`repro.serving.memsync`).  This container carries stage 1's
    results into stage 2.
    """

    nodes: np.ndarray          # (2B,) interleaved src/dst endpoint ids
    t_nodes: np.ndarray        # (2B,) per-endpoint edge timestamps
    inverse: np.ndarray        # (2B,) index into the unique-vertex rows
    updated: Tensor            # (n_unique, memory_dim) post-GRU memory


class TGNN(Module):
    """TGN-attn and its simplified variants, per :class:`ModelConfig`."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator | None = None):
        super().__init__()
        self.cfg = cfg
        if cfg.lut_time_encoder:
            self.time_encoder = LUTTimeEncoder(cfg.time_dim, cfg.lut_bins, rng=rng)
        else:
            self.time_encoder = CosineTimeEncoder(cfg.time_dim, rng=rng)
        if cfg.memory_updater == "rnn":
            self.memory_updater = RNNMemoryUpdater(cfg, self.time_encoder,
                                                   rng=rng)
        else:
            self.memory_updater = GRUMemoryUpdater(cfg, self.time_encoder,
                                                   rng=rng)
        if cfg.simplified_attention:
            self.attention: Module = SimplifiedTemporalAttention(cfg, rng=rng)
        else:
            self.attention = VanillaTemporalAttention(cfg, rng=rng)
        self.node_proj = (Linear(cfg.node_dim, cfg.memory_dim, rng=rng)
                          if cfg.node_dim > 0 else None)
        self.out_transform = Linear(cfg.embed_dim + cfg.memory_dim,
                                    cfg.embed_dim, rng=rng)
        self._premul_cache: dict | None = None

    # ------------------------------------------------------------------ #
    # runtime management                                                  #
    # ------------------------------------------------------------------ #
    def new_runtime(self, graph: TemporalGraph) -> ModelRuntime:
        """Fresh zeroed vertex state + FIFO neighbor table for ``graph``."""
        state = VertexState(graph.num_nodes, self.cfg.memory_dim,
                            self.cfg.raw_message_dim)
        sampler = FIFONeighborSampler.create(graph.num_nodes,
                                             mr=self.cfg.num_neighbors)
        return ModelRuntime(state=state, sampler=sampler)

    def calibrate(self, graph: TemporalGraph) -> None:
        """Fit LUT bin edges (and warm-start entries) from stream Δt stats.

        No-op for the cosine encoder.  Must run before training a LUT model.
        """
        if isinstance(self.time_encoder, LUTTimeEncoder):
            from ..datasets.stats import encoder_input_deltas
            deltas = encoder_input_deltas(graph)
            ref = CosineTimeEncoder(self.cfg.time_dim)
            self.time_encoder.calibrate(deltas, reference=ref)
            self._premul_cache = None

    # ------------------------------------------------------------------ #
    # shared per-batch preparation                                        #
    # ------------------------------------------------------------------ #
    def _refresh_mail(self, rt: ModelRuntime, batch: EdgeBatch,
                      nodes: np.ndarray, t_nodes: np.ndarray,
                      inverse: np.ndarray, updated: np.ndarray) -> None:
        """Refresh cached messages with the new signals (last write wins)."""
        mem_src = updated[inverse[0::2]]
        mem_dst = updated[inverse[1::2]]
        msg_src, msg_dst = build_raw_messages(mem_src, mem_dst,
                                              batch.edge_feat)
        msgs = np.empty((len(nodes), self.cfg.raw_message_dim))
        msgs[0::2] = msg_src
        msgs[1::2] = msg_dst
        rt.state.write_mail(nodes, msgs, t_nodes)

    def _update_memory_np(self, batch: EdgeBatch, rt: ModelRuntime
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                     np.ndarray]:
        """Algorithm 1 lines 3-8 (numpy): returns (nodes, t_nodes, inverse,
        updated).

        ``updated`` holds the post-GRU memory for the batch's unique
        vertices; state (memory + mailbox) is committed as a side effect.
        After :meth:`prepare_inference` on a LUT encoder the GRU's time
        contribution is one table read (:meth:`_gru_lut_np`).
        """
        nodes, t_nodes, uniq, inverse = _assemble_endpoints(batch)
        mem, mail, mail_t, last = rt.state.read(uniq)
        has_mail = mail_t > -np.inf
        updated = mem.copy()
        if has_mail.any():
            idx = np.nonzero(has_mail)[0]
            dt = np.maximum(mail_t[idx] - last[idx], 0.0)
            if self._premul_cache is None:
                updated[idx] = self.memory_updater.forward_numpy(
                    mail[idx], dt, mem[idx],
                    time_features=self.time_encoder.encode_numpy(dt))
            else:
                updated[idx] = self._gru_lut_np(mail[idx], dt, mem[idx])
            rt.state.write_memory(uniq[idx], updated[idx], mail_t[idx])
        self._refresh_mail(rt, batch, nodes, t_nodes, inverse, updated)
        return nodes, t_nodes, inverse, updated

    # ------------------------------------------------------------------ #
    # training path (autograd)                                            #
    # ------------------------------------------------------------------ #
    def update_memory(self, batch: EdgeBatch,
                      rt: ModelRuntime) -> MemoryUpdate:
        """Stage 1 of :meth:`process_batch`: GRU memory update + mail refresh.

        Consumes each endpoint's cached message, commits the updated memory
        rows (detached) and the batch's new raw messages to ``rt``, and
        returns the stage-1 results stage 2 (:meth:`embed`) needs.  Exposed
        separately so distributed runtimes can forward the freshly-written
        rows between the two stages (:mod:`repro.serving.memsync`).
        """
        nodes, t_nodes, uniq, inverse = _assemble_endpoints(batch)
        mem, mail, mail_t, last = rt.state.read(uniq)
        has_mail = mail_t > -np.inf
        dt_mail = np.where(has_mail, np.maximum(mail_t - last, 0.0), 0.0)
        raw = np.where(has_mail[:, None], mail, 0.0)
        gru_out = self.memory_updater(raw, dt_mail, mem)
        updated = Tensor.where(has_mail[:, None], gru_out, Tensor(mem))
        # Commit detached state before the GNN reads neighbor memory.
        commit_t = np.where(has_mail, mail_t, last)
        rt.state.write_memory(uniq, updated.data, commit_t)
        self._refresh_mail(rt, batch, nodes, t_nodes, inverse, updated.data)
        return MemoryUpdate(nodes=nodes, t_nodes=t_nodes, inverse=inverse,
                            updated=updated)

    def process_batch(self, batch: EdgeBatch, rt: ModelRuntime,
                      graph: TemporalGraph,
                      neg_dst: np.ndarray | None = None) -> BatchResult:
        """Differentiable processing of one chronological edge batch.

        Gradients flow through the GRU update and the attention aggregation
        of the *current* batch; state committed to the runtime is detached
        (TGN's standard truncation of backprop across batches).

        ``neg_dst`` (optional, shape ``(n_neg,)``) appends pure *query*
        embeddings for negative-sampled vertices, evaluated at the batch's
        edge times (cycled if ``n_neg != B``) against pre-insertion neighbor
        lists — the TGN link-prediction protocol.  Negative queries never
        touch vertex state.

        Equivalent to ``embed(batch, rt, graph, update_memory(batch, rt),
        neg_dst)`` — the two stages are exposed separately for distributed
        runtimes that must synchronize state between them.
        """
        return self.embed(batch, rt, graph, self.update_memory(batch, rt),
                          neg_dst)

    def embed(self, batch: EdgeBatch, rt: ModelRuntime,
              graph: TemporalGraph, update: MemoryUpdate,
              neg_dst: np.ndarray | None = None,
              gathered=None) -> BatchResult:
        """Stage 2 of :meth:`process_batch`: attention over temporal
        neighbors (pre-insertion table) + neighbor-table append.

        ``gathered`` optionally supplies the precomputed
        ``rt.sampler.gather(query_nodes, cfg.num_neighbors)`` result so a
        caller that already sampled the neighbors (the memsync replay's
        inter-stage sync needs the read-set first) does not pay the gather
        twice; it must cover exactly the batch's endpoint queries, so it
        cannot be combined with ``neg_dst``.
        """
        cfg = self.cfg
        nodes, t_nodes = update.nodes, update.t_nodes
        inverse, updated = update.inverse, update.updated
        query_nodes = nodes
        query_t = t_nodes
        self_feat = updated[inverse]
        if neg_dst is not None and len(neg_dst) > 0:
            if gathered is not None:
                raise ValueError("gathered covers only the endpoint "
                                 "queries; it cannot be used with neg_dst")
            neg = np.asarray(neg_dst, dtype=np.int64)
            neg_t = np.resize(batch.t, len(neg))
            query_nodes = np.concatenate([nodes, neg])
            query_t = np.concatenate([t_nodes, neg_t])
            self_feat = Tensor.concat(
                [self_feat, Tensor(rt.state.memory[neg])], axis=0)

        g = gathered if gathered is not None \
            else rt.sampler.gather(query_nodes, cfg.num_neighbors)
        dt_nbr = np.maximum(query_t[:, None] - g.times, 0.0)
        dt_nbr = np.where(g.mask, dt_nbr, 0.0)
        nbr_mem = rt.state.memory[g.nbrs]
        e_feat = graph.edge_feat[g.eids]
        e_feat = np.where(g.mask[:, :, None], e_feat, 0.0)

        nbr_feat = Tensor(nbr_mem)
        if self.node_proj is not None:
            self_feat = self_feat + self.node_proj(
                Tensor(graph.node_feat[query_nodes]))
            nbr_feat = nbr_feat + self.node_proj(Tensor(graph.node_feat[g.nbrs]))
        time_enc = self.time_encoder(dt_nbr)
        time_zero = self.time_encoder(np.zeros(len(query_nodes)))
        dt_scaled = dt_nbr * DT_SCALE
        attn = self.attention(query_feat=self_feat, nbr_feat=nbr_feat,
                              edge_feat=e_feat, time_enc=time_enc,
                              time_enc_zero=time_zero, mask=g.mask,
                              dt_scaled=dt_scaled)
        emb = self.out_transform(
            Tensor.concat([attn.hidden, self_feat], axis=-1)).relu()
        rt.sampler.insert_edges(batch.src, batch.dst, batch.eid, batch.t)
        return BatchResult(nodes=query_nodes, embeddings=emb, attention=attn,
                           dt_scaled=dt_scaled, num_edges=len(batch))

    # ------------------------------------------------------------------ #
    # deployment path (pure numpy, really-pruned gathers)                 #
    # ------------------------------------------------------------------ #
    def prepare_inference(self) -> None:
        """Pre-multiply the LUT table with the downstream weight slices.

        After this call, :meth:`infer_batch` replaces every time-feature
        matmul with a table lookup — the §III-C computation-order reversal —
        and multiplies by contiguous raw-feature weight slices packed here
        once instead of sliced per batch.  Call again after any parameter
        change.
        """
        self._premul_cache = None
        if not isinstance(self.time_encoder, LUTTimeEncoder):
            return
        d_t = self.cfg.time_dim
        cache = {"updt": self.time_encoder.premultiply(
                     self.memory_updater.input_time_weight()),
                 "updt_raw": self.memory_updater.input_raw_weight()}
        if isinstance(self.attention, SimplifiedTemporalAttention):
            w_v = self.attention.w_v.weight.data
            cache["attn_v"] = self.time_encoder.premultiply(w_v[:, -d_t:])
            cache["attn_raw"] = np.ascontiguousarray(w_v[:, :-d_t])
        self._premul_cache = cache

    def infer_batch(self, batch: EdgeBatch, rt: ModelRuntime,
                    graph: TemporalGraph,
                    timings: dict[str, float] | None = None) -> BatchResult:
        """Fast inference for one batch; optionally accumulates per-stage
        wall-clock seconds into ``timings`` under the Table I stage names
        (``sample`` / ``memory`` / ``gnn`` / ``update``)."""
        cfg = self.cfg
        tic = time.perf_counter

        # memory: mailbox consumption + GRU (Table I "memory" part).
        t0 = tic()
        nodes, t_nodes, inverse, updated = self._update_memory_np(batch, rt)
        t1 = tic()

        # sample: neighbor-table fetch (Table I "sample" part).
        g = rt.sampler.gather(nodes, cfg.num_neighbors)
        t2 = tic()

        # gnn: attention + transform (Table I "GNN" part).
        emb, attn_logits, sel = self._gnn_numpy(nodes, t_nodes, g, updated,
                                                inverse, rt, graph)
        t3 = tic()

        # update: neighbor-table append (memory/mail writes were already
        # committed inside the memory stage, mirroring Algorithm 1's order).
        rt.sampler.insert_edges(batch.src, batch.dst, batch.eid, batch.t)
        t4 = tic()

        if timings is not None:
            timings["memory"] = timings.get("memory", 0.0) + (t1 - t0)
            timings["sample"] = timings.get("sample", 0.0) + (t2 - t1)
            timings["gnn"] = timings.get("gnn", 0.0) + (t3 - t2)
            timings["update"] = timings.get("update", 0.0) + (t4 - t3)
        attn = AttentionOutput(hidden=Tensor(np.zeros((len(nodes), 0))),
                               logits=Tensor(attn_logits), mask=g.mask,
                               selected=sel)
        return BatchResult(nodes=nodes, embeddings=Tensor(emb),
                           attention=attn, dt_scaled=None)

    def _gru_lut_np(self, raw: np.ndarray, dt: np.ndarray,
                    memory: np.ndarray) -> np.ndarray:
        """Updater step where ``W[:, time] @ Phi(dt)`` is one LUT read."""
        cache = self._premul_cache
        return self.memory_updater.forward_numpy_premul(
            raw, self.time_encoder.bin_index(dt), cache["updt"],
            cache["updt_raw"], memory)

    def _gnn_numpy(self, nodes, t_nodes, g, updated, inverse, rt, graph):
        """Embedding computation with gather-then-compute pruning."""
        cfg = self.cfg
        dt_nbr = np.maximum(t_nodes[:, None] - g.times, 0.0)
        dt_nbr = np.where(g.mask, dt_nbr, 0.0)
        self_feat = updated[inverse]
        if self.node_proj is not None:
            self_feat = self_feat + (graph.node_feat[nodes]
                                     @ self.node_proj.weight.data.T
                                     + self.node_proj.bias.data)

        if isinstance(self.attention, SimplifiedTemporalAttention):
            attn = self.attention
            full_logits = attn.logits_numpy(dt_nbr * DT_SCALE)
            nbrs, eids, sel_dt, sel_logits = g.nbrs, g.eids, dt_nbr, full_logits
            selected = sel_mask = g.mask
            if cfg.pruning_budget is not None:
                # One top-k pass: `selected` is reported full-width, its
                # compact form drives the gathers.
                selected = top_k_mask(full_logits, g.mask, cfg.pruning_budget)
                idx, sel_mask = compact_selection(selected,
                                                  cfg.pruning_budget)
                rows = np.arange(len(nodes))[:, None]
                nbrs, eids = nbrs[rows, idx], eids[rows, idx]
                sel_dt, sel_logits = dt_nbr[rows, idx], full_logits[rows, idx]
            alpha = _masked_softmax_np(sel_logits, sel_mask)
            nbr_feat = rt.state.memory[nbrs]
            if self.node_proj is not None:
                nbr_feat = nbr_feat + (graph.node_feat[nbrs]
                                       @ self.node_proj.weight.data.T
                                       + self.node_proj.bias.data)
            # One gathered (n, p, .) block alive at a time: each is summed
            # to (n, .) and freed before the next is fetched, so the stage's
            # peak temporary is one block, not three (at k = 10 the
            # allocator otherwise trims and re-faults ~12 MB per batch).
            nbr = attn.aggregate_numpy(alpha, nbr_feat)
            del nbr_feat
            edge = attn.aggregate_numpy(alpha, graph.edge_feat[eids])
            # After prepare_inference the time term needs no matmul: it is
            # the premultiplied LUT row, already in value space.
            cache = self._premul_cache or {}
            if "attn_v" in cache:
                time_feat = cache["attn_v"][self.time_encoder.bin_index(sel_dt)]
            else:
                time_feat = self.time_encoder.encode_numpy(sel_dt)
            hidden = attn.forward_numpy(
                alpha, nbr, edge, attn.aggregate_numpy(alpha, time_feat),
                w_raw=cache.get("attn_raw"))
        else:
            nbr_feat = rt.state.memory[g.nbrs]
            if self.node_proj is not None:
                nbr_feat = nbr_feat + (graph.node_feat[g.nbrs]
                                       @ self.node_proj.weight.data.T
                                       + self.node_proj.bias.data)
            e_feat = np.where(g.mask[:, :, None], graph.edge_feat[g.eids], 0.0)
            time_enc = self.time_encoder.encode_numpy(dt_nbr)
            time_zero = self.time_encoder.encode_numpy(np.zeros(len(nodes)))
            hidden, full_logits = self.attention.forward_numpy(
                self_feat, nbr_feat, e_feat, time_enc, time_zero, g.mask)
            selected = g.mask

        out = np.concatenate([hidden, self_feat], axis=1)
        emb = out @ self.out_transform.weight.data.T + self.out_transform.bias.data
        np.maximum(emb, 0.0, out=emb)
        return emb, full_logits, selected
