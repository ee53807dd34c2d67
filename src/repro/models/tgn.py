"""Memory-based TGNN (TGN-attn) and its co-designed variants.

One class implements the whole Table II ladder: the :class:`ModelConfig`
flags select vanilla vs. simplified attention, cosine vs. LUT time encoder,
and the pruning budget.  The model follows the paper's Algorithm 1 exactly:

    1. update vertex memory from cached messages         (UPDT / MUU)
    2. refresh cached messages with the new signals      (mailbox)
    3. compute output embeddings via temporal attention  (GNN / EU)
    4. append the new edges to the neighbor table        (FIFO sampler)

There is one model body.  :meth:`TGNN.process_batch` is
:meth:`~TGNN.update_memory` then :meth:`~TGNN.embed`, differentiable, for
training and distillation; :meth:`TGNN.infer_batch` is the same four steps
under ``no_grad`` with the Table I stage clock around them.  The body runs
in the deployed order whoever calls it: the updater runs on the rows that
have mail only, and the simplified-attention GNN stage decides top-k from
the Δt logits first, gathers the selected neighbors only, sums the
alpha-weighted raw neighbor vectors (FAM) and applies ``W_v`` once per node
(FTM) — the accelerator's order (§IV-B), exact because the value map is
affine and Eq. (16)'s ``alpha`` depends on Δt only.

The one thing ``infer_batch`` adds is the ``prepare_inference`` tables: it
alone reads them and hands them down as ``premul=``, which turns every
time-feature matmul into a LUT read (§III-C).  ``process_batch`` never sees
them, so a prepared model (what :func:`~repro.models.checkpoint.load_model`
returns) still trains every parameter.  The numpy deployment body this
replaced is the oracle of ``tests/property/test_gnn_kernel_properties.py``;
the hardware simulator runs no kernel — it prices batches from their shape.

A prepared model is a float32 deployment, the word the accelerator computes
in and ``hw/`` prices (§VI-A).  ``infer_batch`` computes at the precision of
the runtime it is handed: on a float32 runtime — what
:meth:`TGNN.new_runtime` builds for a prepared model — it runs under
``no_grad(float32)`` with the float32 copies of the tables and of the
weights it multiplies by, which ``prepare_inference`` casts once; on a
float64 runtime it is the float64 body with the float64 tables.
Parameters stay float64 and trainable, and training, evaluation and every
other ``process_batch`` caller run on float64 runtimes.  Timestamps stay
float64 at either precision.

Worker-pool contract (measured serving backends)
------------------------------------------------
:class:`TGNN`, :class:`ModelRuntime`, and the graph are **picklable**, and
:meth:`infer_batch` is stateless apart from the runtime it is handed (on
a float32 runtime the parameters hold their float32 copies for the length
of the call and get their own data back on return) — parameters
(including the ``prepare_inference`` premultiplied LUT cache and its
float32 copies) and a float32 runtime's tables are plain numpy arrays with
no open handles, closures, or clocks, so a float32 runtime pickles as a
float64 one does.  The measured serving path
(:mod:`repro.serving.measured`) relies on this: each worker process
receives ``(model, graph)`` once, builds its own runtime via
:meth:`TGNN.new_runtime`, and replays its shard's sub-batches FIFO
through :meth:`infer_batch`.  Changes that break picklability (e.g.
caching a lambda on the model) break `serve-sim --backend measured
--workers N`; ``test_measured`` pins the contract.  :data:`KERNEL_STAGES`
names the Table I stage keys ``infer_batch`` reports via ``timings``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from ..autograd import Tensor, no_grad
from ..autograd.module import Linear, Module
from ..graph.neighbor_table import NeighborTable
from ..graph.state import VertexState, last_occurrence
from ..graph.temporal_graph import EdgeBatch, TemporalGraph
from ..autograd import functional as F
from .attention import (DT_SCALE, AttentionOutput, SimplifiedTemporalAttention,
                        VanillaTemporalAttention)
from .config import ModelConfig
from .memory_updater import GRUMemoryUpdater
from .message import raw_messages
from .pruning import prune
from .time_encoding import CosineTimeEncoder, LUTTimeEncoder

__all__ = ["TGNN", "ModelRuntime", "BatchResult", "MemoryUpdate",
           "KERNEL_STAGES", "DEPLOY_DTYPE"]

# Table I stage keys of the deployment path, in pipeline order: the
# ``timings`` dict of :meth:`TGNN.infer_batch` uses exactly these, and the
# measured serving backend's per-stage report aggregates under them.
KERNEL_STAGES = ("memory", "sample", "gnn", "update")

# The precision of a prepared model's runtime and of the copies it computes
# with: IEEE float32, as on the accelerator (``hw.config`` prices 4-byte
# words).
DEPLOY_DTYPE = np.float32


def _assemble_endpoints(batch: EdgeBatch) -> tuple[np.ndarray, np.ndarray,
                                                   np.ndarray, np.ndarray]:
    """Per-batch endpoint assembly of the memory stage.

    Returns ``(nodes, t_nodes, uniq, inverse)``: the interleaved endpoint
    ids, each endpoint's edge timestamp (every edge contributes its ``t``
    twice — once per endpoint), and the unique-vertex table with the
    inverse map back to endpoint rows.
    """
    nodes = batch.nodes
    t_nodes = np.repeat(batch.t, 2)
    uniq, inverse = np.unique(nodes, return_inverse=True)
    return nodes, t_nodes, uniq, inverse


@contextmanager
def _holding(weights):
    """Point each ``(parameter, array)`` pair's parameter at ``array`` for
    the duration; every parameter gets its own data back on exit.

    The float32 deployment runs the one model body, which reads its
    weights off the modules: for the length of an ``infer_batch`` call the
    parameters hold the float32 copies ``prepare_inference`` cast, instead
    of being cast again on every use."""
    saved = [(p, p.data) for p, _ in weights]
    try:
        for p, array in weights:
            p.data = array
        yield
    finally:
        for p, data in saved:
            p.data = data


@dataclass
class ModelRuntime:
    """Mutable per-stream state: vertex tables + neighbor FIFO.

    ``neighbors`` is the temporal sampler itself: the paper replaces TGN's
    sampler with an on-chip FIFO (§III), and the runtime holds that FIFO,
    a :class:`~repro.graph.neighbor_table.NeighborTable` of ``mr =
    num_neighbors`` slots per vertex, read by address with no search.
    Forking a runtime (``snapshot``/``restore``) lets evaluation continue
    from the training boundary without corrupting the training state.
    ``edge_feat`` is the graph's edge-feature table at the state's dtype
    (the graph's own array at float64, one cast copy at float32), the rows
    the attention gathers.
    """

    state: VertexState
    neighbors: NeighborTable
    edge_feat: np.ndarray

    def snapshot(self) -> dict:
        return {"state": self.state.snapshot(),
                "nbr": self.neighbors.snapshot()}

    def restore(self, snap: dict) -> None:
        self.state.restore(snap["state"])
        self.neighbors.restore(snap["nbr"])

    def reset(self) -> None:
        self.state.reset()
        self.neighbors.reset()


@dataclass
class BatchResult:
    """Output of one processed batch (2 embeddings per edge, interleaved).

    When negative-sample queries were requested, their embeddings occupy the
    trailing rows of ``embeddings`` (``nodes`` includes them too).
    """

    nodes: np.ndarray          # (2B [+n_neg],) vertex ids: src0, dst0, ...
    embeddings: Tensor         # (2B [+n_neg], embed_dim)
    attention: AttentionOutput | None = None
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
        # (tables or None, [(parameter, array)]) at DEPLOY_DTYPE once
        # prepared.
        self._deployed: tuple[dict | None, list] | None = None

    # ------------------------------------------------------------------ #
    # runtime management                                                  #
    # ------------------------------------------------------------------ #
    @property
    def prepared(self) -> bool:
        """Whether the model is deployed: :meth:`prepare_inference` has run
        and nothing has dropped its tables since."""
        return self._deployed is not None

    def new_runtime(self, graph: TemporalGraph, dtype=None) -> ModelRuntime:
        """Fresh zeroed vertex state + FIFO neighbor table for ``graph``.

        The FIFO holds ``mr = num_neighbors`` entries per vertex, exactly
        what the attention reads.  Memory, mailbox and the gathered edge
        features are ``dtype``: by default :data:`DEPLOY_DTYPE` on a
        prepared model (the deployment) and float64 otherwise.  Training
        and evaluation ask for float64 explicitly, so a prepared model
        trains as any other.  A graph whose edge or node feature width
        is not the model's raises ``ValueError``.
        """
        widths = (self.cfg.edge_dim, self.cfg.node_dim)
        if widths != (graph.edge_dim, graph.node_dim):
            raise ValueError(
                f"the model takes edge_dim={widths[0]}, node_dim="
                f"{widths[1]} but the graph has edge_dim={graph.edge_dim}, "
                f"node_dim={graph.node_dim}")
        if dtype is None:
            dtype = DEPLOY_DTYPE if self.prepared else np.float64
        state = VertexState(graph.num_nodes, self.cfg.memory_dim,
                            self.cfg.raw_message_dim, dtype=dtype)
        neighbors = NeighborTable(graph.num_nodes, self.cfg.num_neighbors)
        return ModelRuntime(state=state, neighbors=neighbors,
                            edge_feat=graph.edge_feat.astype(dtype,
                                                             copy=False))

    def calibrate(self, graph: TemporalGraph) -> None:
        """Fit LUT bin edges (and warm-start entries) from stream Δt stats.

        No-op for the cosine encoder.  Must run before training a LUT model.
        """
        if isinstance(self.time_encoder, LUTTimeEncoder):
            from ..datasets.stats import encoder_input_deltas
            deltas = encoder_input_deltas(graph)
            ref = CosineTimeEncoder(self.cfg.time_dim)
            self.time_encoder.calibrate(deltas, reference=ref)
            self.drop_inference()

    # ------------------------------------------------------------------ #
    # Algorithm 1: memory stage, then GNN stage                           #
    # ------------------------------------------------------------------ #
    def update_memory(self, batch: EdgeBatch, rt: ModelRuntime,
                      premul: dict | None = None) -> MemoryUpdate:
        """Stage 1 of :meth:`process_batch` (Algorithm 1 lines 3-8): memory
        update + mail refresh.

        Consumes each endpoint's cached message — the updater runs on the
        rows that have mail, the others keep their memory — commits the
        updated rows (detached) and the batch's new raw messages to ``rt``,
        and returns the stage-1 results stage 2 (:meth:`embed`) needs.
        Exposed separately so distributed runtimes can forward the
        freshly-written rows between the two stages
        (:mod:`repro.serving.memsync`).  ``premul`` is
        :meth:`infer_batch`'s hand-down of the ``prepare_inference`` tables.
        """
        nodes, t_nodes, uniq, inverse = _assemble_endpoints(batch)
        state = rt.state
        mail_t = state.mail_time[uniq]
        has_mail = mail_t > -np.inf
        updated = Tensor(state.memory[uniq])
        if has_mail.any():
            # The mailbox, the wide table, is read once, for the rows the
            # updater runs on.
            idx = np.nonzero(has_mail)[0]
            rows, mail_t = uniq[idx], mail_t[idx]
            dt = np.maximum(mail_t - state.last_update[rows], 0.0)
            new = self.memory_updater(state.mailbox[rows], dt,
                                      updated.data[idx], premul)
            # Commit detached state before the GNN reads neighbor memory.
            state.write_memory(rows, new.data, mail_t)
            # Row i of `updated` is row (mail rows up to i) - 1 of `new`.
            updated = Tensor.where(has_mail[:, None],
                                   new[np.cumsum(has_mail) - 1], updated)
        # Refresh cached messages as the Updater does (§IV-B): of a vertex's
        # endpoint rows only the last one survives the batch, so only those
        # rows are built.  Endpoint row r belongs to edge r >> 1 and faces
        # row r ^ 1.
        keep = np.nonzero(last_occurrence(nodes))[0]
        mem = updated.data
        state.write_mail(nodes[keep],
                         raw_messages(mem[inverse[keep]],
                                      mem[inverse[keep ^ 1]],
                                      batch.edge_feat[keep >> 1]),
                         t_nodes[keep])
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
              neg_dst: np.ndarray | None = None) -> BatchResult:
        """Stage 2 of :meth:`process_batch`: attention over temporal
        neighbors (the FIFO read before this batch's edges go in) +
        neighbor-table append.

        The read is ``rt.neighbors.gather`` of every query vertex at ``k =
        num_neighbors``; the table changes only at the append, so a caller
        that read the same rows between the stages (the memsync replay
        needs the read set first) gets the same rows here.
        """
        nodes, t = update.nodes, update.t_nodes
        memory = update.updated[update.inverse]
        if neg_dst is not None and len(neg_dst) > 0:
            neg = np.asarray(neg_dst, dtype=np.int64)
            nodes = np.concatenate([nodes, neg])
            t = np.concatenate([t, np.resize(batch.t, len(neg))])
            memory = Tensor.concat([memory, Tensor(rt.state.memory[neg])],
                                   axis=0)
        g = rt.neighbors.gather(nodes, self.cfg.num_neighbors)
        result = self._gnn_stage(nodes, t, memory, g, rt, graph)
        rt.neighbors.insert_edges(batch.src, batch.dst, batch.eid, batch.t)
        result.num_edges = len(batch)
        return result

    def _features(self, nodes: np.ndarray, rt: ModelRuntime,
                  graph: TemporalGraph, memory: Tensor | None = None) -> Tensor:
        """``f'_i = s_i (+ W_s f_i)`` for ``nodes`` of any shape: committed
        memory rows unless ``memory`` supplies them (the batch's own,
        differentiable), plus the projected static node features."""
        feat = Tensor(rt.state.memory[nodes]) if memory is None else memory
        if self.node_proj is not None:
            feat = feat + self.node_proj(Tensor(graph.node_feat[nodes]))
        return feat

    def _gnn_stage(self, nodes: np.ndarray, t: np.ndarray, memory: Tensor,
                   g, rt: ModelRuntime, graph: TemporalGraph,
                   premul: dict | None = None) -> BatchResult:
        """Embeddings of the ``(nodes, t)`` queries whose own memory rows are
        ``memory``: one attention layer over their gathered neighbors
        ``g``, then the output transform."""
        self_feat = self._features(nodes, rt, graph, memory)
        attn, edge_feat = self.attention, rt.edge_feat
        dt = np.where(g.mask, np.maximum(t[:, None] - g.times, 0.0), 0.0)
        if isinstance(attn, VanillaTemporalAttention):
            e_feat = np.where(g.mask[:, :, None], edge_feat[g.eids], 0.0)
            out = attn(self_feat, self._features(g.nbrs, rt, graph), e_feat,
                       self.time_encoder(dt),
                       self.time_encoder(np.zeros(len(t))), g.mask)
        else:
            # Eq. (16): which neighbors matter is known from Δt alone,
            # before any of their state is fetched (§III-B pruning, §IV-C
            # prefetch).
            logits = attn.logits_from_dt(dt * DT_SCALE)
            nbrs, eids, sel_logits = g.nbrs, g.eids, logits
            selected = sel_mask = g.mask
            budget = self.cfg.pruning_budget
            if budget is not None:
                # One top-k pass: `selected` is reported full-width, its
                # compact form drives the gathers.
                selected, idx, sel_mask = prune(logits.data, g.mask, budget)
                rows = np.arange(len(t))[:, None]
                nbrs, eids = nbrs[rows, idx], eids[rows, idx]
                dt, sel_logits = dt[rows, idx], logits[rows, idx]
            alpha = F.masked_softmax(sel_logits, sel_mask)
            # One gathered (n, p, .) block alive at a time: under `no_grad`
            # each is summed to (n, .) and freed before the next is
            # fetched, so the stage's peak temporary is one block, not
            # three (at k = 10 the allocator otherwise trims and re-faults
            # ~12 MB per batch).
            nbr = attn.aggregate(alpha, self._features(nbrs, rt, graph))
            edge = attn.aggregate(alpha, Tensor(edge_feat[eids]))
            # After prepare_inference the time term needs no matmul: it is
            # the premultiplied LUT row, already in value space.
            time_feat = self.time_encoder(dt) if premul is None \
                else Tensor(premul["attn_v"][self.time_encoder.bin_index(dt)])
            hidden = attn.transform(alpha, nbr, edge,
                                    attn.aggregate(alpha, time_feat), premul)
            out = AttentionOutput(hidden=hidden, logits=logits, mask=g.mask,
                                  selected=selected)
        emb = self.out_transform(
            Tensor.concat([out.hidden, self_feat], axis=-1)).relu()
        return BatchResult(nodes=nodes, embeddings=emb, attention=out)

    # ------------------------------------------------------------------ #
    # deployment: the same body under no_grad, clocked per stage          #
    # ------------------------------------------------------------------ #
    def prepare_inference(self) -> None:
        """Deploy the model: pre-multiply the LUT table with the downstream
        weight slices, and cast what ``infer_batch`` reads to float32.

        After this call, :meth:`infer_batch` replaces every time-feature
        matmul with a table lookup — the §III-C computation-order reversal —
        and multiplies by contiguous raw-feature weight slices packed here
        once instead of sliced per batch.  The float64 tables serve a
        float64 runtime; their :data:`DEPLOY_DTYPE` copies, with copies of
        every parameter the tables do not replace, serve the runtimes
        :meth:`new_runtime` now builds.  Call again after any parameter
        change.  Nothing but ``infer_batch`` reads the tables.
        """
        self._premul_cache = None
        replaced = []
        if isinstance(self.time_encoder, LUTTimeEncoder):
            d_t = self.cfg.time_dim
            cache = {"updt": self.time_encoder.premultiply(
                         self.memory_updater.input_time_weight()),
                     "updt_raw": self.memory_updater.input_raw_weight()}
            replaced.append(self.memory_updater.gru.weight_ih)
            if isinstance(self.attention, SimplifiedTemporalAttention):
                w_v = self.attention.w_v.weight.data
                cache["attn_v"] = self.time_encoder.premultiply(w_v[:, -d_t:])
                cache["attn_raw"] = np.ascontiguousarray(w_v[:, :-d_t])
                replaced += [self.attention.w_v.weight,
                             self.time_encoder.table]
            self._premul_cache = cache
        tables = None if self._premul_cache is None else \
            {name: table.astype(DEPLOY_DTYPE)
             for name, table in self._premul_cache.items()}
        weights = [(p, p.data.astype(DEPLOY_DTYPE))
                   for p in self.parameters()
                   if not any(p is r for r in replaced)]
        self._deployed = tables, weights

    def drop_inference(self) -> None:
        """Forget what :meth:`prepare_inference` built: new runtimes are
        float64 again and ``infer_batch`` runs without tables."""
        self._premul_cache = self._deployed = None

    def infer_batch(self, batch: EdgeBatch, rt: ModelRuntime,
                    graph: TemporalGraph,
                    timings: dict[str, float] | None = None) -> BatchResult:
        """Inference for one batch: :meth:`process_batch` under ``no_grad``
        with the ``prepare_inference`` tables, at the precision of ``rt``
        (a :data:`DEPLOY_DTYPE` runtime of a prepared model computes with
        the float32 tables and weights); optionally accumulates per-stage
        wall-clock seconds into ``timings`` under the Table I stage names
        (:data:`KERNEL_STAGES`)."""
        dtype = rt.state.memory.dtype
        premul, weights = (self._premul_cache, ()) \
            if self._deployed is None or dtype != DEPLOY_DTYPE \
            else self._deployed
        tic = time.perf_counter
        with no_grad(dtype), _holding(weights):
            # memory: mailbox consumption + GRU (Table I "memory" part).
            t0 = tic()
            update = self.update_memory(batch, rt, premul)
            t1 = tic()
            # sample: neighbor-table fetch (Table I "sample" part).
            g = rt.neighbors.gather(update.nodes, self.cfg.num_neighbors)
            t2 = tic()
            # gnn: attention + transform (Table I "GNN" part).
            result = self._gnn_stage(update.nodes, update.t_nodes,
                                     update.updated[update.inverse], g, rt,
                                     graph, premul)
            t3 = tic()
            # update: neighbor-table append (memory/mail writes were
            # committed inside the memory stage, as in Algorithm 1).
            rt.neighbors.insert_edges(batch.src, batch.dst, batch.eid, batch.t)
            t4 = tic()
        if timings is not None:
            for stage, seconds in zip(KERNEL_STAGES,
                                      (t1 - t0, t2 - t1, t3 - t2, t4 - t3)):
                timings[stage] = timings.get(stage, 0.0) + seconds
        return result
