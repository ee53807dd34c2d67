"""Multi-layer temporal attention TGNN (the TGN framework's L-layer GNN).

The paper optimises the 1-layer TGN-attn variant ("highest accuracy to
complexity ratio"), but the framework it builds on supports L layers: the
layer-``l`` representation of vertex ``v`` at query time ``t`` aggregates
the layer-``l-1`` representations of its temporal neighbors, evaluated at
the same query time:

    h^0_v(t)  = s_v (+ W_s f_v)
    h^l_v(t)  = transform_l( attn_l({h^{l-1}_u(t), e_uv, Phi(t - t_uv)}),
                             h^{l-1}_v(t) )

Each layer owns its attention and transform parameters (as in TGN).
:class:`MultiLayerTGNN` is a :class:`~repro.models.tgn.TGNN` that overrides
the GNN stage alone: layer 1 *is* the parent's ``attention`` /
``out_transform`` (so one layer is exactly ``TGNN``, parameter names
included), layers above add ``attn{i}`` / ``transform{i}``, and the memory
stage, runtime, calibration, ``prepare_inference`` and the clocked
``infer_batch`` are inherited.  Neighbor fan-out is ``k^L`` (``p^L`` under a
pruning budget), which is exactly the exponential-cost argument the paper
makes for staying at one layer — this class exists to quantify that
trade-off (see the layer-count ablation test) and to extend the
reproduction beyond the paper's operating point.

The hardware simulator intentionally rejects multi-layer models: the
published accelerator is single-layer.
"""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor
from ..autograd.module import Linear
from ..graph.temporal_graph import TemporalGraph
from .config import ModelConfig
from .tgn import BatchResult, ModelRuntime, TGNN

__all__ = ["MultiLayerTGNN"]


class MultiLayerTGNN(TGNN):
    """L-layer memory-based TGNN: :class:`TGNN` with a recursive GNN stage."""

    def __init__(self, cfg: ModelConfig, num_layers: int = 2,
                 rng: np.random.Generator | None = None):
        if num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        # Layer inputs are memory_dim wide for l=1 and embed_dim wide above,
        # so we require the two dims equal (TGN's default configuration) to
        # keep kv widths uniform.
        if cfg.embed_dim != cfg.memory_dim:
            raise ValueError("multi-layer model requires "
                             "embed_dim == memory_dim")
        super().__init__(cfg, rng=rng)
        self.num_layers = num_layers
        self.layers = [(self.attention, self.out_transform)]
        for i in range(1, num_layers):
            attn = type(self.attention)(cfg, rng=rng)
            transform = Linear(cfg.embed_dim + cfg.memory_dim,
                               cfg.embed_dim, rng=rng)
            setattr(self, f"attn{i}", attn)
            setattr(self, f"transform{i}", transform)
            self.layers.append((attn, transform))

    def _gnn_stage(self, nodes: np.ndarray, t: np.ndarray, memory: Tensor,
                   g, rt: ModelRuntime, graph: TemporalGraph,
                   premul: dict | None = None) -> BatchResult:
        emb, attn = self._embed(self.num_layers, nodes, t, memory, g, rt,
                                graph, premul)
        return BatchResult(nodes=nodes, embeddings=emb, attention=attn)

    def _embed(self, layer: int, nodes: np.ndarray, t: np.ndarray,
               memory: Tensor | None, g, rt: ModelRuntime,
               graph: TemporalGraph, premul: dict | None):
        """``(h^layer, its AttentionOutput)`` for the ``(nodes, t)`` queries;
        ``g`` is their gather (every layer of one query set shares it).
        The ``prepare_inference`` tables fold layer 1's weights only."""
        if layer == 0:
            return self._features(nodes, rt, graph, memory), None
        self_repr, _ = self._embed(layer - 1, nodes, t, memory, g, rt, graph,
                                   premul)

        def nbr_repr(nbrs: np.ndarray) -> Tensor:
            if layer == 1:
                return self._features(nbrs, rt, graph)
            # Recurse: neighbor representations at the SAME query times.
            flat = nbrs.reshape(-1)
            h, _ = self._embed(
                layer - 1, flat, np.repeat(t, nbrs.shape[1]), None,
                rt.sampler.gather(flat, self.cfg.num_neighbors), rt, graph,
                premul)
            return h.reshape(*nbrs.shape, self.cfg.embed_dim)

        attn, transform = self.layers[layer - 1]
        out = self._attend(attn, t, self_repr, g, graph, nbr_repr,
                           premul if layer == 1 else None)
        return transform(Tensor.concat([out.hidden, self_repr],
                                       axis=-1)).relu(), out
