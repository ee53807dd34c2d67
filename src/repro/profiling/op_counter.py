"""Closed-form MAC / MEM accounting for memory-based TGNN inference.

Reproduces the complexity columns of Tables I and II.  Counts are **per
dynamic node embedding** (one endpoint of one new edge) and are split into
the paper's four parts: ``sample``, ``memory``, ``gnn``, ``update``.

The counts follow the paper's bookkeeping, which is coarser than a
physical count; it is reverse-engineered from the table deltas so the
ladder reproduces the published numbers almost exactly:

- the GRU is counted as **one** pass over the stacked input weights
  (``msg_dim * mem_dim``) plus ``12 * mem_dim`` element-wise work.  This is
  confirmed by Wikipedia vs. GDELT: ``(472 vs 500) x 100 + 1.2k`` gives
  exactly the published 48.4 / 51.2 kMAC;
- the LUT saving is ``time_dim * mem_dim + time_dim`` in the GRU (10.1 kMAC
  for both datasets — matches) and ``time_dim * embed_dim`` per neighbor in
  the GNN;
- K and V are counted separately per neighbor, queries once per embedding;
  the simplified attention applies ``W_v`` to every neighbor, as Tables I /
  II do, although the Embedding Unit (:mod:`repro.hw.eu`) and the model
  body aggregate the alpha-weighted raw vectors first and apply ``W_v``
  once per node.

MEM counts external-memory words touched per embedding (on-chip parameters
are free, per the paper's stated assumption).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..models.config import ModelConfig

__all__ = ["OpCounts", "count_ops", "count_ops_apan", "PARTS"]

PARTS = ("sample", "memory", "gnn", "update")


@dataclass(frozen=True)
class OpCounts:
    """Per-embedding operation counts, split by pipeline part."""

    macs: dict[str, float]   # part -> multiply-accumulate count
    mems: dict[str, float]   # part -> external-memory words touched

    @property
    def total_macs(self) -> float:
        return float(sum(self.macs.values()))

    @property
    def total_mems(self) -> float:
        return float(sum(self.mems.values()))

    @property
    def gru_macs(self) -> float:
        """Table II #(GRU) column (the memory part's compute)."""
        return self.macs["memory"]

    @property
    def gnn_macs(self) -> float:
        """Table II #(GNN) column."""
        return self.macs["gnn"]


def count_ops(cfg: ModelConfig) -> OpCounts:
    """Operation counts per dynamic node embedding for ``cfg``.

    The co-design flags drive the reductions:

    - ``simplified_attention`` removes queries, keys, and attention dot
      products, leaving only values (plus the tiny ``k x k`` logit map);
    - ``lut_time_encoder`` removes every ``time_dim``-wide product (the
      pre-multiplication of §III-C) and the encoder's own evaluations;
    - ``pruning_budget`` scales every per-neighbor term (value compute,
      neighbor fetches) from ``k`` down to the budget.  Logit computation
      and the timestamp fetch still cover all ``k`` sampled slots — the
      pruning decision needs them.
    """
    m, tau, e = cfg.memory_dim, cfg.time_dim, cfg.embed_dim
    ef, nf, k = cfg.edge_dim, cfg.node_dim, cfg.num_neighbors
    keff = cfg.effective_neighbors
    msg = cfg.raw_message_dim + nf + tau  # GRU input width (features ride along)
    lut = cfg.lut_time_encoder
    kv_in = m + ef + tau                  # K/V input width per neighbor

    macs: dict[str, float] = {p: 0.0 for p in PARTS}
    mems: dict[str, float] = {p: 0.0 for p in PARTS}

    # ---- memory part: UPDT (+ time encoder) ----------------------------- #
    gru = msg * m + 12 * m
    if lut:
        gru -= tau * m + tau              # pre-multiplied + no cos products
    macs["memory"] = float(gru)

    # ---- gnn part: temporal attention aggregator ------------------------ #
    enc_cost = 0.0 if lut else float(tau)   # per Phi() evaluation
    out_transform = (e + m) * e
    node_fusion = 0.0
    if nf > 0:
        # f' = s + W_s f for the query and each fetched neighbor.
        node_fusion = (1 + keff) * nf * m
    if cfg.simplified_attention:
        feat = kv_in - (tau if lut else 0)
        gnn = (
            keff * feat * e + keff * e                   # values + weighted sum
            + k * k                                      # W_t logit map
            + keff * enc_cost                            # Phi per used nbr
            + out_transform + node_fusion
        )
    else:
        q_in = m + tau
        gnn = (
            (q_in - (tau if lut else 0)) * e             # query
            + k * (2 * ((kv_in - (tau if lut else 0)) * e))   # keys + values
            + 2 * k * e                                  # dots + weighted sum
            + (k + 1) * enc_cost                         # Phi per nbr + query
            + out_transform + node_fusion
        )
    macs["gnn"] = float(gnn)

    # ---- MEM accounting -------------------------------------------------- #
    # sample: neighbor-table row (id, edge id, timestamp per slot).  The
    # full k slots are always read — pruning decides *afterwards*.
    mems["sample"] = float(3 * k)
    # memory: own mail + own memory, plus mail + memory of the fetched
    # neighbors (their state must be current before aggregation).  Feature
    # words (edge or node) are already part of the mail payload.
    per_nbr_words = (msg - tau) + m
    mems["memory"] = float((msg - tau) + m + keff * per_nbr_words)
    # gnn: zero — operands were prefetched by the memory stage (Table I
    # reports 0 MEMs for the GNN part).
    mems["gnn"] = 0.0
    # update: write back own mail + memory + the neighbor-table append.
    mems["update"] = float((msg - tau) + m + 2 * 3)
    return OpCounts(macs=macs, mems=mems)


def count_ops_apan(cfg: ModelConfig, mailbox_size: int = 10) -> OpCounts:
    """Operation counts for the APAN baseline's *latency-critical* path.

    Only the query path counts toward latency (mailbox attention + output
    transform); state update and message delivery are asynchronous.  MEMs
    cover reading the vertex's own state and mailbox — no neighbor fetches,
    which is APAN's entire point.
    """
    m, tau, e = cfg.memory_dim, cfg.time_dim, cfg.embed_dim
    ef, nf = cfg.edge_dim, cfg.node_dim
    K = mailbox_size
    mail_dim = m + ef
    kv_in = mail_dim + tau
    macs = {p: 0.0 for p in PARTS}
    mems = {p: 0.0 for p in PARTS}
    q_in = m + tau
    macs["gnn"] = float(
        q_in * e + K * (2 * kv_in * e) + 2 * K * e + (K + 1) * tau
        + (e + m) * e + (nf * m if nf else 0))
    mems["memory"] = float(m + K * (mail_dim + 1))
    mems["update"] = 0.0   # async, off the latency path
    return OpCounts(macs=macs, mems=mems)
