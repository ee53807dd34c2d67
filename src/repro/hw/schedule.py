"""The Fig. 4 schedule as data: one pipeline table, one transfer inventory.

:data:`PIPELINE` lists the stages of one processing batch in issue order;
each row names the track the stage occupies and the stages it waits for.
:func:`transfers` lists the external-memory traffic of the same batch
(Fig. 4 ops 1-5).  The cycle simulator walks the table and prices the
inventory with the DDR model, the §V performance model prices the same
inventory at ``alpha(l) * BW`` and takes its depth ``beta`` from the table,
and the trace renderer takes its row order from it.

Tracks.  The DDR controller reorders reads ahead of pending writes, so the
read path (edge/vertex loads, prefetch) and the write-back path are two
serial tracks; every compute stage is its own hardware and so its own
track, which makes the chained rows the classic pipeline recurrence
``finish[b][s] = max(finish[b][s-1], finish[b-1][s]) + dur[b][s]``.
"""

from __future__ import annotations

from typing import NamedTuple

from ..models.config import ModelConfig
from .config import HardwareConfig
from .eu import EmbeddingUnit
from .muu import MemoryUpdateUnit

__all__ = ["PIPELINE", "MEM_STAGES", "Stage", "Transfer", "pipeline",
           "stage_plan", "transfers", "compute_cycles"]

READ, WRITE, COMPUTE = "read", "write", "compute"


class Stage(NamedTuple):
    stage: str
    track: str                      # READ | WRITE | COMPUTE (the stage's own)
    waits_for: tuple[str, ...]      # none: the user batch's arrival


PIPELINE = (
    Stage("load_edges", READ, ()),
    Stage("load_vertex", READ, ("load_edges",)),
    # The MUU chain and the EU front end run in parallel off the loaded rows.
    Stage("muu_time_enc", COMPUTE, ("load_vertex",)),
    Stage("muu_update_gate", COMPUTE, ("muu_time_enc",)),
    Stage("muu_reset_gate", COMPUTE, ("muu_update_gate",)),
    Stage("muu_memory_gate", COMPUTE, ("muu_reset_gate",)),
    Stage("muu_merge_gate", COMPUTE, ("muu_memory_gate",)),
    # Eq. (16): attention needs only the neighbor timestamps, already on
    # chip after load_vertex ...
    Stage("eu_attention", COMPUTE, ("load_vertex",)),
    Stage("eu_time_enc", COMPUTE, ("eu_attention",)),
    # ... so its logits release the neighbor prefetch while the GRU gates
    # are still busy (the §IV-C edge).
    Stage("prefetch", READ, ("eu_attention",)),
    # FAM needs the prefetched neighbor state; FTM additionally needs the
    # self memory updated by the MUU.
    Stage("eu_fam", COMPUTE, ("eu_time_enc", "prefetch")),
    Stage("eu_ftm", COMPUTE, ("eu_fam", "muu_merge_gate")),
    # Updater commit + write-back.
    Stage("store", WRITE, ("eu_ftm",)),
)

MEM_STAGES = tuple(s.stage for s in PIPELINE if s.track != COMPUTE)


def pipeline(prefetch: bool) -> tuple[Stage, ...]:
    """The table a design runs: ``hw.prefetch=False`` swaps the §IV-C edge.

    Without prefetching (ablation / vanilla-style attention) the neighbor
    fetch is released only once the MUU has fully committed the batch.
    """
    if prefetch:
        return PIPELINE
    return tuple(s._replace(waits_for=("muu_merge_gate",))
                 if s.stage == "prefetch" else s for s in PIPELINE)


def stage_plan(table: tuple[Stage, ...]
               ) -> tuple[tuple[str, int, tuple[int, ...]], ...]:
    """``table`` with names resolved: ``(stage, clock, waited-for rows)``.

    Clocks 0 and 1 are the read and write tracks; a compute stage's clock
    is its own.
    """
    index = {s.stage: i for i, s in enumerate(table)}
    clocks = {READ: 0, WRITE: 1}
    return tuple((s.stage, clocks.get(s.track, 2 + i),
                  tuple(index[w] for w in s.waits_for))
                 for i, s in enumerate(table))


class Transfer(NamedTuple):
    stage: str
    rows: int
    row_words: int
    gathered: bool      # scattered row gather, else one streamed burst run
    striped: bool       # spread over the platform's memory channels


def transfers(cfg: ModelConfig, n_edges: int) -> tuple[Transfer, ...]:
    """External-memory traffic of one processing batch (Fig. 4 ops 1-5)."""
    n_nodes = 2 * n_edges
    k, msg = cfg.num_neighbors, cfg.raw_message_dim
    return (
        Transfer("load_edges", n_edges, 3 + cfg.edge_dim, False, False),
        Transfer("load_vertex", n_nodes,
                 3 * k + cfg.memory_dim + msg + 2, True, True),
        Transfer("prefetch", n_nodes * cfg.effective_neighbors,
                 cfg.memory_dim + cfg.edge_dim + (cfg.node_dim or 0),
                 True, True),
        Transfer("store", n_nodes, cfg.memory_dim + msg + 3, True, True),
        Transfer("store", n_nodes, cfg.embed_dim, False, True),
    )


def compute_cycles(cfg: ModelConfig, hw: HardwareConfig,
                   n_edges: int) -> dict[str, int]:
    """Cycles per compute stage for ``n_edges`` (CUs run in parallel)."""
    n_nodes = 2 * -(-n_edges // hw.n_cu)
    cycles = MemoryUpdateUnit(cfg, hw).stage_cycles(n_nodes)
    cycles.update(EmbeddingUnit(cfg, hw).stage_cycles(n_nodes))
    return cycles
