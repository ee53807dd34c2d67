"""Structured complexity tables: the Table I breakdown and Table II ladder.

These functions return plain lists of dicts so benches can print them and
tests can assert on them without parsing formatted text.
"""

from __future__ import annotations

import math

from ..models.config import ModelConfig, variant_ladder
from .op_counter import PARTS, OpCounts, count_ops

__all__ = ["table1_breakdown", "table2_ladder", "modeled_vs_measured"]


def table1_breakdown(cfg: ModelConfig) -> list[dict]:
    """Per-part kMEM/kMAC rows (Table I structure) for one model config."""
    counts = count_ops(cfg)
    total_mac = counts.total_macs
    total_mem = counts.total_mems
    rows = []
    for part in PARTS:
        rows.append({
            "part": part,
            "kMEM": counts.mems[part] / 1e3,
            "kMEM_pct": 100.0 * counts.mems[part] / total_mem if total_mem else 0.0,
            "kMAC": counts.macs[part] / 1e3,
            "kMAC_pct": 100.0 * counts.macs[part] / total_mac if total_mac else 0.0,
        })
    rows.append({"part": "total", "kMEM": total_mem / 1e3, "kMEM_pct": 100.0,
                 "kMAC": total_mac / 1e3, "kMAC_pct": 100.0})
    return rows


def table2_ladder(base: ModelConfig) -> list[dict]:
    """Accumulated-optimization complexity rows (Table II structure).

    AP and measured throughput are filled in by the benches (they require
    training and timing); this function covers the analytic columns.
    """
    baseline = count_ops(base.with_(simplified_attention=False,
                                    lut_time_encoder=False,
                                    pruning_budget=None))
    rows = []
    for cfg in variant_ladder(base):
        c = count_ops(cfg)
        rows.append({
            "model": cfg.name,
            "neighbors": cfg.effective_neighbors,
            "kMEM": c.total_mems / 1e3,
            "kMEM_pct": 100.0 * c.total_mems / baseline.total_mems,
            "kMAC_GRU": c.gru_macs / 1e3,
            "kMAC_GNN": c.gnn_macs / 1e3,
            "kMAC_total": c.total_macs / 1e3,
            "kMAC_pct": 100.0 * c.total_macs / baseline.total_macs,
            "config": cfg,
        })
    return rows


def modeled_vs_measured(measured: dict) -> list[dict]:
    """Modeled-vs-measured service-time rows from a report's ``measured``
    block (``bench_serving_scale``'s worker-pool table).

    One row per shard plus a pooled ``all`` row: sample count, modeled and
    measured mean service time in milliseconds, their ratio
    (modeled / measured — how far off the analytical cost model is from
    the real kernels on this host), and the measured cv².  Same
    list-of-dicts shape as the other breakdowns, rendered with
    :func:`repro.reporting.render_table`.
    """
    def row(label, block):
        measured_ms = 1e3 * float(block["mean_s"])
        modeled_ms = 1e3 * float(block["modeled_mean_s"])
        return {
            "shard": label,
            "samples": int(block["samples"]),
            "modeled_ms": modeled_ms,
            "measured_ms": measured_ms,
            # A shard that served nothing has no ratio.
            "modeled/measured": modeled_ms / measured_ms
            if measured_ms > 0 else math.nan,
            "cv2": float(block["cv2"]),
        }

    rows = [row(str(shard["shard"]), shard)
            for shard in measured.get("per_shard", [])]
    rows.append(row("all", measured))
    return rows
