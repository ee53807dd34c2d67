"""Trace analysis for the accelerator simulator: Gantt charts + utilization.

Turn the :class:`~repro.hw.accelerator.TraceEvent` stream collected by
``run_stream(..., trace=True)`` into

* per-stage **utilization** (busy time / span) — where the pipeline's
  bottleneck sits, and how well the prefetch hides memory latency;
* an **ASCII Gantt chart** — one row per stage, one column per time slot —
  which makes pipeline overlap (or the lack of it) directly visible in test
  logs and bench output.
"""

from __future__ import annotations

from collections import defaultdict

from .accelerator import RunReport
from .schedule import PIPELINE

__all__ = ["stage_utilization", "render_gantt", "pipeline_overlap"]

ALL_STAGES = tuple(s.stage for s in PIPELINE)


def stage_utilization(report: RunReport) -> dict[str, float]:
    """Fraction of the run each stage was busy (0..1)."""
    if not report.events:
        raise ValueError("run_stream was not called with trace=True")
    span = max(e.end_s for e in report.events) \
        - min(e.start_s for e in report.events)
    busy: dict[str, float] = defaultdict(float)
    for e in report.events:
        busy[e.stage] += e.duration_s
    return {stage: (t / span if span > 0 else 0.0)
            for stage, t in sorted(busy.items())}


def pipeline_overlap(report: RunReport) -> float:
    """Overlap factor: sum of stage busy time / wall-clock span.

    1.0 means fully serial execution; values above 1 quantify how many
    stages run concurrently on average — the whole point of the Fig. 4
    schedule.
    """
    if not report.events:
        raise ValueError("run_stream was not called with trace=True")
    span = max(e.end_s for e in report.events) \
        - min(e.start_s for e in report.events)
    busy = sum(e.duration_s for e in report.events)
    return busy / span if span > 0 else 0.0


def render_gantt(report: RunReport, width: int = 100,
                 stages: tuple[str, ...] | None = None,
                 max_time_s: float | None = None) -> str:
    """ASCII Gantt: one row per stage; digits mark the processing batch.

    Each column is ``span / width`` seconds; a cell shows the (mod-10)
    index of the processing batch occupying the stage, ``.`` if idle.
    Overlapping occupancy in one cell keeps the earliest batch (display
    only — the schedule itself never double-books a stage).
    """
    if not report.events:
        raise ValueError("run_stream was not called with trace=True")
    t0 = min(e.start_s for e in report.events)
    t1 = max(e.end_s for e in report.events)
    if max_time_s is not None:
        t1 = min(t1, t0 + max_time_s)
    span = max(t1 - t0, 1e-12)
    stages = stages if stages is not None else tuple(
        s for s in ALL_STAGES if any(e.stage == s for e in report.events))
    name_w = max(len(s) for s in stages)
    grid = {s: ["."] * width for s in stages}
    for e in sorted(report.events, key=lambda e: e.start_s):
        if e.stage not in grid or e.start_s >= t1:
            continue
        lo = int((e.start_s - t0) / span * width)
        hi = max(lo + 1, int((min(e.end_s, t1) - t0) / span * width))
        mark = str(e.batch_index % 10)
        for c in range(max(lo, 0), min(hi, width)):
            if grid[e.stage][c] == ".":
                grid[e.stage][c] = mark
    header = f"{'':{name_w}}  |{'-' * width}| {span * 1e6:.1f} us"
    rows = [f"{s:{name_w}}  |{''.join(grid[s])}|" for s in stages]
    return "\n".join([header] + rows)
