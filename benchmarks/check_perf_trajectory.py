#!/usr/bin/env python
"""CI guard for the perf trajectory: one table, one pass over ``results/``.

``benchmarks/baselines.json`` is the table.  Each row names a ``BENCH_*``
artifact a smoke bench writes, the ``key`` to read from it, the committed
``baseline``, and how the reading is held:

* ``direction: higher`` — fail below ``(1 - tolerance) x baseline``;
* ``direction: lower`` — fail above the absolute ``ceiling`` (``baseline``
  records the healthy reading; there is no tolerance band).

Every guarded number is a *ratio* of two lanes (or of one stage to the
whole pass) run in one process on one machine, so it is hardware-independent;
each row's ``why`` says what the two are and when to move the number.  A row
whose artifact is absent is a named skip, and an artifact no row names
(``BENCH_failover.json``, say) is never opened, so ``results/`` can grow
freely.

Beside the table it reports, and never guards, the committed end-to-end
trajectory (``BENCH_e2e.json``): for each row that carries a host probe
(``trajectory.py``), every workload's ``run_wall_s`` over the probe that
bounds it — the float32 matmul for ``kernel_b200``, the pure-Python loop
for the fleets — so rows taken on different hosts read side by side, and,
for a row whose probe was taken in several children, how far the slowest
child read above the fastest: a ratio moves by that much on the probe
alone.

Usage::

    python benchmarks/check_perf_trajectory.py results/

Exit 0 when every present row holds, 1 when any fails, 2 on misuse.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
TABLE = os.path.join(HERE, "baselines.json")
TRAJECTORY = os.path.join(os.path.dirname(HERE), "BENCH_e2e.json")


def check(row: dict, current: float) -> tuple[bool, str]:
    """``(holds, one-line verdict)`` for one table row."""
    label = f"{row['artifact']} {row['key']}"
    if row["direction"] == "lower":
        holds = current <= row["ceiling"]
        return holds, (f"{label}: current {current:.3g}x, ceiling "
                       f"{row['ceiling']:.3g}x")
    floor = (1.0 - row["tolerance"]) * row["baseline"]
    verdict = (f"{label}: current {current:.3g}x, baseline "
               f"{row['baseline']:.3g}x, floor {floor:.3g}x")
    if current > row["baseline"] * (1.0 + row["tolerance"]):
        # Not a failure, but invite a bump so the guard stays tight.
        verdict += " (well above baseline; consider raising it)"
    return current >= floor, verdict


def host_normalised(rows: list[dict]) -> list[str]:
    """One line per probed trajectory row: ``run_wall_s / probe``, and
    the probes' spread over their children where the row records it."""
    lines = []
    for row in rows:
        probe = row.get("host_probe")
        if probe is None:
            continue
        ratios = []
        for name, metrics in row["workloads"].items():
            key = "matmul_f32_s" if name == "kernel_b200" else "python_loop_s"
            ratios.append(f"{name} {metrics['run_wall_s'] / probe[key]:.3g}")
        spread = ", ".join(
            f"{kind} +{probe[key + '_max_s'] / probe[key + '_s'] - 1:.0%}"
            for kind, key in (("loop", "python_loop"),
                              ("matmul", "matmul_f32"))
            if key + "_max_s" in probe)
        name = row.get("label") or (row.get("git_sha") or "unlabelled")[:10]
        lines.append(f"{name}: " + ", ".join(ratios)
                     + (f" (probe spread {spread})" if spread else ""))
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not os.path.isdir(argv[1]):
        print(__doc__)
        return 2
    with open(TABLE) as fh:
        table = json.load(fh)
    failed = 0
    for row in table:
        path = os.path.join(argv[1], row["artifact"])
        if not os.path.exists(path):
            print(f"skip: {row['artifact']} not in {argv[1]}")
            continue
        with open(path) as fh:
            holds, verdict = check(row, float(json.load(fh)[row["key"]]))
        print(("OK: " if holds else "FAIL: ") + verdict)
        failed += not holds
    if os.path.exists(TRAJECTORY):
        with open(TRAJECTORY) as fh:
            lines = host_normalised(json.load(fh))
        if lines:
            print("report only, run_wall_s over its host probe "
                  "(kernel_b200: matmul, fleets: Python loop):")
            print("\n".join("  " + line for line in lines))
    if failed:
        print(f"{failed} row(s) regressed. If intentional, update "
              f"benchmarks/baselines.json in the same change.")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
