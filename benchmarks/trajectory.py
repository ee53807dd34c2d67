#!/usr/bin/env python
"""Append the last end-to-end benchmark run to the committed trajectory.

    python3 benchmarks/e2e/run.py [--smoke]             # result.json
    python3 benchmarks/e2e/run.py [--smoke] --trace 1   # optional
    python benchmarks/trajectory.py [--label "PR 22"]

Reads ``results/e2e/result.json`` (``REPRO_RESULTS_DIR`` moves
``results``) and, when it is there, ``result_traced.json``, and appends
one record to ``BENCH_e2e.json`` at the repository root: per workload the
four end-to-end metrics of ``BENCHMARK.json`` with the rep count they were
read over (the child keeps every rep's record, so ``peak_rss_mb`` grows
with ``reps``: compare it only between rows of similar counts), and —
from the traced set — the exact counters of ``COUNTERS`` (scheduler
events, ``split`` calls, ``process_batch`` calls and the simulated
seconds they priced, ``run_stream`` calls, migrations and checked trace
events, so a row shows that a run did the same control work and priced
the same simulated time; ``kernel_b200``'s software backend measures its
``process_batch`` seconds on the host, so its row leaves them out) and,
for ``kernel_b200``, ``models.infer_calls``
with the ``KERNEL_STAGES`` shares of its host seconds beside the paper's
Table I 1-CPU shares (45 / 1.5 / 49 / 4), as
``run.py`` worked them out, beside the ``src/repro`` code-line total
and the sha ``run.py`` stamped (the checkout's HEAD: for a change
measured before it is committed that is its parent, and ``--label`` says
which row it is).  Each row also carries a host reference,
``host_probe``: the min-of-``PROBE_REPS`` wall seconds of a fixed
pure-Python loop and of a float32 ``(400, 272) @ (272, 100)`` matmul
(``kernel_b200``'s shapes), timed in each of ``PROBE_CHILDREN`` children
under ``pins.PINS``, with the least and the greatest child reading kept,
so ``check_perf_trajectory.py`` can print each row's ``run_wall_s`` over
the probe, with the probe's own spread beside it, and two hosts' rows
read side by side.  Report-only: seconds
are host time on whatever machine ran them, so nothing here is a guard;
the counters repeat exactly and are what to compare across rows.  Rows
with ``source: "changelog"`` were back-filled by hand from the
change-side medians in CHANGES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(HERE / "e2e")]

from code_lines import code_lines  # noqa: E402
from pins import PINS, results_dir  # noqa: E402

COUNTERS = ("events.processed", "events.cohort_calls", "events.cohort_events",
            "router.split_calls", "pipeline.process_batch_calls",
            "pipeline.sim_service_s", "hw.run_stream_calls",
            "rebalance.migrations", "tracecheck.events")
KERNEL = "kernel_b200"      # the one workload whose wall is the kernels'
PROBE_REPS = 30
# One child's probe swung 23 % between two calls on one host: take it in
# several children and keep the spread.
PROBE_CHILDREN = 3
# Two fixed host probes, min of PROBE_REPS wall seconds each, printed as
# one JSON line: interpreter speed and one-thread float32 BLAS speed.
PROBE = f"""
import json, time
import numpy as np

def best(fn):
    times = []
    for _ in range({PROBE_REPS}):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)

def python_loop():
    total = 0
    for i in range(100_000):
        total += i & 7

rng = np.random.default_rng(0)
a = rng.standard_normal((400, 272), dtype=np.float32)
b = rng.standard_normal((272, 100), dtype=np.float32)
print(json.dumps({{"python_loop_s": best(python_loop),
                  "matmul_f32_s": best(lambda: a @ b),
                  "reps": {PROBE_REPS}}}))
"""


def read(path: Path, names) -> tuple[dict, dict[str, dict]]:
    """A result set and, per workload, its values of ``names``."""
    result = json.loads(path.read_text())
    return result, {w: {m: record["metrics"][m]["value"] for m in names}
                    for w, record in result["workloads"].items()}


def host_probe() -> dict:
    """The two probes, each timed in ``PROBE_CHILDREN`` separate pinned
    children: the least of the children's min wall seconds, and beside it
    (``_max_s``) the greatest, so a row shows how far the probe itself
    moved on its host."""
    runs = [json.loads(subprocess.run(
        [sys.executable, "-c", PROBE], env={**os.environ, **PINS},
        check=True, capture_output=True, text=True, timeout=300).stdout)
        for _ in range(PROBE_CHILDREN)]
    probe = {"reps": PROBE_REPS, "children": PROBE_CHILDREN}
    for key in ("python_loop_s", "matmul_f32_s"):
        seconds = [run[key] for run in runs]
        probe[key], probe[key[:-2] + "_max_s"] = min(seconds), max(seconds)
    return probe


def measured_record(label: str | None) -> dict:
    results = results_dir()
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    run, workloads = read(results / "result.json",
                          [m["name"] for m in benchmark["end_to_end"]])
    for name, record in run["workloads"].items():
        workloads[name]["reps"] = record["reps"]
    if (results / "result_traced.json").exists():
        traced, counters = read(results / "result_traced.json", COUNTERS)
        # A traced set left over from another commit or size says nothing
        # about this run.
        if (traced["git_sha"], traced["smoke"]) \
                == (run["git_sha"], run["smoke"]):
            # Host-measured compute, not simulated seconds: it moves run
            # to run.
            counters.get(KERNEL, {}).pop("pipeline.sim_service_s", None)
            for name, values in counters.items():
                workloads.setdefault(name, {}).update(values)
            kernel = traced["workloads"].get(KERNEL, {})
            if kernel.get("stage_shares"):
                workloads[KERNEL]["models.infer_calls"] = \
                    kernel["metrics"]["models.infer_calls"]["value"]
                workloads[KERNEL]["stage_shares"] = {
                    side: {stage: round(share, 4) for stage, share
                           in kernel["stage_shares"][side].items()}
                    for side in ("host_seconds", "paper_t_1cpu")}
    return {"label": label, "source": "measured", "git_sha": run["git_sha"],
            "smoke": run["smoke"], "seed": run["seed"],
            "code_lines": sum(code_lines(f) for f in
                              sorted((ROOT / "src" / "repro").rglob("*.py"))),
            "host_probe": host_probe(), "workloads": workloads}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", default=None,
                        help="what the row is, e.g. 'PR 22'")
    args = parser.parse_args(argv)
    path = ROOT / "BENCH_e2e.json"
    rows = json.loads(path.read_text()) if path.exists() else []
    rows.append(measured_record(args.label))
    # One record per line, so an appended row is a one-line diff.
    path.write_text("[\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]\n")
    print(f"{path.name}: {len(rows)} record(s); appended "
          f"{rows[-1]['git_sha']} with {len(rows[-1]['workloads'])} "
          f"workload(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
