"""End-to-end host throughput + per-layer attribution: the one command.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N]
                                  [--seconds S] [--trace 0|1] [--smoke]

Runs the named workload (default: all five), each in its own child
process with BLAS threads and the allocator pinned (see ``child.py``),
prints every metric by name with its unit, writes the result set to
``results/e2e/`` (``--out``; honours ``REPRO_RESULTS_DIR``) and ends with
one JSON line ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` (alias ``--traced``) the per-layer ones.  This is a
hardware simulation: every time is **host** time unless its unit says
``sim_s``; simulated statistics are deterministic and belong to the
correctness check, not to the metrics.  Exits non-zero when a check or
an operation fails.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from pins import PINS, results_dir  # noqa: E402


def git_sha() -> str | None:
    try:
        # The ceiling keeps git inside this checkout when it is not a
        # repository itself.
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_child(workload: str, args) -> dict | None:
    """Launch one workload; its last stdout line is its JSON record."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, env={**os.environ, **PINS}, cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        print(f"{workload}: child exited {proc.returncode} without a result",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def render(record: dict, units: dict[str, str]) -> str:
    rows = [f"== {record['workload']}  seed {record['seed']}  "
            f"{record['size']}  R={record['reps']}  "
            f"{'traced' if record['trace'] else 'end-to-end'}  "
            f"ops {record['attempted']} (failed {record['failed']})"]
    for name, unit in units.items():
        value = record["metrics"][name]["value"]
        text = f"{value:d}" if isinstance(value, int) else f"{value:.6g}"
        rows.append(f"  {name:<32} {text:>14} {unit}")
    for key, value in (record.get("info") or {}).items():
        rows.append(f"  (info) {key:<25} {value:>14.6g}")
    shares = record.get("stage_shares")
    if shares:
        rows.append("  kernel stage shares (shares only: the repo holds no "
                    "hardware measurements)")
        rows.append(f"    {'stage':<8}" + "".join(f"{k:>16}" for k in shares))
        for stage in next(iter(shares.values())):
            rows.append(f"    {stage:<8}" + "".join(
                f"{shares[k][stage]:>16.3f}" for k in shares))
    failed = [name for name, ok in record["checks"].items() if not ok]
    rows.append(f"  checks passed: {len(record['checks']) - len(failed)} of "
                f"{len(record['checks'])}"
                + (f"; FAILED: {', '.join(failed)}" if failed else ""))
    return "\n".join(rows)


def main(argv: list[str] | None = None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, default=None,
                        help="default: all five, one child each")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=benchmark["run_seconds"],
                        help="set-up + timed region measured per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const",
                        const=1, help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true",
                        help="seconds-scale sizes, two reps (self-test)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="result-set JSON (default results/e2e/"
                             "result[_traced].json)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print("run.py: no src/repro beside the benchmark; nothing to "
              "measure", file=sys.stderr)
        return 1

    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in benchmark[section]}
    records: dict[str, dict] = {}
    for workload in [args.workload] if args.workload else names:
        record = run_child(workload, args)
        if record is None:
            return 1
        if set(record["metrics"]) != set(units):
            print(f"{workload}: metrics differ from BENCHMARK.json "
                  f"{section}: {set(record['metrics']) ^ set(units)}",
                  file=sys.stderr)
            return 1
        records[workload] = record
        print(render(record, units), flush=True)

    out = Path(args.out) if args.out else results_dir() / (
        "result_traced.json" if args.trace else "result.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(
        {"git_sha": git_sha(), "seed": args.seed, "seconds": args.seconds,
         "trace": args.trace, "smoke": args.smoke, "workloads": records},
        indent=1)
    # One line per list: a hundred reps would otherwise be a hundred lines.
    out.write_text(re.sub(r"\[[^][{}]*\]",
                          lambda m: " ".join(m.group().split()), text) + "\n")

    # One workload: metric names as BENCHMARK.json has them.  All five:
    # prefixed with the workload, since every workload reports every name.
    single = args.workload is not None
    print(json.dumps({
        "correct": all(r["correct"] for r in records.values()),
        "attempted": sum(r["attempted"] for r in records.values()),
        "failed": sum(r["failed"] for r in records.values()),
        "metrics": {(name if single else f"{w}/{name}"):
                    {"value": r["metrics"][name]["value"], "unit": unit}
                    for w, r in records.items()
                    for name, unit in units.items()}}))
    return 0 if all(r["correct"] and r["failed"] == 0
                    for r in records.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
