"""Compare two result sets of ``run.py``: ``compare.py A.json B.json``.

A is the base (parent commit, or the first of two same-commit runs), B
the candidate.  One row per workload x end-to-end metric, never pooled:
both reported values with the quartiles of the same estimate over four
interleaved subsets of each run's reps (``raw``; a subset has a quarter of
the reps, so it reads a little slower than the whole), B's change relative
to A, the bound ``BENCHMARK.json`` fixes, and a verdict --

``ok``          B's value is not worse than A's by more than the bound;
``regressed``   it is;
``unresolved``  either side's own inter-quartile spread over its subsets
                exceeds the bound and the two inter-quartile ranges
                overlap, so the runs cannot tell (the machine was busy:
                measure again).

For two traced result sets (``--trace 1``) it instead checks that every
exact per-layer metric (counts, sim seconds) is identical.
Exits 1 on any ``regressed`` row or differing exact metric.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple[str, float]:
    """``a``/``b``: one metric of one workload, ``{"value", "raw"}``."""
    (a1, a3), (b1, b3) = quartiles(a["raw"]), quartiles(b["raw"])
    change = (b["value"] - a["value"]) / a["value"]
    worse = change if better == "lower" else -change
    spread = max((a3 - a1) / statistics.median(a["raw"]),
                 (b3 - b1) / statistics.median(b["raw"]))
    if spread > bound and a1 <= b3 and b1 <= a3:
        return "unresolved", change
    return ("regressed" if worse > bound else "ok"), change


def compare_end_to_end(a: dict, b: dict, benchmark: dict) -> bool:
    print(f"{'workload':<22}{'metric':<13}{'A [q1, q3]':>34}"
          f"{'B [q1, q3]':>34}{'B vs A':>9}{'bound':>7}  verdict")
    clean = True
    for workload, rec_a in a["workloads"].items():
        rec_b = b["workloads"].get(workload)
        if rec_b is None:
            continue
        for m in benchmark["end_to_end"]:
            m_a = rec_a["metrics"][m["name"]]
            m_b = rec_b["metrics"][m["name"]]
            word, change = verdict(m_a, m_b, m["better"], m["bound"])
            clean = clean and word != "regressed"

            def cell(metric):
                q1, q3 = quartiles(metric["raw"])
                return f"{metric['value']:.5g} [{q1:.5g}, {q3:.5g}]"

            print(f"{workload:<22}{m['name']:<13}{cell(m_a):>34}"
                  f"{cell(m_b):>34}{change:>+9.1%}{m['bound']:>7.2f}  "
                  f"{word}")
    return clean


def compare_exact(a: dict, b: dict) -> bool:
    clean = True
    for workload, rec_a in a["workloads"].items():
        rec_b = b["workloads"].get(workload)
        if rec_b is None:
            continue
        names = rec_a["exact"]
        differ = [n for n in names
                  if rec_a["metrics"][n]["value"]
                  != rec_b["metrics"][n]["value"]]
        clean = clean and not differ
        print(f"{workload:<22}{len(names) - len(differ)} of {len(names)} "
              f"exact per-layer metrics identical"
              + (f"; differ: {', '.join(differ)}" if differ else ""))
    return clean


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    if a["trace"] != b["trace"]:
        print("one result set is traced and the other is not",
              file=sys.stderr)
        return 2
    print(f"A: {argv[0]} (git {a['git_sha']}, seed {a['seed']})")
    print(f"B: {argv[1]} (git {b['git_sha']}, seed {b['seed']})")
    clean = compare_exact(a, b) if a["trace"] \
        else compare_end_to_end(a, b, benchmark)
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
