"""List the statements in ``src/repro`` that no program executes.

Each program runs in a subprocess under a ``sys.settrace`` tracer from a
``sitecustomize`` first on ``PYTHONPATH``, so children and ``os._exit``
are traced too.  Exit codes go to stderr and stop nothing (a timing
assertion that fails under the tracer keeps its coverage); files go to a
temporary directory.  A statement is a simple statement or a compound
one's header that owns bytecode, and it ran when any of its lines fired.
Validation is a ``raise`` and all of a block that ends in one.  Stdlib
only; report only: ``python benchmarks/exec_census.py``.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

TRACER = '''\
import atexit, os, sys, threading
src, hits = os.environ["CENSUS_SRC"], set()
def line(frame, event, arg):
    if event == "line":
        hits.add((frame.f_code.co_filename, frame.f_lineno))
    return line
def dump(*code, _exit=os._exit):
    with open(f"{os.environ['CENSUS_OUT']}/{os.getpid()}.hits", "a") as f:
        f.writelines(f"{p}\\t{n}\\n" for p, n in hits)
    code and _exit(*code)
atexit.register(dump)
os._exit = dump
sys.settrace(lambda f, *_: line if f.f_code.co_filename.startswith(src) else None)
threading.settrace(sys.gettrace())
'''
# ``python -m repro`` argvs ({m}: a simplified model, {s}: its LUT student).
COMMANDS = """\
info
trace
train --edges 600 --memory-dim 8 --epochs 1 --simplified --out {m}
train --edges 600 --memory-dim 8 --epochs 1 --teacher {m} --lut --prune 4 --out {s}
eval --model {m} --edges 600
infer --model {m} --edges 600
infer --model {m} --edges 600 --backend zcu104
infer --model {s} --edges 600 --backend u200
dse --platform u200
dse --platform zcu104
serve-sim --autoscale
serve-sim --autoscale --slo-p95 1 --placement replicate
serve-sim --slo-p95 1"""
# Appended to the goldens' base argv: the features the goldens miss.
FEATURES = """\
--backend u200 --placement replicate --memsync invalidate
--backend zcu104 --placement rebalance
--backend u200 --topology hybrid --pool-servers 3
--edges 1000 --speedup 20 --topology hybrid --rebalance-online
--speedup 2000 --fail-at 300 --fail-mode slow --pool-servers 2
--speedup 200000 --streams 8 --fail-at 3 --fail-shard 1
--speedup 200000 --streams 8 --queue-capacity 1 --fail-at 3 --fail-shard 1 --ingest pipelined --batch-edges 16 --deadline-ms 50
--speedup 200000 --queue-capacity 0
--speedup 200000 --ingest pipelined --batch-edges 16
--speedup 200000 --check-trace --batch-edges 4
--shards 3 --speedup 2000 --autoscale --slo-p95 100 --scale-window 100
--topology pool --placement replicate --shards 2 --speedup 200000 --autoscale --slo-p95 1 --max-servers 4
--edges 600 --shards 1 --speedup 20000 --autoscale --slo-p95 1e-6 --max-servers 4 --rebalance-online --rebalance-threshold 0.05
--backend software --speedup 1e-6
--backend measured --model {s}
--backend measured --workers 2 --check-trace
--topology pool --pool-servers 1 --backend measured --workers 2 --speedup 2000 --deadline-ms 1000"""
LINT = ["src", "--list-rules", "--select nope",
        "--select unseeded-rng examples/quickstart.py"]


def programs(tmp: str) -> list[list[str]]:
    """The argvs after ``python``: each golden argv runs human and with
    ``--json --check-trace``, the e2e smoke with and without a trace."""
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from repro.datasets import DATASETS
    from tests.unit.test_cli import TestServeSimGolden, TestServeSimTraceDigests
    paths = dict(m=f"{tmp}/m.npz", s=f"{tmp}/s.npz")
    cli, base = ["-m", "repro"], ["-m", "repro", *TestServeSimGolden.BASE]
    runs = [["-m", "repro.analysis", *line.split()] for line in LINT]
    runs += [cli + line.format(**paths).split() for line in COMMANDS.splitlines()]
    for i, (_, argv) in enumerate(sorted(TestServeSimTraceDigests.CASES.items())):
        runs += [cli + argv,
                 cli + argv + ["--json", f"{tmp}/{i}.json", "--check-trace"]]
    runs += [base + line.format(**paths).split() for line in FEATURES.splitlines()]
    runs += [base + ["--dataset", name] for name in sorted(DATASETS)]
    runs += [[str(p)] for p in sorted(ROOT.glob("examples/*.py"))]
    runs += [["-m", "pytest", "-q", "-p", "no:cacheprovider", str(p), "--smoke"]
             for p in sorted(ROOT.glob("benchmarks/bench_*.py"))]
    e2e = str(ROOT / "benchmarks" / "e2e" / "run.py")
    return runs + [[e2e, "--smoke"], [e2e, "--smoke", "--trace", "1"]]


def trace_programs() -> dict[str, set[int]]:
    """Run every program under the tracer; the lines each file ran."""
    hits: dict[str, set[int]] = {}
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "sitecustomize.py").write_text(TRACER)
        env = {**os.environ, "CENSUS_SRC": f"{SRC}{os.sep}", "CENSUS_OUT": tmp,
               "REPRO_RESULTS_DIR": f"{tmp}/results",
               "PYTHONPATH": os.pathsep.join([tmp, str(ROOT / "src"), str(ROOT)])}
        for argv in programs(tmp):
            code = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL).returncode
            if code:
                print(f"exit {code}: {' '.join(argv)}", file=sys.stderr)
        for path in Path(tmp).glob("*.hits"):
            for row in path.read_text().splitlines():
                name, line = row.split("\t")
                hits.setdefault(name, set()).add(int(line))
    return hits


def _owned(code) -> set[int]:
    """The lines that carry bytecode in ``code`` and the code it nests."""
    return {line for *_, line in code.co_lines() if line}.union(
        *(_owned(c) for c in code.co_consts if hasattr(c, "co_lines")))


def statements(source: str, path: str) -> list[tuple[range, bool]]:
    """``(own lines, is validation)`` of every statement, in order."""
    def visit(body, validation):
        validation = validation or isinstance(body[-1], ast.Raise)
        for node in body:
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
                continue
            blocks = [getattr(node, f) for f in ("body", "orelse", "finalbody")
                      if getattr(node, f, None)]
            blocks += [h.body for h in getattr(node, "handlers", [])]
            last = node.body[0].lineno - 1 if blocks else node.end_lineno
            yield range(node.lineno, max(node.lineno, last) + 1), validation
            for block in blocks:
                yield from visit(block, validation)

    owned = _owned(compile(source, path, "exec"))
    return [(span, v) for span, v in visit(ast.parse(source).body, False)
            if owned.intersection(span)]


def census(root: Path, hits: dict[str, set[int]]):
    """A ``(path, line, is validation)`` row per statement under ``root``
    that no line of ``hits`` ran, and the number of statements."""
    rows, total = [], 0
    for path in sorted(root.rglob("*.py")):
        found = statements(path.read_text(), str(path))
        ran = hits.get(str(path), set())
        total += len(found)
        rows += [(path, span[0], v) for span, v in found
                 if not ran.intersection(span)]
    return rows, total


def main() -> int:
    rows, total = census(SRC, trace_programs())
    for path, line, validation in rows:
        text = path.read_text().splitlines()[line - 1].strip()[:60]
        kind = "validation" if validation else "other"
        print(f"{path.relative_to(ROOT)}:{line}  {kind:10}  {text}")
    other = sum(not v for *_, v in rows)
    print(f"{other} other and {len(rows) - other} validation statements "
          f"unexecuted, of {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
