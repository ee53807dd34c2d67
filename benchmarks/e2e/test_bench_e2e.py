"""Self-test of the e2e benchmark harness at ``--smoke`` sizes.

The harness measures from outside, so what needs proving is that it does
not disturb what it measures and that it prints what ``BENCHMARK.json``
promises: proxies leave the program's output byte-identical, the metric
names match the contract one for one, exact counters repeat between
runs, and the recorded span tree is well formed.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def launch(results: Path, *flags: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--smoke", *flags],
        env={**os.environ, "REPRO_RESULTS_DIR": str(results)},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One untraced and two traced smoke runs of all five workloads, side
    by side (the test asserts on structure, never on timings)."""
    base = tmp_path_factory.mktemp("e2e")
    procs = {"plain": launch(base / "plain"),
             "traced_a": launch(base / "a", "--trace", "1"),
             "traced_b": launch(base / "b", "--traced")}
    runs = {}
    for key, proc in procs.items():
        stdout, stderr = proc.communicate(timeout=120)
        assert proc.returncode == 0, stderr
        results = base / {"plain": "plain", "traced_a": "a",
                          "traced_b": "b"}[key] / "e2e"
        name = "result.json" if key == "plain" else "result_traced.json"
        runs[key] = {"stdout": stdout, "dir": results,
                     "set": json.loads((results / name).read_text())}
    return runs


def test_traced_and_untraced_reports_are_byte_identical(smoke):
    for workload in WORKLOADS:
        plain = smoke["plain"]["set"]["workloads"][workload]
        traced = smoke["traced_a"]["set"]["workloads"][workload]
        # A traced run alternates plain and proxied reps and requires one
        # digest over all of them; the untraced run must agree with it.
        assert traced["checks"]["output_identical_across_reps"]
        assert plain["digest"] == traced["digest"]
        assert plain["correct"] and traced["correct"]
        assert plain["failed"] == traced["failed"] == 0


@pytest.mark.parametrize("run,section", [("plain", "end_to_end"),
                                         ("traced_a", "per_layer")])
def test_every_contract_metric_is_printed_once_with_its_unit(
        smoke, run, section):
    units = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    blocks = re.split(r"^== ", smoke[run]["stdout"], flags=re.M)[1:]
    assert [b.split()[0] for b in blocks] == WORKLOADS
    for block in blocks:
        printed = re.findall(r"^  (\S+)\s+\S+ (\S+)$", block, flags=re.M)
        assert sorted(printed) == sorted(units.items())
    last = json.loads(smoke[run]["stdout"].strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 < last["attempted"]


def test_exact_layer_metrics_agree_between_two_runs(smoke):
    paths = [str(smoke[k]["dir"] / "result_traced.json")
             for k in ("traced_a", "traced_b")]
    proc = subprocess.run([sys.executable, str(HERE / "compare.py"), *paths],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count("exact per-layer metrics identical") \
        == len(WORKLOADS)


def test_child_spans_never_exceed_their_parent(smoke):
    for workload in WORKLOADS:
        trace = json.loads((smoke["traced_a"]["dir"]
                            / f"trace_{workload}.json").read_text())
        spans = trace["spans"]
        assert spans
        covered = [0.0] * len(spans)
        for name, start, end, parent, rep in spans:
            assert start <= end
            if parent < 0:
                continue
            _, p_start, p_end, _, p_rep = spans[parent]
            assert p_start <= start and end <= p_end and rep == p_rep, name
            covered[parent] += end - start
        for (name, start, end, _, _), child_s in zip(spans, covered):
            assert child_s <= (end - start) * (1 + 1e-9) + 1e-9, name


def test_compare_of_a_run_with_itself_never_says_regressed(smoke):
    path = str(smoke["plain"]["dir"] / "result.json")
    proc = subprocess.run([sys.executable, str(HERE / "compare.py"),
                           path, path], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    # Two smoke reps can be too noisy to resolve a bound-sized change,
    # which compare.py must call unresolved, never ok or regressed.
    verdicts = re.findall(r"  (ok|unresolved|regressed)$", proc.stdout,
                          flags=re.M)
    assert len(verdicts) == len(WORKLOADS) * len(BENCHMARK["end_to_end"])
    assert "regressed" not in verdicts


def test_unknown_workload_exits_2():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"),
                           "--workload", "no_such_workload"],
                          capture_output=True, text=True)
    assert proc.returncode == 2


def test_child_refuses_to_run_without_the_pins():
    env = {k: v for k, v in os.environ.items()
           if k != "OPENBLAS_NUM_THREADS"}
    proc = subprocess.run([sys.executable, str(HERE / "child.py"),
                           "--workload", "kernel_b200", "--smoke"],
                          env=env, capture_output=True, text=True)
    assert proc.returncode != 0
    assert "launch workloads through run.py" in proc.stderr
