"""Tier-1 guard for the benchmark harness's ``--smoke`` mode.

Runs the serving-scale bench exactly the way CI would
(``pytest benchmarks/bench_serving_scale.py --smoke``) so the bench and the
``--smoke`` conftest option cannot rot without a tier-1 failure.

The run is also held to a **wall-clock budget**: every serving simulation
now flows through the discrete-event core, so a regression in the
scheduler's per-event overhead (a hot-path allocation, an accidental
O(n^2) queue scan) would show up here as a slow smoke run long before it
ruins the full bench.  The budget is deliberately far above the healthy
runtime (a few seconds) but far below "something is quadratic".
"""

import os
import subprocess
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

# Seconds of wall clock the whole smoke harness (12 benches + interpreter
# startup) may take.  Healthy runs finish in ~8 s; the budget leaves ~5x
# headroom for slow CI machines while still catching a per-event blowup.
SMOKE_BUDGET_S = 45.0


def _run_smoke(bench, results_dir, *extra):
    """``pytest -q benchmarks/<bench> --smoke``, exactly as CI runs it."""
    src = os.path.join(REPO_ROOT, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_RESULTS_DIR"] = str(results_dir)   # keep the tree clean
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q",
         os.path.join("benchmarks", bench), "--smoke", *extra],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=120)


def test_serving_scale_smoke_runs_quickly(tmp_path):
    t0 = time.monotonic()
    proc = _run_smoke("bench_serving_scale.py", tmp_path)
    elapsed = time.monotonic() - t0
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "12 passed" in proc.stdout
    assert "Serving scale" in proc.stdout
    assert "Placement x topology" in proc.stdout
    assert "Memory sync" in proc.stdout
    assert "Ingest x topology" in proc.stdout
    assert "Online rebalancing" in proc.stdout
    assert "Failover" in proc.stdout
    assert "Event core" in proc.stdout
    assert "Router split" in proc.stdout
    assert "build + schedule the arrival trace" in proc.stdout
    assert "Trace invariants" in proc.stdout
    assert "Measured backend" in proc.stdout
    assert "Elastic capacity" in proc.stdout
    # The perf-trajectory artifact CI diffs against its baseline.
    assert os.path.exists(os.path.join(
        str(tmp_path), "BENCH_events_per_sec.json"))
    # The failover sweep leaves its own artifact; the perf guard's table
    # has no row for it, so check_perf_trajectory.py never opens it.
    assert os.path.exists(os.path.join(
        str(tmp_path), "BENCH_failover.json"))
    # The measured worker-pool ratio CI diffs against its own baseline.
    assert os.path.exists(os.path.join(
        str(tmp_path), "BENCH_measured_backend.json"))
    # The split's 16-over-4-shards cost ratio CI holds under its ceiling.
    assert os.path.exists(os.path.join(
        str(tmp_path), "BENCH_router_split.json"))
    # The ingest 16-over-2-streams cost ratio CI holds under its ceiling.
    assert os.path.exists(os.path.join(
        str(tmp_path), "BENCH_ingest.json"))
    # The autoscale server-seconds ratio CI diffs against its baseline.
    assert os.path.exists(os.path.join(
        str(tmp_path), "BENCH_autoscale.json"))
    assert elapsed < SMOKE_BUDGET_S, (
        f"--smoke took {elapsed:.1f} s (budget {SMOKE_BUDGET_S:.0f} s): "
        f"the event loop's per-event overhead has regressed")


def test_gnn_stage_scaling_smoke_writes_its_guarded_ratio(tmp_path):
    """The GNN-kernel guard CI runs beside the serving harness: k = 10 over
    budget 2 on the deployment kernel, under its 2.5 ceiling."""
    import json

    proc = _run_smoke("bench_table2_model_opts.py", tmp_path,
                      "-k", "gnn_stage_scaling")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "1 passed" in proc.stdout and "GNN stage" in proc.stdout
    with open(tmp_path / "BENCH_gnn_kernel.json") as fh:
        assert 0.0 < json.load(fh)["scaling_ratio"] <= 2.5


def test_kernel_stage_shares_smoke_writes_its_guarded_share(tmp_path):
    """The sampler guard CI runs beside it: the sample stage's share of the
    four kernel stages, under its 0.05 ceiling (a FIFO read, not a sort)."""
    import json

    proc = _run_smoke("bench_table2_model_opts.py", tmp_path,
                      "-k", "kernel_stage_shares")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "1 passed" in proc.stdout and "Kernel stages" in proc.stdout
    with open(tmp_path / "BENCH_kernel_stages.json") as fh:
        payload = json.load(fh)
    assert 0.0 < payload["sample_share"] <= 0.05
    assert abs(sum(payload["shares"].values()) - 1.0) < 1e-9


def test_perf_guard_reads_every_present_row_of_its_table(tmp_path):
    """``check_perf_trajectory.py results/`` is table-driven: floors for
    ``higher`` rows, absolute ceilings for ``lower`` rows, a named skip
    for an absent artifact, and no look at artifacts it has no row for."""
    import json

    def guard():
        return subprocess.run(
            [sys.executable,
             os.path.join(REPO_ROOT, "benchmarks", "check_perf_trajectory.py"),
             str(tmp_path)], capture_output=True, text=True, timeout=60)

    def write(name, **payload):
        (tmp_path / name).write_text(json.dumps(payload))

    write("BENCH_failover.json", rows=[])           # no row: never opened
    write("BENCH_events_per_sec.json", speedup_ratio=16.1)  # floor 16
    write("BENCH_router_split.json", scaling_ratio=1.3,     # ceiling 1.3
          plan_over_split=0.5)                              # ceiling 0.5
    ok = guard()
    assert ok.returncode == 0, ok.stdout + ok.stderr
    assert ok.stdout.count("OK: ") == 3 and "failover" not in ok.stdout
    assert "skip: BENCH_ingest.json" in ok.stdout

    write("BENCH_events_per_sec.json", speedup_ratio=15.9)
    write("BENCH_ingest.json", scaling_ratio=3.1)
    bad = guard()
    assert bad.returncode == 1
    assert bad.stdout.count("FAIL: ") == 2 and "2 row(s)" in bad.stdout

    usage = subprocess.run(
        [sys.executable,
         os.path.join(REPO_ROOT, "benchmarks", "check_perf_trajectory.py")],
        capture_output=True, text=True, timeout=60)
    assert usage.returncode == 2


def test_trajectory_report_reads_unlabelled_rows_and_probe_spread():
    """``check_perf_trajectory.host_normalised`` names a row by its label,
    else its sha, else ``unlabelled`` (``run.py`` writes ``git_sha: null``
    outside a git checkout and ``trajectory.py``'s label defaults to
    None), and prints a probe's spread over its children beside the
    ratios when the row records one."""
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "check_perf_trajectory",
        os.path.join(REPO_ROOT, "benchmarks", "check_perf_trajectory.py"))
    guard = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(guard)
    workloads = {"kernel_b200": {"run_wall_s": 0.06},
                 "fleet_pool_ingest": {"run_wall_s": 0.004}}
    one_child = {"python_loop_s": 0.005, "matmul_f32_s": 2e-4, "reps": 30}
    three = {**one_child, "python_loop_max_s": 0.006,
             "matmul_f32_max_s": 2.1e-4, "children": 3}
    rows = [{"label": None, "git_sha": None, "host_probe": one_child,
             "workloads": workloads},
            {"label": None, "git_sha": "0123456789abcdef",
             "host_probe": three, "workloads": workloads},
            {"label": "PR 49", "host_probe": three, "workloads": workloads},
            {"label": "PR 1", "workloads": workloads}]
    assert guard.host_normalised(rows) == [
        "unlabelled: kernel_b200 300, fleet_pool_ingest 0.8",
        "0123456789: kernel_b200 300, fleet_pool_ingest 0.8 "
        "(probe spread loop +20%, matmul +5%)",
        "PR 49: kernel_b200 300, fleet_pool_ingest 0.8 "
        "(probe spread loop +20%, matmul +5%)"]
