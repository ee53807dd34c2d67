"""One workload, measured in its own process (launched by ``run.py``).

Protocol: one untimed warm-up rep, then timed reps until ``--seconds`` of
set-up + timed region have been spent (at least ``MIN_REPS``), each on a
fresh graph/model/engine with ``gc.collect()`` in between and GC left on.
Reps are a tenth of a second, so a run holds a hundred or more, and every
end-to-end time is put together from the fastest timing of each segment
of the rep (``end_to_end`` says why).  With ``--trace 1`` the reps
alternate plain and traced so both see the same machine, and the
per-layer numbers come from the fastest traced one.
Prints one JSON record on stdout; ``run.py`` turns it into the tables and
the result line.
"""

import os
import sys

from pins import PINS, results_dir

if __name__ == "__main__":
    if "numpy" in sys.modules:
        sys.exit("child.py: numpy was imported before the thread pins")
    for _var, _value in PINS.items():
        if os.environ.get(_var) != _value:
            sys.exit(f"child.py: {_var} must be {_value} before start-up; "
                     "launch workloads through run.py")

import argparse
import gc
import json
import platform
import resource
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from tracing import Tracer, layer_times  # noqa: E402
from workloads import WORKLOADS, RepResult, span  # noqa: E402

MIN_REPS = 3            # untraced run
MIN_PAIRS = 2           # traced run (plain + traced rep), and smoke runs
SUBSETS = 4             # of the reps, for a run's own spread
HERE = Path(__file__).resolve().parent


def run_rep(workload, seed: int, size: str, tracer: Tracer | None,
            probe: bool = False) -> tuple[RepResult, dict]:
    gc.collect()
    t0 = perf_counter()
    ctx = workload.setup(seed, size, tracer)
    t1 = perf_counter()
    with span(tracer, "bench.timed_region"):
        out = workload.timed(ctx, tracer)
    t2 = perf_counter()
    rep = workload.finish(ctx, out, t2 - t1)
    rep.setup_s, rep.wall_s, rep.traced = t1 - t0, t2 - t1, tracer is not None
    return rep, (workload.probe(ctx) if probe else {})


def measure(workload, seed: int, size: str, seconds: float, trace: bool):
    """Warm-up, then reps until the time is spent.  Returns the reps, the
    ``[first, stop)`` span-index bounds of each traced rep, the warm-up's
    batcher probe and the tracer."""
    tracer = Tracer() if trace else None
    _, probe = run_rep(workload, seed, size, tracer, probe=trace)
    if tracer is not None:
        tracer.spans.clear()
        tracer.take_counts()
    kinds = 2 if trace else 1
    floor = MIN_PAIRS * kinds if trace or size == "smoke" else MIN_REPS
    reps: list[RepResult] = []
    bounds: list[tuple[int, int]] = []
    start = perf_counter()
    while True:
        traced = trace and len(reps) % 2 == 1
        if traced:
            tracer.rep = len(bounds)
            first = len(tracer.spans)
        rep, _ = run_rep(workload, seed, size, tracer if traced else None)
        if traced:
            rep.counts.update(tracer.take_counts())
            bounds.append((first, len(tracer.spans)))
        reps.append(rep)
        spent = perf_counter() - start
        if len(reps) >= floor and len(reps) % kinds == 0 and (
                size == "smoke"
                or spent + kinds * spent / len(reps) > seconds):
            return reps, bounds, probe, tracer


# --------------------------------------------------------------------------- #
def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values), q)) if len(values) else 0.0


def undisturbed(reps: list[RepResult]) -> float:
    """Seconds the timed region takes when nothing disturbs it: each of
    its segments at the fastest any rep ran it, summed (``end_to_end``
    says why)."""
    return float(np.min([r.segments for r in reps], axis=0).sum())


def end_to_end(reps: list[RepResult], peak_rss_mb: float) -> dict:
    """Every end-to-end metric of an untraced run, with ``raw``: the same
    estimate over each of ``SUBSETS`` interleaved subsets of the reps,
    from which compare.py judges how far the run agrees with itself.

    Fastest, not median: the sandbox switches between a fast state and
    one 1.4-1.6x slower that lasts from a fraction of a second to minutes,
    so the median rep moves with the share of the slow state, and what
    disturbs a rep only ever adds time.  No whole rep is sure to run
    undisturbed, but every rep does the same work in the same order, so
    each segment (a batch, or a fixed stretch of ``process_batch`` calls)
    is timed once per rep and the fastest of those is the segment
    undisturbed.  README, "Steadiness", has the measurements."""
    groups = [reps[i::SUBSETS] for i in range(min(SUBSETS, len(reps)))]

    def metric(estimate):
        return {"value": estimate(reps), "raw": [estimate(g) for g in groups]}

    wall = metric(undisturbed)
    edges = reps[0].edges
    return {"setup_s": metric(lambda g: min(r.setup_s for r in g)),
            "edges_per_s": {"value": edges / wall["value"],
                            "raw": [edges / w for w in wall["raw"]]},
            "run_wall_s": wall,
            "peak_rss_mb": {"value": peak_rss_mb, "raw": [peak_rss_mb]}}


def layer_metrics(rep: RepResult, spans: list[list],
                  bounds: tuple[int, int], probe: dict) -> dict:
    """Every per-layer metric of one traced rep (``spans[first:stop]``),
    by BENCHMARK.json name."""
    times = layer_times(spans, *bounds)
    counts = rep.counts

    def t(name: str, kind: str = "busy") -> float:
        return times[name][kind] if name in times else 0.0

    def calls(name: str) -> int:
        return times[name]["calls"] if name in times else 0

    def c(name: str):
        return counts.get(name, 0)

    region = t("bench.timed_region")
    batch_ms = [(end - start) * 1e3
                for name, start, end, _p, _r in spans[slice(*bounds)]
                if name == "pipeline.process_batch"]
    events = c("events.processed")
    m = {
        "datasets.load_s": t("datasets.load"),
        "models.build_s": t("models.build"),
        "placement.place_s": t("placement.place"),
        "engine.build_s": t("engine.build"),
        "models.infer_calls": c("models.infer_calls"),
        "models.infer_edges": c("models.infer_edges"),
        "models.edges_per_call": c("models.infer_edges")
        / max(1, c("models.infer_calls")),
        "models.infer_busy_s": t("models.infer_batch"),
        "models.stage_memory_s": c("models.stage_memory_s"),
        "models.stage_sample_s": c("models.stage_sample_s"),
        "models.stage_gnn_s": c("models.stage_gnn_s"),
        "models.stage_update_s": c("models.stage_update_s"),
        "hw.run_stream_calls": calls("hw.run_stream"),
        "hw.run_stream_self_s": t("hw.run_stream", "self"),
        "hw.updater_calls": calls("hw.updater"),
        "hw.updater_busy_s": t("hw.updater"),
        "hw.sim_service_s": c("hw.sim_service_s"),
        "pipeline.process_batch_calls": calls("pipeline.process_batch"),
        "pipeline.process_batch_busy_s": t("pipeline.process_batch"),
        "pipeline.process_batch_self_s": t("pipeline.process_batch", "self"),
        "pipeline.sim_service_s": c("pipeline.sim_service_s"),
        "pipeline.batch_ms_p50": percentile(batch_ms, 50),
        "pipeline.batch_ms_p95": percentile(batch_ms, 95),
        "router.split_calls": calls("router.split"),
        "router.split_busy_s": t("router.split"),
        "router.sub_batches": c("router.sub_batches"),
        "router.mail_edges": c("router.mail_edges"),
        "router.sync_rows": c("router.sync_rows"),
        "router.migrate_calls": calls("router.migrate"),
        "router.migrate_busy_s": t("router.migrate"),
        "memsync.stale_reads": c("memsync.stale_reads"),
        "memsync.max_version_lag": c("memsync.max_version_lag"),
        "engine.arrivals": c("engine.arrivals"),
        "engine.arrivals_s": t("engine.arrivals"),
        "engine.run_s": t("engine.run"),
        "engine.loop_s": t("events.loop"),
        "engine.report_s": t("engine.report"),
        "engine.to_json_s": t("engine.to_json"),
        "engine.windows": c("engine.windows"),
        "engine.dropped_windows": c("engine.dropped_windows"),
        "batcher.start_s": t("batcher.start"),
        "batcher.jobs": probe.get("batcher.jobs", 0),
        "batcher.mean_job_edges": probe.get("batcher.mean_job_edges", 0.0),
        "batcher.coalesce_probe_s":
            probe.get("batcher.coalesce_probe_s", 0.0),
        "events.processed": events,
        "events.cohort_events": c("events.cohort_events"),
        "events.cohort_calls": c("events.cohort_calls"),
        "events.loop_self_s": t("events.loop", "self"),
        "events.self_us_per_event":
            t("events.loop", "self") * 1e6 / max(1, events),
        "rebalance.observe_calls": calls("rebalance.observe"),
        "rebalance.observe_busy_s": t("rebalance.observe"),
        "rebalance.migrations": c("rebalance.migrations"),
        "rebalance.handoff_rows": c("rebalance.handoff_rows"),
        "tracecheck.check_s": t("tracecheck.check"),
        "tracecheck.events": c("tracecheck.events"),
        "tracecheck.findings": c("tracecheck.findings"),
        # Wall of the timed region that no layer's span covers: the
        # region's own self time plus engine.run's (its four phases tile
        # it, so that part is the tracer's own book-keeping).
        "bench.unattributed_frac":
            (t("bench.timed_region", "self") + t("engine.run", "self"))
            / region,
    }
    return m


def exact_names(workload, units: dict[str, str]) -> list[str]:
    """Metrics that must repeat bit for bit between reps and runs."""
    names = [n for n, unit in units.items()
             if unit in ("count", "edges", "sim_s")]
    if workload.measured_backend:      # its service seconds are host time
        names.remove("pipeline.sim_service_s")
    return names


def per_layer(workload, reps, tracer, bounds, probe,
              units) -> tuple[dict, list[str], bool]:
    """Per-layer metrics of the fastest traced rep -- one rep, so busy
    and self times add up to its timed region -- with every traced rep
    kept under ``raw``, the names of the exact metrics, and whether those
    agree on every rep."""
    traced = [r for r in reps if r.traced]
    plain = [r for r in reps if not r.traced]
    rows = [layer_metrics(rep, tracer.spans, b, probe)
            for rep, b in zip(traced, bounds)]
    fastest = min(range(len(traced)), key=lambda i: traced[i].wall_s)
    overhead = traced[fastest].wall_s / min(r.wall_s for r in plain) - 1.0
    exact = exact_names(workload, units)
    repeat = all(row[n] == rows[0][n] for row in rows for n in exact)
    out = {name: {"value": value, "raw": [row[name] for row in rows]}
           for name, value in rows[fastest].items()}
    out["trace.overhead_frac"] = {"value": overhead, "raw": [overhead]}
    return out, exact, repeat


def stage_shares(workload, metrics: dict) -> dict | None:
    """The paper's Table I -> Fig. 6 argument applied to ourselves:
    shares of the four kernel stages (ours: host seconds) beside the
    paper's 1-CPU-thread shares and the operation-count shares.  Shares
    only -- the repo holds no hardware measurements to compare absolutes
    against."""
    from repro.models import KERNEL_STAGES, ModelConfig
    from repro.profiling import count_ops
    from repro.profiling.paper_reference import TABLE1
    ours = {s: metrics[f"models.stage_{s}_s"]["value"] for s in KERNEL_STAGES}
    if not sum(ours.values()):
        return None
    dim = ModelConfig().memory_dim if workload.measured_backend else 32
    cfg = ModelConfig(memory_dim=dim, time_dim=dim, embed_dim=dim,
                      simplified_attention=True, lut_time_encoder=True,
                      pruning_budget=4)
    macs = count_ops(cfg).macs
    paper = {s: TABLE1["wikipedia"][s]["t_1cpu"] for s in KERNEL_STAGES}

    def share(d):
        total = sum(d.values())
        return {s: d[s] / total for s in KERNEL_STAGES}

    return {"host_seconds": share(ours), "paper_t_1cpu": share(paper),
            "count_ops_kmac": share({s: macs.get(s, 0.0)
                                     for s in KERNEL_STAGES})}


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}) \
        .get("blas", {})
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "pins": PINS, "platform": platform.platform()}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    size = "smoke" if args.smoke else "full"
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in benchmark["per_layer"]}

    reps, bounds, probe, tracer = measure(
        workload, args.seed, size, args.seconds, bool(args.trace))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    digest = reps[0].digest
    checks = {"output_identical_across_reps":
              all(r.digest == digest for r in reps)}
    checks.update(workload.verify(args.seed, size, digest, results_dir()))
    expected = json.loads((HERE / "expected.json").read_text())
    if args.seed == 0 and workload.name in expected:
        checks["report_matches_expected_json"] = \
            expected[workload.name][size] == digest

    record = {"workload": workload.name, "seed": args.seed, "size": size,
              "seconds": args.seconds, "trace": args.trace,
              "reps": len(reps), "digest": digest, "env": environment()}
    if args.trace:
        record["metrics"], record["exact"], checks["exact_counts_repeat"] \
            = per_layer(workload, reps, tracer, bounds, probe, units)
        record["stage_shares"] = stage_shares(workload, record["metrics"])
        trace_path = results_dir() / f"trace_{workload.name}.json"
        trace_path.write_text(json.dumps(
            {"workload": workload.name, "seed": args.seed, "size": size,
             "span_fields": ["name", "start", "end", "parent", "rep"],
             "spans": tracer.spans,
             "counts": [r.counts for r in reps if r.traced]}))
        record["trace_file"] = str(trace_path)
    else:
        record["metrics"] = end_to_end(reps, peak_rss_mb)
        record["per_rep"] = {"setup_s": [r.setup_s for r in reps],
                             "run_wall_s": [r.wall_s for r in reps]}
        batch_ms = [s * 1e3 for r in reps for s in r.segments[:-1]] \
            if workload.measured_backend else []
        if batch_ms:
            # Information only: p99 did not repeat between same-code runs.
            record["info"] = {"batch_ms_samples": len(batch_ms),
                              **{f"batch_ms_p{q}": percentile(batch_ms, q)
                                 for q in (50, 95, 99)}}
    correct = all(checks.values())
    record.update(
        checks=checks, correct=correct,
        attempted=sum(r.ops for r in reps),
        failed=sum(r.failed if correct else r.ops for r in reps))
    print(json.dumps(record))
    return 0 if correct and record["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
