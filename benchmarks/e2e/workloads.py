"""The five workloads: set-up, timed region, per-rep and per-run checks.

Every workload builds its inputs from the seed alone and measures the
program through its public surface.  The three ``serve-sim`` fleets are
built the way ``repro.cli.cmd_serve_sim`` builds them (same placement,
die plan, batcher, registry call); ``cli_argv`` gives the matching
command line so the seed-0 check can prove the two agree byte for byte.
With a tracer the same construction takes the proxies of ``tracing.py``
instead of the plain objects.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from repro import datasets
from repro.analysis.tracecheck import check_run
from repro.autograd import no_grad
from repro.graph import iter_fixed_size
from repro.graph.temporal_graph import TemporalGraph
from repro.hw import U200_DESIGN, plan_shard_dies
from repro.models import ModelConfig, TGNN
from repro.pipeline import (LinearCostBackend, SimulatedFPGABackend,
                            SoftwareBackend, run_engine)
from repro.serving import (DEFAULT_REGISTRY, BackendRegistry, DynamicBatcher,
                           OnlineRebalancer, ServingEngine, VertexHeat,
                           make_policy, make_stream_arrivals)

from tracing import (MarkedBackend, TracedAccelerator, TracedBackend,
                     TracedModel, TracedRebalancer, TracedRouter,
                     TracedUpdater, Tracer, traced_scheduler)

__all__ = ["WORKLOADS", "RepResult", "span"]

SHARDS = 4
WINDOW_S = 900.0            # serve-sim default --window-s
SERVE_SIM_DIM = 32          # serve-sim default --memory-dim
PIECES = 128                # segments a fleet rep is cut into


@contextmanager
def span(tracer: Tracer | None, name: str):
    if tracer is None:
        yield
        return
    index = tracer.begin(name)
    try:
        yield
    finally:
        tracer.end(index)


@dataclass
class RepResult:
    ops: int                  # windows offered (fleet) / batches (kernel)
    failed: int               # dropped windows, non-finite batches, or all
                              # ops when the rep's own check fails
    edges: int                # served edges / edges streamed
    digest: str               # sha256 of the rep's output
    segments: list            # host seconds of the timed region's
                              # consecutive segments; they sum to wall_s
    counts: dict = field(default_factory=dict)    # exact layer counters
    setup_s: float = 0.0
    wall_s: float = 0.0
    traced: bool = False


def _np4_model(graph, dim: int, seed: int, tracer: Tracer | None):
    with span(tracer, "models.build"):
        cfg = ModelConfig(memory_dim=dim, time_dim=dim, embed_dim=dim,
                          edge_dim=graph.edge_dim, node_dim=graph.node_dim,
                          simplified_attention=True, lut_time_encoder=True,
                          pruning_budget=4, name="NP(4)")
        model = TGNN(cfg, rng=np.random.default_rng(seed))
        model.calibrate(graph)
        model.prepare_inference()
    return model


def _sha256(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


# --------------------------------------------------------------------------- #
class KernelB200:
    """``run_engine(SoftwareBackend)`` at the paper's dims and batch 200."""

    name = "kernel_b200"
    measured_backend = True   # service seconds are host wall-clock
    edges = {"full": 4_000, "smoke": 1_000}
    batch_size = 200

    def setup(self, seed: int, size: str, tracer: Tracer | None):
        with span(tracer, "datasets.load"):
            graph = datasets.load("wikipedia", num_edges=self.edges[size],
                                  seed=seed)
        model = _np4_model(graph, ModelConfig().memory_dim, seed, tracer)
        with span(tracer, "engine.build"):
            if tracer is None:
                backend = SoftwareBackend(model, graph)
            else:
                backend = TracedBackend(
                    SoftwareBackend(TracedModel(model, tracer), graph),
                    tracer)
        return graph, model, backend

    def timed(self, ctx, tracer: Tracer | None):
        graph, _model, backend = ctx
        return run_engine(backend, graph, batch_size=self.batch_size)

    def finish(self, ctx, report, wall_s: float) -> RepResult:
        """One segment per batch (``run_engine`` reports each batch's
        latency itself) and one for the loop around them."""
        state = ctx[2].rt.state
        latencies = list(report.batch_latencies_s)
        finite = bool(np.isfinite(state.memory).all()
                      and np.isfinite(state.mailbox).all()
                      and np.isfinite(latencies).all())
        ops = len(latencies)
        return RepResult(ops=ops, failed=0 if finite else ops,
                         edges=report.n_edges, digest=_state_digest(state),
                         segments=latencies + [wall_s - sum(latencies)])

    def probe(self, ctx) -> dict:
        return {}

    def verify(self, seed: int, size: str, digest: str, _scratch) -> dict:
        """One untimed pass straight over the kernels: every batch's
        embeddings finite, the first two equal to the autograd reference,
        and the final state equal to what the timed reps left behind."""
        graph, model, _ = self.setup(seed, size, None)
        rt, rt_ref = model.new_runtime(graph), model.new_runtime(graph)
        finite = reference = True
        batches = iter_fixed_size(graph, self.batch_size)
        for i, batch in enumerate(batches):
            emb = model.infer_batch(batch, rt, graph).embeddings.data
            finite = finite and bool(np.isfinite(emb).all())
            if i < 2:
                with no_grad():
                    ref = model.process_batch(batch, rt_ref, graph)
                reference = reference and bool(
                    np.allclose(emb, ref.embeddings.data, atol=1e-6))
        return {"embeddings_finite": finite,
                "matches_autograd_reference": reference,
                "state_matches_verified_pass":
                    _state_digest(rt.state) == digest}


def _state_digest(state) -> str:
    return _sha256(state.memory.tobytes(), state.mailbox.tobytes(),
                   state.mail_time.tobytes(), state.last_update.tobytes())


# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ServeSim:
    """The ``serve-sim`` flags a fleet workload fixes (others at default)."""

    backend: str
    streams: int
    edges: dict
    batch_edges: int | None = None
    deadline_ms: float | None = None
    speedup: float = 2.0
    rebalance_threshold: float | None = None
    check_trace: bool = False

    def argv(self, size: str, json_path: Path) -> list[str]:
        argv = ["serve-sim", "--backend", self.backend,
                "--shards", str(SHARDS), "--streams", str(self.streams),
                "--memsync", "push", "--edges", str(self.edges[size]),
                "--speedup", repr(self.speedup)]
        if self.batch_edges is not None:
            argv += ["--batch-edges", str(self.batch_edges)]
        if self.deadline_ms is not None:
            argv += ["--deadline-ms", repr(self.deadline_ms)]
        if self.rebalance_threshold is not None:
            argv += ["--rebalance-online", "--rebalance-threshold",
                     repr(self.rebalance_threshold)]
        if self.check_trace:
            argv.append("--check-trace")
        return argv + ["--json", str(json_path)]


def _cut(marks: list[float], wall_s: float) -> list[float]:
    """The rep's timed region as ``PIECES + 1`` consecutive segments that
    end at evenly spaced ``process_batch`` call numbers -- the same calls
    on every rep, because the simulation is deterministic.  ``marks[0]``
    is the region's start.  A traced rep has no marks: one segment."""
    if len(marks) < 2:
        return [wall_s]
    stops = np.linspace(1, len(marks), PIECES, endpoint=False).astype(int)
    bounds = [marks[0], *(marks[i] for i in stops), marks[0] + wall_s]
    return np.diff(bounds).tolist()


def _marked_registry(marks: list[float]) -> BackendRegistry:
    """The two registry names the fleets use, each backend marked."""
    registry = BackendRegistry()
    for name in ("u200", "cpu-32t"):
        registry.register(
            name, lambda model, graph, _name=name, **kwargs: MarkedBackend(
                DEFAULT_REGISTRY.create(_name, model, graph, **kwargs),
                marks))
    return registry


def _traced_registry(tracer: Tracer) -> BackendRegistry:
    """The two registry names the fleets use, built with proxies."""
    registry = BackendRegistry()

    @registry.register("u200")
    def _u200(model, graph, **_):
        acc = TracedAccelerator(TracedModel(model, tracer), U200_DESIGN)
        acc.tracer = tracer
        acc.updater = TracedUpdater(acc.updater, tracer)
        return TracedBackend(SimulatedFPGABackend(acc, graph), tracer)

    @registry.register("cpu-32t")
    def _cpu32t(model, graph, **kwargs):
        return TracedBackend(
            DEFAULT_REGISTRY.create("cpu-32t", model, graph, **kwargs),
            tracer)

    return registry


@dataclass
class FleetCtx:
    graph: TemporalGraph
    engine: ServingEngine
    run_kwargs: dict
    marks: list[float]        # untraced: clock at every process_batch
    initial_owner: np.ndarray | None = None
    rebalancer: OnlineRebalancer | None = None


class _EngineWorkload:
    """Timed region and checks shared by every ``ServingEngine`` workload:
    ``engine.run`` + ``report.to_json()`` (+ ``check_run`` when traced)."""

    measured_backend = False

    def timed(self, ctx: FleetCtx, tracer: Tracer | None):
        run_kwargs = ctx.run_kwargs
        ctx.marks.append(perf_counter())
        with span(tracer, "engine.run"):
            if tracer is not None:
                tracer.begin("engine.arrivals")
                run_kwargs = dict(run_kwargs,
                                  scheduler_cls=traced_scheduler(tracer))
            report = ctx.engine.run(ctx.graph, **run_kwargs)
            if tracer is not None:
                tracer.end_innermost()          # engine.report
        with span(tracer, "engine.to_json"):
            report_json = report.to_json()
        check = None
        if ctx.run_kwargs.get("trace"):
            with span(tracer, "tracecheck.check"):
                check = check_run(engine=ctx.engine, report=report,
                                  initial_assignment=ctx.initial_owner)
        return report, report_json, check

    def finish(self, ctx: FleetCtx, out, wall_s: float) -> RepResult:
        report, report_json, check = out
        engine = ctx.engine
        if engine.workers != 0:
            raise RuntimeError("the benchmark runs with workers=0 only")
        offered = engine.last_num_arrivals
        ok = report.windows + report.dropped_windows == offered \
            and (check is None or check.ok)
        sched = engine.last_scheduler
        counts = {
            "engine.arrivals": offered,
            "engine.windows": report.windows,
            "engine.dropped_windows": report.dropped_windows,
            "events.processed": sched.events_processed,
            "events.cohort_events": sched.cohort_events,
            "events.cohort_calls": sched.cohort_calls,
        }
        if ctx.rebalancer is not None:
            counts["rebalance.migrations"] = ctx.rebalancer.migrations
            counts["rebalance.handoff_rows"] = ctx.rebalancer.handoff_rows
        if check is not None:
            counts["tracecheck.events"] = check.events
            counts["tracecheck.findings"] = len(check.findings)
        return RepResult(ops=offered,
                         failed=report.dropped_windows if ok else offered,
                         edges=report.served_edges,
                         digest=_sha256(report_json.encode()),
                         segments=_cut(ctx.marks, wall_s), counts=counts)

    def probe(self, ctx: FleetCtx) -> dict:
        """Offline ``DynamicBatcher.coalesce`` over the same arrivals: the
        job count and size the online actor releases (serial ingest
        matches it exactly), and what the policy costs on its own."""
        kw = ctx.run_kwargs
        arrivals = make_stream_arrivals(ctx.graph, kw["window_s"],
                                        num_streams=kw["num_streams"],
                                        speedup=kw["speedup"])
        t0 = perf_counter()
        jobs = ctx.engine.batcher.coalesce(arrivals)
        seconds = perf_counter() - t0
        return {"batcher.coalesce_probe_s": seconds,
                "batcher.jobs": len(jobs),
                "batcher.mean_job_edges":
                    sum(j.n_edges for j in jobs) / len(jobs)}


class Fleet(_EngineWorkload):
    """One sharded ``serve-sim`` configuration on the wikipedia analogue."""

    def __init__(self, name: str, spec: ServeSim):
        self.name = name
        self.spec = spec

    def setup(self, seed: int, size: str, tracer: Tracer | None) -> FleetCtx:
        spec = self.spec
        with span(tracer, "datasets.load"):
            graph = datasets.load("wikipedia", num_edges=spec.edges[size],
                                  seed=seed)
        model = _np4_model(graph, SERVE_SIM_DIM, seed, tracer)
        kwargs: dict = {}
        with span(tracer, "placement.place"):
            placement = make_policy("hash").place(
                VertexHeat.from_graph(graph), SHARDS)
            if spec.backend == "u200":
                kwargs["die_of"] = plan_shard_dies(
                    placement.num_shards, U200_DESIGN.platform.dies)
                kwargs["mail_hop_s"] = \
                    U200_DESIGN.die_crossing_cycles * U200_DESIGN.clock_s
        with span(tracer, "engine.build"):
            batcher = DynamicBatcher(
                max_edges=spec.batch_edges,
                max_delay_s=None if spec.deadline_ms is None
                else spec.deadline_ms / 1e3)
            rebalancer = None
            marks: list[float] = []
            if spec.rebalance_threshold is not None:
                cls = OnlineRebalancer if tracer is None else TracedRebalancer
                rebalancer = cls(window_s=WINDOW_S / spec.speedup,
                                 util_threshold=spec.rebalance_threshold)
                kwargs["rebalancer"] = rebalancer
            if tracer is None:
                kwargs["placement"] = placement
                registry = _marked_registry(marks)
            else:
                router = TracedRouter.from_placement(placement)
                router.tracer = tracer
                if rebalancer is not None:
                    rebalancer.tracer = tracer
                kwargs["router"] = router
                registry = _traced_registry(tracer)
            engine = ServingEngine.from_registry(
                spec.backend, model, graph, num_shards=SHARDS,
                registry=registry,
                backend_kwargs={"functional": False}
                if spec.backend == "cpu-32t" else None,
                batcher=batcher, topology="sharded", memsync="push",
                **kwargs)
        return FleetCtx(
            graph, engine,
            dict(window_s=WINDOW_S, speedup=spec.speedup,
                 num_streams=spec.streams, trace=spec.check_trace),
            marks,
            initial_owner=engine.router.assignment.copy(),
            rebalancer=rebalancer)

    def verify(self, seed: int, size: str, digest: str,
               scratch: Path) -> dict:
        """Seed 0 is the one seed ``serve-sim`` can reproduce (its
        ``_dataset`` ignores ``--seed``): the CLI's JSON must be the
        bytes the timed reps produced."""
        if seed != 0:
            return {}
        from repro.cli import main as cli_main
        path = scratch / f"cli_{self.name}.json"
        lines: list[str] = []
        code = cli_main(self.spec.argv(size, path), out=lines.append)
        cli_digest = _sha256(path.read_bytes().rstrip(b"\n"))
        path.unlink()
        return {"cli_exit_0": code == 0,
                "cli_report_byte_identical": cli_digest == digest}


class FleetPoolIngest(_EngineWorkload):
    """The event-core lane of ``bench_serving_scale`` at full size: a pool
    of two priced replicas fed ~2-edge windows of a uniform graph."""

    name = "fleet_pool_ingest"
    edges = {"full": 6_000, "smoke": 2_000}

    def setup(self, seed: int, size: str, tracer: Tracer | None) -> FleetCtx:
        n = self.edges[size]
        with span(tracer, "datasets.load"):
            rng = np.random.default_rng(seed)
            t = np.sort(rng.uniform(0, 1e4, n))
            graph = TemporalGraph(src=rng.integers(0, 200, n),
                                  dst=rng.integers(0, 200, n), t=t,
                                  edge_feat=np.zeros((n, 0)), num_nodes=200)
        with span(tracer, "engine.build"):
            marks: list[float] = []
            backend = LinearCostBackend(1e-6)
            backend = MarkedBackend(backend, marks) if tracer is None \
                else TracedBackend(backend, tracer)
            engine = ServingEngine([backend], graph.num_nodes,
                                   topology="pool", pool_servers=2,
                                   batcher=DynamicBatcher(max_delay_s=2.0))
        return FleetCtx(graph, engine,
                        dict(window_s=1e4 / (n // 2), speedup=50.0,
                             num_streams=8), marks)

    def verify(self, seed, size, digest, scratch) -> dict:
        return {}


WORKLOADS = {w.name: w for w in (
    KernelB200(),
    Fleet("fleet_u200_push", ServeSim(
        backend="u200", streams=4, edges={"full": 32, "smoke": 16},
        batch_edges=200, deadline_ms=5.0)),
    Fleet("fleet_priced_push", ServeSim(
        backend="cpu-32t", streams=8, edges={"full": 100, "smoke": 50},
        batch_edges=200, deadline_ms=5.0)),
    FleetPoolIngest(),
    Fleet("fleet_control_traced", ServeSim(
        backend="cpu-32t", streams=8, edges={"full": 80, "smoke": 40},
        speedup=2000.0, rebalance_threshold=0.05, check_trace=True)),
)}
