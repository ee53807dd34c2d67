"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
``info``    package, dataset registry, published design points.
``train``   self-supervised training (optionally distilled from a teacher
            checkpoint) on a named dataset analogue; saves a ``.npz`` model.
``eval``    streaming AP/AUC of a checkpoint on a dataset split.
``infer``   throughput/latency of a checkpoint on a backend
            (``software`` measured, ``u200``/``zcu104`` simulated).
``dse``     design-space sweep + Pareto frontier for a platform.
``trace``   simulate a few batches with tracing and print the ASCII Gantt
            chart + per-stage utilization.
``serve-sim``  multi-stream serving simulation on the discrete-event core:
            N shards, a shared-queue pool of N replicas, or the hybrid
            hot/cold topology (``--topology sharded|pool|hybrid``) x M
            streams through a named backend, with dynamic batching and
            serial or double-buffered ingest
            (``--ingest serial|pipelined``), placement policies
            (``--placement hash|rebalance|replicate``), cross-shard
            memory sync policies (``--memsync none|invalidate|push``),
            online rebalancing (``--rebalance-online`` with
            ``--rebalance-threshold`` / ``--rebalance-window``: mid-run
            `MigrationEvent` ownership changes with priced state handoff),
            SLO-driven autoscaling (``--autoscale --slo-p95`` with
            ``--scale-window`` / ``--max-servers``: mid-run `ScaleEvent`
            fleet resizing — pool replicas spin up/down, shards
            split/merge with priced handoff),
            and per-shard queueing statistics; ``--json`` writes a
            canonical (byte-stable) report, and ``--ingest serial``
            without the rebalance flags is byte-identical to the
            pre-event-core engine.

Every command is a plain function taking parsed args, so tests invoke them
without subprocesses.
"""

from __future__ import annotations

import argparse

import numpy as np

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    from .datasets import DATASETS
    from .hw import BOARDS
    datasets, boards = sorted(DATASETS), list(BOARDS)
    p = argparse.ArgumentParser(
        prog="repro",
        description="Temporal GNN model-architecture co-design (IPDPS'22 "
                    "reproduction)")
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="package and registry overview")

    t = sub.add_parser("train", help="train (or distill) a model")
    t.add_argument("--dataset", default="wikipedia", choices=datasets)
    t.add_argument("--edges", type=int, default=3000)
    t.add_argument("--epochs", type=int, default=3)
    t.add_argument("--batch-size", type=int, default=100)
    t.add_argument("--memory-dim", type=int, default=32)
    t.add_argument("--neighbors", type=int, default=10)
    t.add_argument("--simplified", action="store_true",
                   help="use the Eq.(16) attention (required for --prune)")
    t.add_argument("--lut", action="store_true", help="LUT time encoder")
    t.add_argument("--prune", type=int, default=None,
                   help="neighbor pruning budget")
    t.add_argument("--teacher", default=None,
                   help="teacher checkpoint for knowledge distillation")
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--out", required=True, help="output checkpoint (.npz)")

    e = sub.add_parser("eval", help="evaluate a checkpoint")
    e.add_argument("--model", required=True)
    e.add_argument("--dataset", default="wikipedia", choices=datasets)
    e.add_argument("--edges", type=int, default=3000)
    e.add_argument("--batch-size", type=int, default=100)

    i = sub.add_parser("infer", help="throughput/latency of a checkpoint")
    i.add_argument("--model", required=True)
    i.add_argument("--dataset", default="wikipedia", choices=datasets)
    i.add_argument("--edges", type=int, default=3000)
    i.add_argument("--batch-size", type=int, default=200)
    i.add_argument("--backend", choices=["software", *boards],
                   default="software")

    d = sub.add_parser("dse", help="design-space exploration")
    d.add_argument("--platform", choices=boards, default="u200")
    d.add_argument("--prune", type=int, default=4)
    d.add_argument("--batch-size", type=int, default=1000)

    g = sub.add_parser("trace", help="pipeline Gantt chart")
    g.add_argument("--platform", choices=boards, default="zcu104")
    g.add_argument("--batches", type=int, default=3)
    g.add_argument("--width", type=int, default=100)
    g.add_argument("--seed", type=int, default=0)

    v = sub.add_parser("serve-sim",
                       help="sharded multi-stream serving simulation")
    v.add_argument("--dataset", default="wikipedia", choices=datasets)
    v.add_argument("--edges", type=int, default=2000)
    v.add_argument("--shards", type=int, default=4)
    v.add_argument("--streams", type=int, default=4)
    v.add_argument("--speedup", type=float, default=2.0,
                   help="stream-time compression (load multiplier)")
    v.add_argument("--window-s", type=float, default=900.0)
    from .serving.registry import DEFAULT_REGISTRY
    v.add_argument("--backend", default="zcu104",
                   choices=DEFAULT_REGISTRY.available(),
                   help="registry backend name, replicated per shard; "
                        "'measured' executes the real numpy kernels in a "
                        "worker pool (--workers) and reconciles measured "
                        "durations into event time")
    v.add_argument("--workers", type=int, default=0,
                   help="measured backend only: worker-pool process lanes "
                        "running the real kernels (shard s on lane "
                        "s %% N); 0 computes in-process with one virtual "
                        "lane per shard")
    v.add_argument("--batch-edges", type=int, default=None,
                   help="dynamic batcher size trigger (edges)")
    v.add_argument("--deadline-ms", type=float, default=None,
                   help="dynamic batcher flush deadline (default: "
                        "passthrough, or unbounded with --batch-edges)")
    v.add_argument("--queue-capacity", type=int, default=None)
    from .serving.placement import PLACEMENT_POLICIES
    v.add_argument("--placement", default="hash",
                   choices=sorted(PLACEMENT_POLICIES),
                   help="vertex placement policy (sharded topology); "
                        "'rebalance' runs a hash-placed profiling pass "
                        "first and migrates hot vertices off overloaded "
                        "shards")
    v.add_argument("--topology", default="sharded",
                   choices=["sharded", "pool", "hybrid"],
                   help="partitioned shards with dedicated queues; a pool "
                        "of stateless replicas behind one shared queue; or "
                        "hybrid — the measured hot head on dedicated "
                        "shards and the cold tail drained by a shared-"
                        "queue pool, in one event loop")
    v.add_argument("--ingest", default="serial",
                   choices=["serial", "pipelined"],
                   help="ingest tier: 'serial' serializes batching delay "
                        "in front of service (byte-identical to the pre-"
                        "event-core engine); 'pipelined' double-buffers "
                        "the ingest so the batcher flushes the moment the "
                        "fleet goes hungry and batching delay hides "
                        "behind in-flight compute")
    v.add_argument("--hot-top-k", type=int, default=16,
                   help="hybrid: how many of the hottest vertices (by "
                        "measured heat) go to the dedicated shards")
    v.add_argument("--pool-servers", type=int, default=None,
                   help="replica count behind the shared queue (pool and "
                        "hybrid; defaults to --shards)")
    from .serving.memsync import MEMSYNC_POLICIES
    v.add_argument("--memsync", default="none",
                   choices=list(MEMSYNC_POLICIES),
                   help="cross-shard vertex-memory sync policy (sharded "
                        "topology): 'none' keeps stale mirrors (and "
                        "measures the staleness), 'invalidate' pulls fresh "
                        "rows on stale reads, 'push' forwards owner writes "
                        "alongside the edge mail")
    v.add_argument("--util-threshold", type=float, default=0.75,
                   help="rebalance: migrate off shards above this measured "
                        "utilization")
    v.add_argument("--rebalance-online", action="store_true",
                   help="run the OnlineRebalancer on the event loop: "
                        "migrate vertex ownership mid-run off shards whose "
                        "window utilization exceeds --rebalance-threshold "
                        "(sharded), or track hot-set drift between pool "
                        "and dedicated shards (hybrid); state handoff is "
                        "priced like sync traffic")
    v.add_argument("--rebalance-threshold", type=float, default=0.75,
                   help="online rebalancing: donate off shards above this "
                        "window utilization (sharded topology)")
    v.add_argument("--rebalance-window", type=float, default=None,
                   metavar="SECONDS",
                   help="online rebalancing: measurement window in served "
                        "(event-loop) seconds; default is one workload "
                        "window, --window-s / --speedup")
    v.add_argument("--autoscale", action="store_true",
                   help="run the AutoScaler on the event loop: watch "
                        "windowed p95 response latency against --slo-p95 "
                        "and resize the fleet mid-run via ScaleEvents — "
                        "pool replicas spin up/down in place; sharded "
                        "shards split/merge ownership across a "
                        "--max-servers-slot fleet with priced state "
                        "handoff (requires --placement hash)")
    v.add_argument("--slo-p95", type=float, default=None, metavar="SECONDS",
                   help="autoscale: the SLO band's upper edge in event-"
                        "loop seconds (window p95 above it scales up; "
                        "p95 at or below half of it scales down)")
    v.add_argument("--scale-window", type=float, default=None,
                   metavar="SECONDS",
                   help="autoscale: measurement window in event-loop "
                        "seconds; default is one workload window, "
                        "--window-s / --speedup")
    v.add_argument("--max-servers", type=int, default=None,
                   help="autoscale: fleet-size ceiling (default twice the "
                        "initial fleet)")
    v.add_argument("--replicate-top-k", type=int, default=8,
                   help="replicate: how many read-mostly hot vertices to "
                        "replicate")
    v.add_argument("--fail-at", type=float, default=None, metavar="SECONDS",
                   help="chaos: inject a shard failure at this event-loop "
                        "time (sharded topology)")
    v.add_argument("--fail-shard", type=int, default=0,
                   help="chaos: which shard fails")
    v.add_argument("--fail-mode", default="dead",
                   choices=["dead", "slow"],
                   help="chaos: 'dead' stops the shard and loses its "
                        "vertex state (replica mirrors are promoted to "
                        "owners, the rest is rebuilt by memsync replay "
                        "from peers); 'slow' multiplies its service times "
                        "by --fail-degradation")
    v.add_argument("--recover-at", type=float, default=None,
                   metavar="SECONDS",
                   help="chaos: restore the failed shard at this event-"
                        "loop time (dead mode migrates the held state "
                        "back to it)")
    v.add_argument("--fail-degradation", type=float, default=4.0,
                   help="chaos: slow-mode service-time multiplier")
    v.add_argument("--json", default=None, metavar="PATH",
                   help="also write the report as canonical JSON (byte-"
                        "identical across runs with the same arguments on "
                        "the modeled/simulated backends; the 'software' "
                        "backend measures wall-clock and will differ)")
    v.add_argument("--check-trace", action="store_true",
                   help="record the typed event trace and replay it "
                        "through repro.analysis.tracecheck (causality, "
                        "exactly-once service/ownership, conservation); "
                        "prints the findings report and exits 3 on any "
                        "finding")
    v.add_argument("--model", default=None,
                   help="optional checkpoint (.npz); default builds NP(4)")
    v.add_argument("--memory-dim", type=int, default=32)
    v.add_argument("--seed", type=int, default=0)
    return p


# --------------------------------------------------------------------------- #
def _dataset(args):
    from .datasets import load
    return load(args.dataset, num_edges=args.edges)


def _model_cfg(args, graph):
    from .models import ModelConfig
    return ModelConfig(memory_dim=args.memory_dim, time_dim=args.memory_dim,
                       embed_dim=args.memory_dim,
                       edge_dim=graph.edge_dim, node_dim=graph.node_dim,
                       num_neighbors=args.neighbors,
                       simplified_attention=args.simplified or bool(args.teacher),
                       lut_time_encoder=args.lut,
                       pruning_budget=args.prune)


def cmd_info(args, out=print) -> int:
    from . import __version__
    from .datasets import DATASETS
    from .hw import BOARDS
    out(f"repro {__version__} — IPDPS'22 TGNN co-design reproduction")
    out(f"datasets: {', '.join(sorted(DATASETS))}")
    for name, hw in BOARDS.items():
        out(f"{name}: Ncu={hw.n_cu} Sg={hw.sg} SFAM={hw.s_fam} "
            f"SFTM={hw.s_ftm} Nb={hw.nb} @ {hw.freq_mhz:.0f} MHz, "
            f"{hw.platform.ddr_bw_gbs:.1f} GB/s DDR")
    return 0


def cmd_train(args, out=print) -> int:
    from .models import TGNN, load_model, save_model
    from .training import (DistillationConfig, DistillationTrainer,
                           TrainConfig, Trainer)
    graph = _dataset(args)
    _, (train_end, val_end, test_end) = graph.split()
    cfg = _model_cfg(args, graph)
    model = TGNN(cfg, rng=np.random.default_rng(args.seed))
    model.calibrate(graph)
    if args.teacher:
        trainer = DistillationTrainer(
            load_model(args.teacher), model, graph,
            DistillationConfig(epochs=args.epochs,
                               batch_size=args.batch_size, seed=args.seed),
            warm_start=True)
        hist = trainer.train(train_end)
        out(f"distilled {args.epochs} epochs: "
            f"kd_loss {hist[-1]['kd_loss']:.4f}, "
            f"agreement {hist[-1]['top1_agreement']:.3f}")
    else:
        trainer = Trainer(model, graph,
                          TrainConfig(epochs=args.epochs,
                                      batch_size=args.batch_size,
                                      seed=args.seed))
        hist = trainer.train(train_end)
        out(f"trained {args.epochs} epochs: loss {hist[-1]['loss']:.4f}")
    res = trainer.evaluate(val_end, test_end)
    out(f"test AP {res.ap:.4f}  AUC {res.auc:.4f}")
    save_model(model, args.out)
    out(f"saved checkpoint to {args.out}")
    return 0


def cmd_eval(args, out=print) -> int:
    from .models import load_model
    from .training import TrainConfig, Trainer
    graph = _dataset(args)
    _, (train_end, val_end, test_end) = graph.split()
    model = load_model(args.model)
    trainer = Trainer(model, graph,
                      TrainConfig(batch_size=args.batch_size, seed=0))
    res = trainer.evaluate(val_end, test_end)
    out(f"test AP {res.ap:.4f}  AUC {res.auc:.4f} "
        f"over {res.n_edges} edges")
    return 0


def cmd_infer(args, out=print) -> int:
    from .hw import BOARDS, FPGAAccelerator
    from .models import load_model
    from .pipeline import (SimulatedFPGABackend, SoftwareBackend,
                           run_engine)
    graph = _dataset(args)
    model = load_model(args.model)
    if args.backend == "software":
        backend = SoftwareBackend(model, graph)
        label = "measured (1 thread)"
    else:
        backend = SimulatedFPGABackend(
            FPGAAccelerator(model, BOARDS[args.backend]), graph)
        label = f"simulated ({args.backend})"
    report = run_engine(backend, graph, batch_size=args.batch_size)
    out(f"{label}: {report.throughput_eps / 1e3:.2f} kE/s, "
        f"mean batch latency {report.mean_latency_s * 1e3:.3f} ms "
        f"over {report.n_edges} edges")
    return 0


def cmd_dse(args, out=print) -> int:
    from .hw import BOARDS, explore, pareto_frontier
    from .models import ModelConfig
    platform = BOARDS[args.platform].platform
    cfg = ModelConfig(simplified_attention=True, lut_time_encoder=True,
                      pruning_budget=args.prune)
    points = explore(cfg, platform, batch_size=args.batch_size)
    frontier = pareto_frontier(points)
    out(f"{len(points)} feasible designs on {args.platform}; "
        f"frontier ({len(frontier)} points):")
    for p in frontier:
        out(f"  Ncu={p.hw.n_cu} Sg={p.hw.sg} SFAM={p.hw.s_fam} "
            f"SFTM={p.hw.s_ftm} Nb={p.hw.nb}: {p.dsp} DSP, "
            f"{p.throughput_eps / 1e3:.1f} kE/s, "
            f"{p.latency_s * 1e3:.2f} ms @ N={args.batch_size}")
    return 0


def cmd_trace(args, out=print) -> int:
    from .datasets import wikipedia_like
    from .hw import (BOARDS, FPGAAccelerator, pipeline_overlap, render_gantt,
                     stage_utilization)
    from .models import ModelConfig, TGNN
    design = BOARDS[args.platform]
    graph = wikipedia_like(num_edges=1000, num_users=120, num_items=25)
    cfg = ModelConfig(simplified_attention=True, lut_time_encoder=True,
                      pruning_budget=4)
    model = TGNN(cfg, rng=np.random.default_rng(args.seed))
    model.calibrate(graph)
    acc = FPGAAccelerator(model, design)
    n = args.batches * design.nb
    report = acc.run_stream(graph, batch_size=n, end=n, trace=True)
    out(render_gantt(report, width=args.width))
    out("")
    for stage, util in stage_utilization(report).items():
        out(f"{stage:>18}: {'#' * int(40 * util):<40} {util * 100:5.1f}%")
    out(f"\npipeline overlap factor: {pipeline_overlap(report):.2f}x "
        f"(1.0 = serial)")
    return 0


def _si(value: float, units) -> str:
    """``value`` in the largest of ``units`` (``(scale, suffix)``, smallest
    first) that keeps it at or above one, to four significant digits —
    so a non-zero quantity never prints as an all-zero figure."""
    scale, suffix = next((u for u in reversed(units) if abs(value) >= u[0]),
                         units[0])
    return f"{value / scale:.4g} {suffix}"


def _fmt_time(seconds: float) -> str:
    return _si(seconds, ((1e-6, "µs"), (1e-3, "ms"), (1.0, "s")))


def _fmt_rate(edges_per_s: float) -> str:
    return _si(edges_per_s, ((1.0, "E/s"), (1e3, "kE/s"), (1e6, "ME/s")))


def _simulate_fleet(args, graph, model, out):
    """Build the fleet ``args`` describes and replay the workload.

    Nothing here judges whether the options are legal: the serving
    library validates every value and combination at construction or at
    the top of ``run``, and its ``ValueError`` is the CLI's error message
    (``main`` catches it).  Returns ``(report, engine,
    initial_owner)``.
    """
    from .serving import (DEFAULT_REGISTRY, DynamicBatcher, OnlineRebalancer,
                          ServingEngine, VertexHeat, make_policy)
    batcher = DynamicBatcher(
        max_edges=args.batch_edges,
        max_delay_s=None if args.deadline_ms is None
        else args.deadline_ms / 1e3)
    from .hw import BOARDS
    fpga_design = BOARDS.get(args.backend)

    def build_engine(placement=None, die_of=None, rebalancer=None,
                     failures=None, autoscaler=None, num_shards=None):
        kwargs = dict(memsync=args.memsync, hot_top_k=args.hot_top_k,
                      rebalancer=rebalancer, failures=failures,
                      autoscaler=autoscaler, workers=args.workers)
        if placement is not None:
            kwargs["placement"] = placement
        if args.topology != "sharded" and args.pool_servers is not None:
            kwargs["pool_servers"] = args.pool_servers
        if fpga_design is not None:
            # Price cross-shard mailbox traffic at the SLR-crossing
            # latency of the simulated part (single-die parts get an
            # all-zero penalty, and a pool forwards nothing to price).
            kwargs["die_of"] = die_of
            kwargs["mail_hop_s"] = \
                fpga_design.die_crossing_cycles * fpga_design.clock_s
        return ServingEngine.from_registry(
            args.backend, model, graph,
            num_shards=args.shards if num_shards is None else num_shards,
            registry=DEFAULT_REGISTRY, batcher=batcher,
            topology=args.topology, **kwargs)

    def run(engine):
        return engine.run(graph, window_s=args.window_s,
                          speedup=args.speedup, num_streams=args.streams,
                          queue_capacity=args.queue_capacity,
                          ingest=args.ingest, trace=args.check_trace)

    def plan_dies(placement):
        if fpga_design is None:
            return None
        from .hw import plan_shard_dies, plan_shard_dies_traffic_aware
        dies = fpga_design.platform.dies
        if placement is None:
            # The engine lays these fleets out itself (a pool owns
            # everything, a hybrid splits hot from cold by measured heat).
            return plan_shard_dies(
                ServingEngine.station_count(args.topology, args.shards),
                dies)
        # Branch on whether the placement actually changed anything — a
        # rebalance *profiling* pass is still the hash partition and must
        # be priced exactly as `--placement hash` would deploy.
        if not (placement.moved_vertices or placement.replicated_vertices):
            # The placement's own shard count covers elastic fleets too:
            # a padded autoscale layout needs a die for every station the
            # controller may ever activate.
            return plan_shard_dies(placement.num_shards, dies)
        # The policy moved/replicated vertices, so the expected mailbox
        # traffic matrix changed: re-plan the shard -> die assignment
        # against the *new* traffic so die crossings are priced correctly.
        return plan_shard_dies_traffic_aware(
            placement.mail_matrix(graph.src, graph.dst), dies)

    placement = None
    if args.topology == "sharded":
        if args.pool_servers is not None:
            out(f"note: --pool-servers {args.pool_servers} is ignored in "
                f"sharded topology (every shard is one dedicated server)")
        heat = VertexHeat.from_graph(graph)
        if args.placement == "rebalance":
            policy = make_policy("rebalance",
                                 util_threshold=args.util_threshold)
            base = policy.place(heat, args.shards)      # hash baseline
            profile = run(build_engine(die_of=plan_dies(base))).shard_stats
            placement = policy.place(heat, args.shards, profile=profile)
            out(f"rebalance: profiled max util "
                f"{max(s.utilization for s in profile) * 100:.2f}%, "
                f"migrated {len(placement.moved_vertices)} vertex(es) off "
                f"shards above {args.util_threshold * 100:.0f}%")
        elif args.placement == "replicate":
            placement = make_policy(
                "replicate", top_k=args.replicate_top_k).place(heat,
                                                               args.shards)
            out(f"replicate: {placement.replicated_vertices} read-mostly "
                f"vertex(es) replicated "
                f"({placement.replica_copies} extra copies)")
        else:
            placement = make_policy("hash").place(heat, args.shards)
    elif args.placement != "hash":
        out(f"note: --placement {args.placement} is ignored in "
            f"{args.topology} topology (only a sharded fleet is laid out "
            f"by a placement policy)")

    def controller_window(explicit):
        """A controller's sampling window; by default one workload window
        in event-loop seconds (arrival time is stream time compressed by
        --speedup).  A zero speedup has no such window and is not divided
        by: ``run`` rejects it with the library's own error."""
        if explicit is not None:
            return explicit
        return args.window_s / (args.speedup or 1.0)

    rebalancer = None
    if args.rebalance_online:
        rebalancer = OnlineRebalancer(
            window_s=controller_window(args.rebalance_window),
            util_threshold=args.rebalance_threshold)

    plans = None
    if args.fail_at is not None:
        from .serving import FailurePlan
        plans = FailurePlan(fail_at=args.fail_at, shard=args.fail_shard,
                            mode=args.fail_mode, recover_at=args.recover_at,
                            degradation=args.fail_degradation)

    autoscaler = None
    engine_shards = None
    if args.autoscale:
        from .serving import (AutoScaler, CapacityConfig,
                              padded_hash_placement)
        initial = (args.pool_servers or args.shards) \
            if args.topology == "pool" else args.shards
        capacity = CapacityConfig(
            micro_batch=args.batch_edges or 1, replicas=initial,
            max_replicas=args.max_servers if args.max_servers is not None
            else 2 * initial)
        if args.topology == "sharded":
            # The elastic fleet is a max-servers-slot station array: the
            # hash layout covers the active prefix, the padded tail owns
            # nothing until a split activates it.
            engine_shards = capacity.max_replicas
            placement = padded_hash_placement(graph.num_nodes, args.shards,
                                              engine_shards)
        autoscaler = AutoScaler(
            capacity, slo_p95_s=args.slo_p95,
            scale_window_s=controller_window(args.scale_window))

    engine = build_engine(
        placement=placement, die_of=plan_dies(placement),
        rebalancer=rebalancer, failures=plans, autoscaler=autoscaler,
        num_shards=engine_shards)
    initial_owner = engine.router.assignment.copy()
    return run(engine), engine, initial_owner


def cmd_serve_sim(args, out=print) -> int:
    from .models import ModelConfig, TGNN, load_model
    # Flag *presence* is the one thing only the CLI can judge; every value
    # and combination is validated by the library (see _simulate_fleet).
    if args.autoscale and args.slo_p95 is None:
        out("error: --autoscale requires --slo-p95 (the SLO the "
            "controller scales against)")
        return 2
    if args.autoscale and args.topology == "sharded" \
            and args.placement != "hash":
        out(f"error: --autoscale requires --placement hash on the "
            f"sharded topology (splits and merges need an "
            f"unreplicated hash layout; {args.placement} would put "
            f"replicas or profiled moves underneath the controller)")
        return 2
    scale_flags = [name for name, value in
                   (("--slo-p95", args.slo_p95),
                    ("--scale-window", args.scale_window),
                    ("--max-servers", args.max_servers))
                   if value is not None]
    if scale_flags and not args.autoscale:
        out(f"error: {', '.join(scale_flags)} require(s) --autoscale")
        return 2

    graph = _dataset(args)
    if args.model:
        model = load_model(args.model)
    else:
        cfg = ModelConfig(memory_dim=args.memory_dim,
                          time_dim=args.memory_dim,
                          embed_dim=args.memory_dim,
                          edge_dim=graph.edge_dim,
                          node_dim=graph.node_dim,
                          simplified_attention=True,
                          lut_time_encoder=True,
                          pruning_budget=4, name="NP(4)")
        model = TGNN(cfg, rng=np.random.default_rng(args.seed))
        model.calibrate(graph)
        model.prepare_inference()
    report, engine, initial_owner = \
        _simulate_fleet(args, graph, model, out)

    if args.check_trace:
        # Replay the recorded trace through the invariant checker: the
        # run's own causality/exactly-once/conservation story.
        from .analysis.tracecheck import check_run
        result = check_run(engine=engine, report=report,
                           initial_assignment=initial_owner)
        out(result.render())
        if not result.ok:
            return 3

    if args.topology == "pool":
        label = (f"serve-sim: pool of {report.pool_servers} "
                 f"replica(s) x {report.num_streams} stream(s)")
    elif args.topology == "hybrid":
        label = (f"serve-sim: {report.num_shards - 1} hot shard(s) + pool "
                 f"of {report.pool_servers} replica(s) x "
                 f"{report.num_streams} stream(s)")
    else:
        label = (f"serve-sim: {report.num_shards} shard(s) x "
                 f"{report.num_streams} stream(s)")
    ingest_tag = "" if report.ingest == "serial" \
        else f" [ingest {report.ingest}]"
    out(f"{label} @ {report.speedup:g}x load on {args.backend} "
        f"[placement {report.placement}]{ingest_tag}")
    for s in report.shard_stats:
        out(f"  shard {s.shard}: util {s.utilization * 100:.3g}%  "
            f"jobs {s.jobs}  edges {s.edges} (mail {s.mail_in_edges})  "
            f"wait {_fmt_time(s.mean_wait_s)}  "
            f"p95 {_fmt_time(s.p95_response_s)}  drops {s.dropped_jobs}")
    out(f"windows {report.windows} (dropped {report.dropped_windows}), "
        f"response p95 {_fmt_time(report.p95_response_s)} / "
        f"p99 {_fmt_time(report.p99_response_s)}, "
        f"throughput {_fmt_rate(report.throughput_eps)}")
    out(f"cross-shard edges {report.cross_shard_edges} "
        f"(x{report.replication_factor:.2f} replication, "
        f"{report.replicated_vertices} replicated vertices, "
        f"{report.cross_die_mail_edges} die crossings); "
        f"{'stable' if report.stable else 'OVERLOADED'}")
    if report.memsync != "none":
        out(f"memsync {report.memsync}: {report.sync_edges} memory rows "
            f"synced, {report.stale_reads} stale reads "
            f"(max version lag {report.max_version_lag})")
    if report.rebalance == "online":
        out(f"rebalance online: {report.migrations} migration(s) of "
            f"{report.migrated_vertices} vertex(es), "
            f"{report.handoff_rows} state rows handed off")
    if report.chaos != "off":
        out(f"chaos {report.chaos}: {report.failures} failure(s) / "
            f"{report.recoveries} recovery(ies), "
            f"{report.promoted_vertices} promoted + "
            f"{report.rebuilt_vertices} rebuilt vertex(es), "
            f"{report.recovery_rows} recovery rows; outage p99 "
            f"{_fmt_time(report.outage_p99_response_s)} over "
            f"{report.outage_windows} window(s)")
    if report.stale_plans:
        out(f"control plane: {report.stale_plans} stale ownership plan(s) "
            f"dropped (another controller moved the vertex or retired "
            f"the target first)")
    if report.measured is not None:
        m = report.measured
        out(f"measured: {m['samples']} kernel batch(es) on "
            f"{m['workers']} worker lane(s), mean service "
            f"{_fmt_time(m['mean_s'])} (cv2 {m['cv2']:.2f}), "
            f"modeled {_fmt_time(m['modeled_mean_s'])}")
    if report.scaling is not None:
        sc = report.scaling
        rows_tag = f", {sc['handoff_rows']} split/merge rows" \
            if sc["handoff_rows"] else ""
        out(f"autoscale slo-p95 {_fmt_time(sc['slo_p95_s'])}: "
            f"{sc['scale_ups']} up / {sc['scale_downs']} down, fleet "
            f"{sc['initial_servers']} -> {sc['final_servers']} "
            f"(peak {sc['peak_servers']}, mean {sc['mean_servers']:.2f}), "
            f"{sc['server_seconds']:.1f} server-seconds{rows_tag}")
    if args.json:
        with open(args.json, "w") as f:
            f.write(report.to_json() + "\n")
        out(f"wrote JSON report to {args.json}")
    return 0


COMMANDS = {
    "info": cmd_info,
    "train": cmd_train,
    "eval": cmd_eval,
    "infer": cmd_infer,
    "dse": cmd_dse,
    "trace": cmd_trace,
    "serve-sim": cmd_serve_sim,
}


def main(argv: list[str] | None = None, out=print) -> int:
    """Run one command; a ``ValueError`` or ``OSError`` from the library
    (an illegal value, a missing checkpoint, an unwritable path) is one
    ``error:`` line and exit 2, never a traceback."""
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args, out=out)
    except (ValueError, OSError) as e:
        out(f"error: {e}")
        return 2
