"""Extension experiment: serving scale — shards x streams x load x policy.

The paper serves one stream on one idle device; the ROADMAP north star is
heavy multi-tenant traffic.  This bench sweeps the serving engine
(`repro.serving`) over shard counts, concurrent streams, and stream-time
compression, and reports the numbers an operator sizes a fleet with:
per-shard utilization, end-to-end window response percentiles, cross-shard
replication overhead, and stability.

Shape expectations: per-shard busy time falls as shards grow (state is
partitioned, at the price of cross-shard edge replication); more streams
multiply load and response percentiles never improve.  (That one shard is
exactly a single-server queue is a tier-1 test,
`test_serving.py::TestServingEngine::test_single_shard_matches_a_single_server_queue`.)

`test_placement_topology_matrix` sweeps the placement policies
(``hash`` / ``rebalance`` / ``replicate``) against both queue topologies
(partitioned ``sharded`` vs shared-queue ``pool``) and reports the p95/p99
crossover: with overhead-dominated small windows the pool avoids paying the
per-batch overhead once per shard per window and wins the tail; with
marginal-cost-dominated big windows the sharded fork-join parallelism wins.

`test_ingest_topology_matrix` is the unified-event-core three-way table
(ISSUE 4): topology {sharded, pool, hybrid} x ingest {serial, pipelined}.
Pipelined (double-buffered) ingest strictly lowers p95 on the
batching-delay-dominated workload, and the hybrid hot/cold topology beats
both pure topologies on the skewed head/tail workload.

`test_online_rebalance_drift` is the online-rebalancing acceptance table
(ISSUE 5): on a drifting-hot-set workload (the hot set rotates between
shards mid-stream) mid-run `MigrationEvent` rebalancing strictly beats
both the static hash partition and the two-pass `LoadAwareRebalance` on
p95, with the state handoff priced (nonzero `handoff_rows` reported and
die-crossing hops charged through `mail_hop_s`).

Run standalone (``pytest benchmarks/bench_serving_scale.py``) or with
``--smoke`` for a seconds-scale reduced sweep — the tier-1 suite invokes
the smoke path (under a wall-clock budget that guards the event loop's
per-event overhead) to keep this harness from rotting.
"""

import time

import numpy as np
import pytest

from repro.datasets import drifting_hot_set_graph, wikipedia_like
from repro.graph import EdgeBatch, TemporalGraph
from repro.models import ModelConfig, TGNN
from repro.pipeline import LinearCostBackend
from repro.reporting import render_table, save_json, save_result
from repro.serving import (MEMSYNC_POLICIES, AutoScaler, BatcherActor,
                           CapacityConfig, DynamicBatcher, EventScheduler,
                           FailurePlan, HeapEventScheduler, HotColdHybrid,
                           OnlineRebalancer, Placement, ServingEngine,
                           ShardRouter, StaticHashPlacement,
                           VersionedMemoryCache, VertexHeat, hash_assignment,
                           make_policy, make_stream_arrivals)

pytestmark = pytest.mark.smoke


def run_sweep(graph, model, shards_list, streams_list, speedups,
              backend="zcu104", window_s=900.0, start=0,
              deadline_s=0.0, batch_edges=None):
    """Sweep the engine and return (rows, reports-by-key)."""
    rows, reports = [], {}
    for n_shards in shards_list:
        for n_streams in streams_list:
            for speedup in speedups:
                engine = ServingEngine.from_registry(
                    backend, model, graph, num_shards=n_shards,
                    batcher=DynamicBatcher(max_edges=batch_edges,
                                           max_delay_s=deadline_s))
                rep = engine.run(graph, window_s=window_s, start=start,
                                 speedup=speedup, num_streams=n_streams)
                reports[(n_shards, n_streams, speedup)] = rep
                util = [s.utilization for s in rep.shard_stats]
                busy = [s.busy_s for s in rep.shard_stats]
                rows.append({
                    "shards": n_shards, "streams": n_streams,
                    "load_x": speedup,
                    "windows": rep.windows,
                    "max_util_pct": 100 * max(util),
                    "max_busy_s": max(busy),
                    "p95_ms": rep.p95_response_s * 1e3,
                    "p99_ms": rep.p99_response_s * 1e3,
                    "xshard_pct": 100 * rep.cross_shard_edges
                    / max(rep.ingested_edges, 1),
                    "stable": rep.stable,
                })
    return rows, reports


def test_serving_scale(request, capsys, smoke):
    if smoke:
        graph = wikipedia_like(num_edges=800, num_users=100, num_items=20)
        cfg = ModelConfig(memory_dim=8, time_dim=6, embed_dim=8,
                          edge_dim=graph.edge_dim, num_neighbors=4,
                          simplified_attention=True, lut_time_encoder=True,
                          lut_bins=8, pruning_budget=2)
        model = TGNN(cfg, rng=np.random.default_rng(0))
        model.calibrate(graph)
        model.prepare_inference()
        shards_list, streams_list, speedups = [1, 2], [1, 2], [2.0]
        window_s, start = 3600.0, 200
    else:
        graph = request.getfixturevalue("wiki")
        model = request.getfixturevalue("wiki_np_models")["NP(M)"]
        shards_list, streams_list = [1, 2, 4, 8], [1, 2, 4]
        speedups = [1.0, 2.0, 30.0]
        window_s, start = 900.0, int(graph.num_edges * 0.5)

    backend = "cpu-32t"   # modeled timing: deterministic and fast
    rows, reports = run_sweep(graph, model, shards_list, streams_list,
                              speedups, backend=backend, window_s=window_s,
                              start=start)
    table = render_table(
        rows, precision=3,
        title=f"Serving scale — shards x streams x load ({backend}, "
              f"{'smoke' if smoke else 'full'})")

    # Scaling shape: sharding splits work, streams multiply it.
    hot = speedups[-1]
    for n_streams in streams_list:
        busy_1 = max(s.busy_s for s in
                     reports[(shards_list[0], n_streams, hot)].shard_stats)
        busy_n = max(s.busy_s for s in
                     reports[(shards_list[-1], n_streams, hot)].shard_stats)
        assert busy_n < busy_1          # per-shard work strictly falls
    for n_shards in shards_list:
        w1 = reports[(n_shards, streams_list[0], hot)].windows
        wn = reports[(n_shards, streams_list[-1], hot)].windows
        assert wn == w1 * streams_list[-1] // streams_list[0]

    with capsys.disabled():
        print(table)
    save_result("serving_scale", table)


# --------------------------------------------------------------------------- #
# Fixed overhead + linear per-edge cost: isolates queueing/placement effects
# from cost-model noise so the policy comparison is exact.
DeterministicBackend = LinearCostBackend


def test_placement_topology_matrix(capsys, smoke):
    """Sweep placement {hash,rebalance,replicate} x topology {sharded,pool}.

    Acceptance (ISSUE 2): rebalance reduces max per-shard utilization vs
    hash on a skewed workload, and the pool beats sharded p99 at low load
    (overhead-dominated regime) while sharded wins the marginal-dominated
    regime — the crossover the table reports.
    """
    if smoke:
        graph = wikipedia_like(num_edges=800, num_users=24, num_items=12)
        shards = 4
        overhead_load = dict(speedup=3e3, num_streams=4)
    else:
        graph = wikipedia_like(num_edges=4000, num_users=48, num_items=24)
        shards = 8
        # A bigger fleet needs more tenants before per-window overheads
        # collide on the shards; the pool's pooled capacity absorbs them.
        overhead_load = dict(speedup=6e3, num_streams=8)
    heat = VertexHeat.from_graph(graph)
    rows = []

    # --- placement sweep (sharded, marginal-cost-dominated service) ------- #
    def run_sharded(placement, per_edge_s=5e-3, overhead_s=0.0,
                    window_s=86400.0, speedup=5e4):
        engine = ServingEngine(
            [DeterministicBackend(per_edge_s, overhead_s)
             for _ in range(shards)],
            graph.num_nodes, placement=placement)
        return engine.run(graph, window_s=window_s, speedup=speedup,
                          num_streams=4)

    base = StaticHashPlacement().place(heat, shards)
    rep_hash = run_sharded(base)
    util_hash = max(s.utilization for s in rep_hash.shard_stats)

    rebalance = make_policy("rebalance",
                            util_threshold=0.9 * util_hash)
    rep_rebal = run_sharded(rebalance.place(heat, shards,
                                            profile=rep_hash.shard_stats))
    util_rebal = max(s.utilization for s in rep_rebal.shard_stats)

    rep_repl = run_sharded(make_policy("replicate", top_k=4).place(heat,
                                                                   shards))

    for name, rep in (("hash", rep_hash), ("rebalance", rep_rebal),
                      ("replicate", rep_repl)):
        rows.append({
            "placement": name, "topology": "sharded",
            "regime": "per-edge",
            "max_util_pct": 100 * max(s.utilization
                                      for s in rep.shard_stats),
            "p95_ms": rep.p95_response_s * 1e3,
            "p99_ms": rep.p99_response_s * 1e3,
            "repl_x": rep.replication_factor,
            "stable": rep.stable,
        })

    # --- topology crossover (hash placement held fixed) ------------------- #
    # Low load / tiny windows: the per-batch overhead dominates, and the
    # sharded fork-join pays it once per shard per window.
    regimes = {
        "overhead": dict(per_edge_s=2e-3, overhead_s=0.05,
                         window_s=3600.0, **overhead_load),
        "per-edge": dict(per_edge_s=5e-3, overhead_s=0.0,
                         window_s=86400.0 * 5, speedup=1e4, num_streams=4),
    }
    crossover = {}
    for regime, kw in regimes.items():
        run_kw = dict(window_s=kw["window_s"], speedup=kw["speedup"],
                      num_streams=kw["num_streams"])
        rs = ServingEngine(
            [DeterministicBackend(kw["per_edge_s"], kw["overhead_s"])
             for _ in range(shards)],
            graph.num_nodes, placement=base).run(graph, **run_kw)
        rp = ServingEngine(
            [DeterministicBackend(kw["per_edge_s"], kw["overhead_s"])],
            graph.num_nodes, topology="pool",
            pool_servers=shards).run(graph, **run_kw)
        crossover[regime] = (rs, rp)
        for topo, rep in (("sharded", rs), ("pool", rp)):
            rows.append({
                "placement": "hash" if topo == "sharded" else "-",
                "topology": topo, "regime": regime,
                "max_util_pct": 100 * max(s.utilization
                                          for s in rep.shard_stats),
                "p95_ms": rep.p95_response_s * 1e3,
                "p99_ms": rep.p99_response_s * 1e3,
                "repl_x": rep.replication_factor,
                "stable": rep.stable,
            })

    table = render_table(
        rows, precision=3,
        title=f"Placement x topology — {shards} shards/replicas "
              f"({'smoke' if smoke else 'full'})")

    # Acceptance: load-aware rebalancing flattens the hot shard.
    assert util_rebal < util_hash
    # Acceptance: the shared queue wins the tail when overhead dominates...
    rs, rp = crossover["overhead"]
    assert rs.stable and rp.stable
    assert rp.p99_response_s < rs.p99_response_s
    # ...and loses it when per-edge work dominates (fork-join parallelism).
    rs, rp = crossover["per-edge"]
    assert rs.p99_response_s < rp.p99_response_s
    # Replication factors are comparable by one definition: pool == 1,
    # replicate pays one count per extra copy.
    assert crossover["overhead"][1].replication_factor == \
        pytest.approx(1.0)
    assert rep_repl.replication_factor > rep_hash.replication_factor

    table += (f"\ncrossover: pool p99 "
              f"{crossover['overhead'][1].p99_response_s * 1e3:.1f} ms < "
              f"sharded {crossover['overhead'][0].p99_response_s * 1e3:.1f}"
              f" ms (overhead regime); sharded "
              f"{crossover['per-edge'][0].p99_response_s * 1e3:.1f} ms < "
              f"pool {crossover['per-edge'][1].p99_response_s * 1e3:.1f} ms"
              f" (per-edge regime)")
    with capsys.disabled():
        print(table)
    save_result("placement_topology", table)


# --------------------------------------------------------------------------- #
def test_memsync_staleness_overhead(capsys, smoke):
    """Sweep the cross-shard memory sync policies (ISSUE 3).

    ``none`` tolerates stale vertex-memory reads for free; ``invalidate``
    buys exact reads with read-blocking pull round-trips; ``push`` buys
    them with eager row forwarding alongside the edge mail.  The table
    shows the trade an operator prices: ``sync_rows`` overhead (and its
    latency once cross-die hops cost time) vs ``stale_reads`` /
    ``max_version_lag`` tolerated.
    """
    if smoke:
        graph = wikipedia_like(num_edges=800, num_users=100, num_items=20)
        shards, streams = 4, 2
    else:
        graph = wikipedia_like(num_edges=4000, num_users=400, num_items=60)
        shards, streams = 8, 4
    # Alternate shards over two dies so pulled rows pay a round-trip and
    # pushed rows a hop, exactly like cross-die edge mail.
    die_of = [s % 2 for s in range(shards)]
    rows, reps = [], {}
    for policy in MEMSYNC_POLICIES:
        engine = ServingEngine(
            [LinearCostBackend(per_edge_s=1e-3) for _ in range(shards)],
            graph.num_nodes, die_of=die_of, mail_hop_s=2e-4,
            memsync=policy)
        rep = engine.run(graph, window_s=3600.0, speedup=2.0,
                         num_streams=streams)
        reps[policy] = rep
        rows.append({
            "memsync": policy,
            "sync_rows": rep.sync_edges,
            "stale_reads": rep.stale_reads,
            "max_lag": rep.max_version_lag,
            "xshard_edges": rep.cross_shard_edges,
            "busy_s": sum(s.busy_s for s in rep.shard_stats),
            "p95_ms": rep.p95_response_s * 1e3,
            "p99_ms": rep.p99_response_s * 1e3,
            "stable": rep.stable,
        })
    table = render_table(
        rows, precision=3,
        title=f"Memory sync — staleness vs overhead ({shards} shards, "
              f"{streams} streams, {'smoke' if smoke else 'full'})")

    none, inval, push = (reps[p] for p in MEMSYNC_POLICIES)
    # The baseline tolerates measurable staleness and moves no rows...
    assert none.sync_edges == 0
    assert none.stale_reads > 0 and none.max_version_lag > 0
    # ...the sync policies tolerate none and pay for it in row traffic.
    for rep in (inval, push):
        assert rep.stale_reads == 0 and rep.max_version_lag == 0
        assert rep.sync_edges > 0
    assert push.sync_edges >= inval.sync_edges
    # Sync traffic is priced: exactness costs latency, never saves it.
    assert none.p99_response_s <= inval.p99_response_s
    assert none.p99_response_s <= push.p99_response_s

    table += (f"\nexactness bill: push moves {push.sync_edges} rows, "
              f"invalidate {inval.sync_edges}; none tolerates "
              f"{none.stale_reads} stale reads (max version lag "
              f"{none.max_version_lag})")
    with capsys.disabled():
        print(table)
    save_result("memsync_policies", table)


# --------------------------------------------------------------------------- #
def skewed_head_tail_graph(n_edges, n_hot=4, n_cold=400, hot_frac=0.6,
                           seed=7):
    """Hot head + long cold tail: ``n_hot`` vertices carry ``hot_frac`` of
    the edges among themselves, 15% bridge head->tail, and the rest trickle
    across ``n_cold`` cold vertices — the traffic shape where the pure
    topologies each lose one regime and the hybrid placement keeps both."""
    rng = np.random.default_rng(seed)
    kind = rng.random(n_edges)
    src = np.empty(n_edges, dtype=np.int64)
    dst = np.empty(n_edges, dtype=np.int64)
    hh = kind < hot_frac
    hc = (kind >= hot_frac) & (kind < hot_frac + 0.15)
    cc = ~hh & ~hc
    src[hh] = rng.integers(0, n_hot, hh.sum())
    dst[hh] = rng.integers(0, n_hot, hh.sum())
    src[hc] = rng.integers(0, n_hot, hc.sum())
    dst[hc] = rng.integers(n_hot, n_hot + n_cold, hc.sum())
    src[cc] = rng.integers(n_hot, n_hot + n_cold, cc.sum())
    dst[cc] = rng.integers(n_hot, n_hot + n_cold, cc.sum())
    same = dst == src
    dst[same] = (dst[same] + 1) % (n_hot + n_cold)
    t = np.sort(rng.uniform(0, 1e4, n_edges))
    return TemporalGraph(src=src, dst=dst, t=t, num_nodes=n_hot + n_cold)


def test_ingest_topology_matrix(capsys, smoke):
    """Three-way table (ISSUE 4): topology x ingest on the unified core.

    Acceptance, all asserted below:

    * pipelined (double-buffered) ingest strictly lowers p95 response vs
      serial on the batching-delay-dominated workload, for every topology
      — serial pays the flush deadline in front of service, pipelined
      flushes the moment the fleet goes hungry;
    * the hybrid topology beats both pure topologies (p95 and p99) on the
      skewed hot-head/cold-tail workload — the hot bulk keeps fork-join
      parallelism on dedicated shards while the cold tail drains through
      the shared-queue pool instead of scattering per-window overhead and
      mail duplication across every shard;
    * ``--ingest serial`` byte-identity to the pre-event-core engine is
      pinned by the golden-report CLI tests (tests/golden/); here we
      assert run-to-run byte determinism of the serial reports.
    """
    if smoke:
        n_edges, n_cold = 600, 200
    else:
        n_edges, n_cold = 2400, 400
    graph = skewed_head_tail_graph(n_edges, n_cold=n_cold)
    heat = VertexHeat.from_graph(graph)
    per_edge_s, overhead_s = 4e-3, 8e-3
    hot_shards, pool_replicas, fleet = 2, 2, 4    # equal station budget

    def build(topology):
        if topology == "sharded":
            return ServingEngine(
                [DeterministicBackend(per_edge_s, overhead_s)
                 for _ in range(fleet)], graph.num_nodes)
        if topology == "pool":
            return ServingEngine(
                [DeterministicBackend(per_edge_s, overhead_s)],
                graph.num_nodes, topology="pool", pool_servers=fleet)
        placement = HotColdHybrid(hot_top_k=4).place(heat, hot_shards + 1)
        return ServingEngine(
            [DeterministicBackend(per_edge_s, overhead_s)
             for _ in range(hot_shards + 1)],
            graph.num_nodes, placement=placement, topology="hybrid",
            pool_servers=pool_replicas)

    def build_batched(topology, deadline_s):
        engine = build(topology)
        engine.batcher = DynamicBatcher(max_delay_s=deadline_s)
        return engine

    rows, reps = [], {}
    # --- workload A: batching-delay-dominated (deadline flush, light load)
    deadline_s = 2.0
    for topology in ("sharded", "pool", "hybrid"):
        for ingest in ("serial", "pipelined"):
            rep = build_batched(topology, deadline_s).run(
                graph, window_s=300.0, speedup=10.0, num_streams=2,
                ingest=ingest)
            reps[("batch-delay", topology, ingest)] = rep
            rows.append({
                "workload": "batch-delay", "topology": topology,
                "ingest": ingest,
                "p95_ms": rep.p95_response_s * 1e3,
                "p99_ms": rep.p99_response_s * 1e3,
                "max_util_pct": 100 * max(s.utilization
                                          for s in rep.shard_stats),
                "stable": rep.stable,
            })
    # --- workload B: skewed head/tail (passthrough ingest trade-off table)
    for topology in ("sharded", "pool", "hybrid"):
        for ingest in ("serial", "pipelined"):
            rep = build(topology).run(graph, window_s=300.0, speedup=40.0,
                                      num_streams=4, ingest=ingest)
            reps[("skewed", topology, ingest)] = rep
            rows.append({
                "workload": "skewed", "topology": topology,
                "ingest": ingest,
                "p95_ms": rep.p95_response_s * 1e3,
                "p99_ms": rep.p99_response_s * 1e3,
                "max_util_pct": 100 * max(s.utilization
                                          for s in rep.shard_stats),
                "stable": rep.stable,
            })

    table = render_table(
        rows, precision=3,
        title=f"Ingest x topology — unified event core "
              f"({'smoke' if smoke else 'full'})")

    # Acceptance: pipelined ingest strictly lowers p95 where batching
    # delay dominates, for every topology; no windows are lost to it.
    for topology in ("sharded", "pool", "hybrid"):
        serial = reps[("batch-delay", topology, "serial")]
        pipelined = reps[("batch-delay", topology, "pipelined")]
        assert pipelined.p95_response_s < serial.p95_response_s
        assert serial.p95_response_s > deadline_s      # pays the deadline
        assert pipelined.p95_response_s < deadline_s   # hides it
        assert pipelined.windows == serial.windows

    # Acceptance: hybrid beats both pure topologies on the skewed workload.
    sharded = reps[("skewed", "sharded", "serial")]
    pool = reps[("skewed", "pool", "serial")]
    hybrid = reps[("skewed", "hybrid", "serial")]
    assert sharded.stable and pool.stable and hybrid.stable
    assert hybrid.p95_response_s < sharded.p95_response_s
    assert hybrid.p95_response_s < pool.p95_response_s
    assert hybrid.p99_response_s < sharded.p99_response_s
    assert hybrid.p99_response_s < pool.p99_response_s

    # Serial reports stay byte-deterministic run to run (the golden CLI
    # tests additionally pin them byte-identical to the PR 3 engine).
    again = build(  # fresh engine, same arguments
        "hybrid").run(graph, window_s=300.0, speedup=40.0, num_streams=4)
    assert again.to_json() == hybrid.to_json()

    table += (f"\npipelined hides the {deadline_s:.0f} s deadline: e.g. "
              f"sharded p95 "
              f"{reps[('batch-delay', 'sharded', 'serial')].p95_response_s:.2f}"
              f" s -> "
              f"{reps[('batch-delay', 'sharded', 'pipelined')].p95_response_s:.3f}"
              f" s; skewed workload: hybrid p99 "
              f"{hybrid.p99_response_s * 1e3:.1f} ms < sharded "
              f"{sharded.p99_response_s * 1e3:.1f} ms and pool "
              f"{pool.p99_response_s * 1e3:.1f} ms")
    with capsys.disabled():
        print(table)
    save_result("ingest_topology", table)


# --------------------------------------------------------------------------- #
def test_online_rebalance_drift(capsys, smoke):
    """Online rebalancing acceptance (ISSUE 5): on the drifting-hot-set
    workload, mid-run migration strictly beats static hash *and* the
    two-pass LoadAwareRebalance on p95, with the handoff priced.

    The phase rotation is what separates the three policies: hash eats
    every phase's hot shard, the two-pass profile averages the rotation
    away (aggregate heat is symmetric, so it finds nothing actionable),
    and the online rebalancer migrates the current hot set off the melting
    shard within a couple of measurement windows.
    """
    shards = 4
    if smoke:
        n_edges, speedup = 1200, 4000.0
    else:
        n_edges, speedup = 2400, 2000.0
    graph = drifting_hot_set_graph(n_edges, shards)
    heat = VertexHeat.from_graph(graph)
    per_edge_s = 6e-3
    window_s, streams = 250.0, 2
    # Alternate shards over two dies so handoff rows (like sync rows) pay
    # real hops — the online win must survive its own migration bill.
    die_of = [s % 2 for s in range(shards)]
    mail_hop_s = 1e-4

    def build(placement=None, rebalancer=None):
        return ServingEngine(
            [DeterministicBackend(per_edge_s) for _ in range(shards)],
            graph.num_nodes, placement=placement, rebalancer=rebalancer,
            die_of=die_of, mail_hop_s=mail_hop_s)

    def run(engine):
        return engine.run(graph, window_s=window_s, speedup=speedup,
                          num_streams=streams)

    rep_hash = run(build())
    util_hash = max(s.utilization for s in rep_hash.shard_stats)

    # Two-pass: profile the whole run, redeploy, replay — the charitable
    # threshold (below the measured max) guarantees it at least tries.
    two_pass = make_policy("rebalance", util_threshold=0.9 * util_hash)
    placement = two_pass.place(heat, shards, profile=rep_hash.shard_stats)
    rep_two = run(build(placement=placement))

    rebalancer = OnlineRebalancer(window_s=0.5, util_threshold=0.75,
                                  cooldown_windows=1)
    rep_online = run(build(rebalancer=rebalancer))

    rows = []
    for name, rep in (("hash", rep_hash), ("two-pass", rep_two),
                      ("online", rep_online)):
        rows.append({
            "policy": name,
            "p95_ms": rep.p95_response_s * 1e3,
            "p99_ms": rep.p99_response_s * 1e3,
            "max_util_pct": 100 * max(s.utilization
                                      for s in rep.shard_stats),
            "migrations": rep.migrations,
            "handoff_rows": rep.handoff_rows,
            "stable": rep.stable,
        })
    table = render_table(
        rows, precision=3,
        title=f"Online rebalancing — drifting hot set ({shards} shards, "
              f"{'smoke' if smoke else 'full'})")

    # Acceptance: online strictly beats static hash AND two-pass on p95.
    assert rep_online.p95_response_s < rep_hash.p95_response_s
    assert rep_online.p95_response_s < rep_two.p95_response_s
    # The improvement is real work, and its handoff bill is on the table:
    # migrations happened and their state rows are priced (nonzero).
    assert rep_online.migrations > 0
    assert rep_online.handoff_rows > 0
    assert rep_online.rebalance == "online"
    # The baselines moved nothing mid-run.
    assert rep_hash.migrations == 0 and rep_two.migrations == 0
    # Conservation across migrations: every offered window is accounted.
    assert rep_online.windows + rep_online.dropped_windows \
        == rep_hash.windows + rep_hash.dropped_windows

    table += (f"\ndrift verdict: online p95 "
              f"{rep_online.p95_response_s * 1e3:.1f} ms < two-pass "
              f"{rep_two.p95_response_s * 1e3:.1f} ms and hash "
              f"{rep_hash.p95_response_s * 1e3:.1f} ms, for "
              f"{rep_online.migrations} migrations / "
              f"{rep_online.handoff_rows} handoff rows")
    with capsys.disabled():
        print(table)
    save_result("online_rebalance_drift", table)


# --------------------------------------------------------------------------- #
def test_failover_recovery(capsys, smoke):
    """Failure-injection acceptance (ISSUE 7): replication factor vs
    recovery latency.

    One shard fail-stops mid-run and recovers later; the sweep varies how
    much of the victim's vertex set carries a full replica on a survivor.
    Replicated vertices *promote* for free at failure time, unreplicated
    ones are *rebuilt* by memsync replay — rows priced through
    ``mail_hop_s`` onto the surviving owners' service times, right when
    the fleet is already absorbing the dead shard's load.  The headline
    assertion: full replication strictly beats the cold rebuild on p99
    *during the outage window*, and the recovery bill (priced rows) falls
    monotonically as the replication factor rises.
    """
    shards, victim = 4, 1
    if smoke:
        n_edges, speedup = 1200, 4000.0
    else:
        n_edges, speedup = 2400, 2000.0
    graph = drifting_hot_set_graph(n_edges, shards)
    # Keep the fleet in a stable regime (max util well under 0.5): the
    # contrast being measured is the priced rebuild bill landing in the
    # outage tail, and saturation queueing would drown it.
    per_edge_s = 1e-3
    window_s, streams = 250.0, 2
    # Every shard on its own die: each recovery row pays a real hop.
    die_of = list(range(shards))
    mail_hop_s = 2e-3

    # Place the outage inside the arrival span: fail at 25%, recover at
    # 75% of the stream (event-loop time is stream time / speedup).
    arrivals = make_stream_arrivals(graph, window_s, num_streams=streams,
                                    speedup=speedup)
    t_end = arrivals[-1].t
    plan = FailurePlan(fail_at=0.25 * t_end, shard=victim,
                       recover_at=0.75 * t_end)

    assignment = hash_assignment(graph.num_nodes, shards)
    owned = np.flatnonzero(assignment == victim)
    survivors = [s for s in range(shards) if s != victim]

    def run(frac):
        k = int(round(frac * len(owned)))
        replicas = {int(v): (survivors[i % len(survivors)],)
                    for i, v in enumerate(owned[:k])}
        placement = Placement(assignment=assignment.copy(),
                              num_shards=shards, replicas=replicas,
                              policy="replicate" if replicas else "hash")
        engine = ServingEngine(
            [DeterministicBackend(per_edge_s) for _ in range(shards)],
            graph.num_nodes, placement=placement, memsync="push",
            die_of=die_of, mail_hop_s=mail_hop_s, failures=plan)
        return engine.run(graph, window_s=window_s, speedup=speedup,
                          num_streams=streams)

    fracs = (0.0, 0.5, 1.0)
    reports = {frac: run(frac) for frac in fracs}

    rows = []
    for frac in fracs:
        rep = reports[frac]
        rows.append({
            "replicated_frac": frac,
            "promoted": rep.promoted_vertices,
            "rebuilt": rep.rebuilt_vertices,
            "recovery_rows": rep.recovery_rows,
            "outage_p99_ms": rep.outage_p99_response_s * 1e3,
            "p99_ms": rep.p99_response_s * 1e3,
            "outage_windows": rep.outage_windows,
        })
    table = render_table(
        rows, precision=3,
        title=f"Failover — replication factor vs recovery latency "
              f"({shards} shards, shard {victim} dies, "
              f"{'smoke' if smoke else 'full'})")

    cold, full = reports[0.0], reports[1.0]
    # The failover happened, in every lane, over a real outage window.
    for rep in reports.values():
        assert rep.chaos == "dead"
        assert rep.failures == 1 and rep.recoveries == 1
        assert rep.outage_windows > 0
        assert rep.windows + rep.dropped_windows \
            == cold.windows + cold.dropped_windows
    # Replication converts rebuilds into free promotions...
    assert cold.promoted_vertices == 0
    assert cold.rebuilt_vertices == len(owned)
    assert full.promoted_vertices == len(owned)
    assert full.rebuilt_vertices == 0
    # ...so the priced recovery bill falls monotonically with the factor.
    bills = [reports[f].recovery_rows for f in fracs]
    assert bills[0] > bills[1] > bills[2]
    # Headline: replicated failover strictly beats the cold rebuild on
    # p99 during the outage window.
    assert full.outage_p99_response_s < cold.outage_p99_response_s

    table += (f"\nfailover verdict: replicated outage p99 "
              f"{full.outage_p99_response_s * 1e3:.1f} ms < cold rebuild "
              f"{cold.outage_p99_response_s * 1e3:.1f} ms "
              f"({cold.recovery_rows} priced recovery rows -> "
              f"{full.recovery_rows})")
    with capsys.disabled():
        print(table)
    save_result("failover_recovery", table)
    save_json("BENCH_failover", {
        "shards": shards, "victim": victim,
        "mail_hop_s": mail_hop_s,
        "sweep": [
            {"replicated_frac": frac,
             "promoted": int(reports[frac].promoted_vertices),
             "rebuilt": int(reports[frac].rebuilt_vertices),
             "recovery_rows": int(reports[frac].recovery_rows),
             "outage_p99_ms": reports[frac].outage_p99_response_s * 1e3,
             "p99_ms": reports[frac].p99_response_s * 1e3}
            for frac in fracs],
        "outage_p99_ratio_cold_over_replicated":
            cold.outage_p99_response_s / full.outage_p99_response_s,
        "workload": {"n_edges": n_edges, "speedup": speedup,
                     "streams": streams, "window_s": window_s,
                     "per_edge_s": per_edge_s,
                     "mode": "smoke" if smoke else "full"},
    })


# --------------------------------------------------------------------------- #
def dense_window_graph(n_edges, seed):
    """Uniform synthetic stream and the ``window_s`` that cuts it into
    ~2-edge windows — many small arrivals, the ingest- and event-bound
    shape (``benchmarks/e2e`` ``fleet_pool_ingest``)."""
    rng = np.random.default_rng(seed)
    t = np.sort(rng.uniform(0, 1e4, n_edges))
    graph = TemporalGraph(src=rng.integers(0, 200, n_edges),
                          dst=rng.integers(0, 200, n_edges), t=t,
                          edge_feat=np.zeros((n_edges, 0)), num_nodes=200)
    return graph, 1e4 / (n_edges // 2)


def test_event_core_speedup(capsys, smoke, monkeypatch):
    """Before/after event-core throughput: heap loop vs vectorized loop.

    Acceptance (ISSUE 6): on a cohort-friendly workload (deadline batching
    coalesces ~100 arrivals per flush) the struct-of-array scheduler with
    cohort dispatch processes events at >= 5x the reference per-event heap
    loop, while producing a byte-identical serving report.  Timing covers
    the event core only: the event loop (``engine.last_loop_wall_s``)
    less the time it spends inside the batcher's job release.  Setup and
    report assembly are identical in both lanes and would dilute the
    comparison, and since ISSUE 17 so is the release — both lanes cut the
    job out of the one ``ArrivalTrace`` with the same merge, route and
    price it with the same code (~3 ms of either lane's loop at smoke
    size), where the heap lane used to re-concatenate ~100 one-window
    batches per flush.  Left in, that shared constant reads as a slower
    event core (loop over loop ~4.5x, was ~7x) when the core got faster
    (core over core 14-24x here; the tree before ISSUE 17 reads ~10x).
    The measurement is a same-run *ratio*, so it is machine-independent;
    the absolute events/sec land in ``results/BENCH_events_per_sec.json``
    for the CI perf-trajectory check.  The engine serves a serial run
    with no controller as one pass, without arrival events, so both lanes
    are pinned to the event loop through ``engine.serves_in_one_pass``:
    what is compared is heap against cohort delivery of the arrivals.
    """
    import repro.serving.engine as engine_module
    monkeypatch.setattr(engine_module, "serves_in_one_pass",
                        lambda *_: False)
    n_edges, reps = (3000, 3) if smoke else (12000, 5)
    n_windows = n_edges // 2          # ~2 edges per stream window
    graph, window_s = dense_window_graph(n_edges, seed=11)
    streams = 8

    release_s = [0.0]
    flush = BatcherActor._flush

    def timed_flush(actor, t, cause):
        t0 = time.perf_counter()
        flush(actor, t, cause)
        release_s[0] += time.perf_counter() - t0

    monkeypatch.setattr(BatcherActor, "_flush", timed_flush)

    def one(scheduler_cls):
        # Fresh engine per rep: runs must be independent and identical.
        engine = ServingEngine([DeterministicBackend(1e-6, 0.0)],
                               graph.num_nodes, topology="pool",
                               pool_servers=2,
                               batcher=DynamicBatcher(max_delay_s=2.0))
        release_s[0] = 0.0
        rep = engine.run(graph, window_s, speedup=50.0,
                         num_streams=streams, scheduler_cls=scheduler_cls)
        return (rep, engine.last_loop_wall_s - release_s[0], release_s[0],
                engine.last_scheduler)

    def lane(scheduler_cls):
        rep = sched = None
        best = release = float("inf")
        for _ in range(reps):        # min-of-reps absorbs scheduler jitter
            rep, wall, released, sched = one(scheduler_cls)
            best = min(best, wall)
            release = min(release, released)
        return rep, best, release, sched

    heap_rep, heap_wall, heap_release, heap_sched = lane(HeapEventScheduler)
    vec_rep, vec_wall, vec_release, vec_sched = lane(None)

    events = heap_sched.events_processed
    heap_eps = events / heap_wall
    vec_eps = vec_sched.events_processed / vec_wall
    ratio = vec_eps / heap_eps
    cohort_frac = vec_sched.cohort_events / vec_sched.events_processed

    rows = [
        {"lane": "heap (before)", "events": events,
         "handler_calls": events, "core_ms": heap_wall * 1e3,
         "release_ms": heap_release * 1e3, "events_per_sec": heap_eps},
        {"lane": "vectorized (after)", "events": vec_sched.events_processed,
         "handler_calls": (vec_sched.events_processed
                           - vec_sched.cohort_events
                           + vec_sched.cohort_calls),
         "core_ms": vec_wall * 1e3, "release_ms": vec_release * 1e3,
         "events_per_sec": vec_eps},
        {"lane": "speedup", "events": "", "handler_calls": "",
         "core_ms": "", "release_ms": "", "events_per_sec": ratio},
    ]
    table = render_table(
        rows, precision=3,
        title=f"Event core — heap vs vectorized scheduler "
              f"({'smoke' if smoke else 'full'})")
    table += (f"\nevent core verdict: {ratio:.1f}x events/sec, "
              f"{100 * cohort_frac:.1f}% of events delivered in "
              f"{vec_sched.cohort_calls} cohorts, reports byte-identical: "
              f"{'yes' if heap_rep.to_json() == vec_rep.to_json() else 'NO'}")

    # Same workload, same results: the refactor changed only the clock.
    assert heap_rep.to_json() == vec_rep.to_json()
    assert vec_sched.events_processed == events
    # Most arrivals ride the cohort path (the point of the refactor).
    assert cohort_frac > 0.9
    # The acceptance floor; the measured ratio is >= 14x, so 5x has margin.
    assert ratio >= 5.0

    with capsys.disabled():
        print(table)
    save_result("event_core_speedup", table)
    save_json("BENCH_events_per_sec", {
        "events": int(events),
        "heap_events_per_sec": heap_eps,
        "vectorized_events_per_sec": vec_eps,
        "speedup_ratio": ratio,
        "cohort_fraction": cohort_frac,
        "workload": {"n_edges": n_edges, "n_windows": n_windows,
                     "streams": streams, "speedup": 50.0,
                     "max_delay_s": 2.0, "topology": "pool",
                     "pool_servers": 2, "reps": reps,
                     "mode": "smoke" if smoke else "full"},
    })


# --------------------------------------------------------------------------- #
def test_router_split_scaling(capsys, smoke):
    """``ShardRouter.split`` cost must not grow with the shard count.

    The split computes one ``(shard, edge)`` incidence per flush instead
    of looping over shards, so a 1-edge batch — the serving fleets' usual
    job — costs the same whether the fleet has 4 shards or 16; the loop
    it replaced paid five masks and five gathers per shard (16 over 4:
    ~1.7x).  Both lanes split the same batches under ``push`` memsync in
    one process, best of N passes each, so the ratio is
    machine-independent; it lands in ``results/BENCH_router_split.json``
    for the CI perf-trajectory check (ceiling 1.3).

    A third lane routes the same jobs at 4 shards as one
    ``ShardRouter.plan`` — what a serial-ingest run does per ownership
    epoch — plan build included: its us per job over ``split``'s (a
    one-job plan) is held under 0.5 (~0.16 measured; a plan that paid a
    split per job would read ~1).
    """
    calls, reps = (1500, 5) if smoke else (6000, 9)
    num_nodes = 400
    rng = np.random.default_rng(16)
    ends = rng.integers(0, num_nodes, size=(calls, 2))
    edges = EdgeBatch(src=ends[:, 0], dst=ends[:, 1],
                      t=np.arange(calls, dtype=np.float64),
                      eid=np.arange(calls), edge_feat=np.zeros((calls, 4)))
    batches = [EdgeBatch(src=ends[i, :1], dst=ends[i, 1:],
                         t=np.array([float(i)]), eid=np.array([i]),
                         edge_feat=np.zeros((1, 4)))
               for i in range(calls)]

    def one_pass(num_shards):
        router = ShardRouter(num_shards, num_nodes)
        cache = VersionedMemoryCache(router.placement, policy="push")
        t0 = time.perf_counter()
        for batch in batches:
            router.split(batch, cache=cache)
        return (time.perf_counter() - t0) / calls * 1e6

    def one_plan(num_shards=4):
        router = ShardRouter(num_shards, num_nodes)
        cache = VersionedMemoryCache(router.placement, policy="push")
        t0 = time.perf_counter()
        plan = router.plan(edges, np.arange(calls + 1), cache=cache)
        for _ in range(calls):
            for run in plan.next():
                plan.shard_batch(*run)
        return (time.perf_counter() - t0) / calls * 1e6

    lanes = (4, 16)
    best = dict.fromkeys(lanes, float("inf"))
    plan_us = float("inf")
    for _ in range(reps):            # alternate lanes; min absorbs jitter
        for num_shards in lanes:
            best[num_shards] = min(best[num_shards], one_pass(num_shards))
        plan_us = min(plan_us, one_plan())
    ratio = best[16] / best[4]
    plan_ratio = plan_us / best[4]

    rows = [{"lane": f"split, {n} shards", "us_per_job": best[n]}
            for n in lanes]
    rows.append({"lane": "one plan, 4 shards", "us_per_job": plan_us})
    rows.append({"lane": "split 16 over 4", "us_per_job": ratio})
    rows.append({"lane": "plan over split, 4", "us_per_job": plan_ratio})
    table = render_table(
        rows, precision=3,
        title=f"Router split — 1-edge batches, push memsync "
              f"({'smoke' if smoke else 'full'})")
    assert ratio <= 1.3
    assert plan_ratio <= 0.5

    with capsys.disabled():
        print(table)
    save_result("router_split_scaling", table)
    save_json("BENCH_router_split", {
        "us_per_call": {str(n): best[n] for n in lanes},
        "plan_us_per_job": plan_us,
        "scaling_ratio": ratio,
        "plan_over_split": plan_ratio,
        "workload": {"calls": calls, "reps": reps, "edges_per_batch": 1,
                     "num_nodes": num_nodes, "memsync": "push",
                     "mode": "smoke" if smoke else "full"},
    })


# --------------------------------------------------------------------------- #
def test_ingest_scaling(capsys, smoke):
    """Building and scheduling the arrival process must not cost a Python
    step per arrival.

    ``make_stream_arrivals`` + ``BatcherActor.start`` on one synthetic
    graph (~2-edge windows, the ``benchmarks/e2e`` ``fleet_pool_ingest``
    shape) at 16 streams over 2 streams: eight times the arrivals over
    the same windows.  The columnar trace pays the window cut once and a
    few array operations per stream count (~1.8x); the per-arrival
    objects it replaced paid for every one of them (~4.2x).  Both lanes
    run in one process, fastest of N passes each, so the ratio is
    machine-independent; it lands in ``results/BENCH_ingest.json`` for
    the CI perf-trajectory check (ceiling 3.0).
    """
    n_edges, reps = (2_000, 7) if smoke else (6_000, 15)
    graph, window_s = dense_window_graph(n_edges, seed=17)

    def one_pass(streams):
        t0 = time.perf_counter()
        arrivals = make_stream_arrivals(graph, window_s, num_streams=streams,
                                        speedup=50.0)
        BatcherActor(DynamicBatcher(max_delay_s=2.0), EventScheduler(),
                     lambda *_: None).start(arrivals)
        return (time.perf_counter() - t0) * 1e3, len(arrivals)

    lanes = (2, 16)
    best = dict.fromkeys(lanes, float("inf"))
    arrivals = {}
    for _ in range(reps):            # alternate lanes; min absorbs jitter
        for streams in lanes:
            ms, arrivals[streams] = one_pass(streams)
            best[streams] = min(best[streams], ms)
    ratio = best[16] / best[2]

    rows = [{"streams": n, "arrivals": arrivals[n], "ms": best[n]}
            for n in lanes]
    rows.append({"streams": "16 over 2",
                 "arrivals": arrivals[16] / arrivals[2], "ms": ratio})
    table = render_table(
        rows, precision=3,
        title=f"Ingest — build + schedule the arrival trace "
              f"({'smoke' if smoke else 'full'})")
    assert ratio <= 3.0

    with capsys.disabled():
        print(table)
    save_result("ingest_scaling", table)
    save_json("BENCH_ingest", {
        "ms": {str(n): best[n] for n in lanes},
        "arrivals": {str(n): arrivals[n] for n in lanes},
        "scaling_ratio": ratio,
        "workload": {"n_edges": n_edges, "reps": reps, "window_s": window_s,
                     "speedup": 50.0, "max_delay_s": 2.0,
                     "mode": "smoke" if smoke else "full"},
    })


# --------------------------------------------------------------------------- #
def test_trace_invariants(capsys, smoke):
    """Trace-checker gate (ISSUE 8): full serve-sim runs replay clean.

    Drives ``serve-sim --check-trace`` (the repro.analysis.tracecheck
    dynamic half) over the two behavior-rich lanes — online rebalancing
    under drift, and dead-shard failure injection with recovery — and
    asserts both replays produce zero invariant findings: causality,
    exactly-once service, busy-interval disjointness, mail-at-flush,
    ownership chain, and window conservation.
    """
    from repro.cli import main as cli_main

    edges = 400 if smoke else 1600
    base = ["serve-sim", "--edges", str(edges), "--shards", "2",
            "--streams", "2", "--speedup", "40", "--memory-dim", "16",
            "--check-trace"]
    lanes = {
        "rebalance-online": base + ["--rebalance-online",
                                    "--rebalance-threshold", "0.05"],
        "chaos-failover": base + ["--fail-at", "10000",
                                  "--recover-at", "30000"],
    }
    rows = []
    for name, argv in lanes.items():
        lines = []
        rc = cli_main(argv, out=lines.append)
        text = "\n".join(lines)
        assert rc == 0, f"{name}: exit {rc}\n{text}"
        verdict = [ln for ln in lines if ln.startswith("trace check:")]
        assert verdict and "clean" in verdict[0], f"{name}:\n{text}"
        # "trace check: clean (N events, M checks)"
        inner = verdict[0].split("(", 1)[1].rstrip(")")
        n_events, n_checks = (int(p.split()[0])
                              for p in inner.split(","))
        assert n_events > 0 and n_checks >= 6
        rows.append({"lane": name, "events": n_events,
                     "checks": n_checks, "verdict": "clean"})
    table = render_table(
        rows, precision=3,
        title=f"Trace invariants — serve-sim --check-trace "
              f"({'smoke' if smoke else 'full'})")
    with capsys.disabled():
        print(table)
    save_result("trace_invariants", table)


# --------------------------------------------------------------------------- #
def test_measured_backend_scaling(capsys, smoke):
    """Measured worker-pool acceptance (ISSUE 9): real kernels scale.

    Runs the same compute-bound trace through ``--backend measured`` at
    ``workers=1`` (every shard's kernels serialized onto one lane) and
    ``workers=4`` (one lane per shard) and asserts the event-time
    throughput gain of the parallel lanes is at least 2x.

    The asserted ratio is computed entirely from the ``workers=1``
    run — makespan over the best single lane's event-time makespan,
    ``max`` of per-shard committed busy seconds, i.e. what 4 lanes
    yield on the *same* measured duration sequence via
    ``WorkerPool.commit`` arithmetic.  That keeps the metric
    machine-independent: with one worker exactly one kernel executes
    at a time, so every measured duration is contention-free, whereas
    the realized workers=4 makespan (also reported) folds in how many
    spare cores the host happens to have — four concurrent kernel
    processes on a busy 1-2 core CI box timeshare mid-kernel and
    inflate their own wall-clock measurements, legitimately so.
    ``speedup=1e8`` compresses the arrival span to microseconds so the
    workload is kernel-bound — at low speedup the arrival process
    dominates the makespan and lane counts cannot matter.

    Also emits the modeled-vs-measured service-time table (the cost
    model's prediction against the real numpy kernels) and the
    ``BENCH_measured_backend.json`` artifact CI diffs against its
    baseline.
    """
    from conftest import np_model
    graph = wikipedia_like(num_edges=1200 if smoke else 4000,
                           num_users=400, num_items=60)
    model = np_model(graph, 2)
    n_windows = 20 if smoke else 40
    window_s = float(graph.t[-1] - graph.t[0]) / n_windows
    shards = 4
    speedup = 1e8

    def lane(workers):
        engine = ServingEngine.from_registry(
            "measured", model, graph, num_shards=shards, workers=workers)
        rep = engine.run(graph, window_s=window_s, speedup=speedup)
        return rep, rep.makespan_s

    rep1, makespan1 = lane(1)
    rep4, makespan4 = lane(4)
    # Event-time makespan 4 lanes produce from the workers=1 run's own
    # contention-free durations: each shard's committed service lands on
    # its own lane, so the slowest lane is max per-shard busy.
    lane_makespan = max(s.busy_s for s in rep1.shard_stats)
    ratio = makespan1 / lane_makespan
    realized = makespan1 / makespan4

    def row(label, rep, makespan):
        jobs = sum(s.jobs for s in rep.shard_stats)
        return {"lane": label, "jobs": jobs,
                "measured_mean_ms": rep.measured["mean_s"] * 1e3,
                "cv2": rep.measured["cv2"],
                "makespan_ms": makespan * 1e3,
                "events_per_sec": jobs / makespan if makespan else 0.0}

    def ratio_row(label, value):
        return {"lane": label, "jobs": "", "measured_mean_ms": "",
                "cv2": "", "makespan_ms": "", "events_per_sec": value}

    rows = [row("workers=1 (serialized)", rep1, makespan1),
            row("workers=4 (parallel lanes)", rep4, makespan4),
            ratio_row("event-time speedup (asserted)", ratio),
            ratio_row("realized (host-dependent)", realized)]
    table = render_table(
        rows, precision=3,
        title=f"Measured backend — worker-pool scaling "
              f"({'smoke' if smoke else 'full'})")
    from repro.profiling import modeled_vs_measured
    table += ("\nmodeled vs measured service time (workers=4 lane):\n"
              + render_table(modeled_vs_measured(rep4.measured),
                             precision=3))

    # Same workload either way: lane counts move clocks (and therefore
    # queue depths), never which jobs run where.  Full structure
    # identity at light load is pinned by tests/unit/test_measured.py.
    assert [(s.shard, s.jobs, s.edges) for s in rep1.shard_stats] \
        == [(s.shard, s.jobs, s.edges) for s in rep4.shard_stats]
    assert rep1.measured["samples"] == rep4.measured["samples"]
    # The acceptance floor: 4 lanes over 4 roughly balanced shards give
    # ~3x event-time throughput; 2x leaves imbalance headroom.
    assert ratio >= 2.0

    with capsys.disabled():
        print(table)
    save_result("measured_backend", table)
    save_json("BENCH_measured_backend", {
        "speedup_ratio": ratio,
        "realized_ratio_workers4": realized,
        "makespan_workers1_s": makespan1,
        "makespan_workers4_s": makespan4,
        "measured_mean_s": rep1.measured["mean_s"],
        "measured_cv2": rep1.measured["cv2"],
        "modeled_mean_s": rep1.measured["modeled_mean_s"],
        "samples": rep1.measured["samples"],
        "workload": {"n_edges": len(graph.src), "n_windows": n_windows,
                     "shards": shards, "speedup": speedup,
                     "pruning_budget": 2,
                     "mode": "smoke" if smoke else "full"},
    })


# --------------------------------------------------------------------------- #
def diurnal_graph(cycles, per_cycle, cycle_span=1e4, day_frac=0.3,
                  day_share=0.8, num_nodes=200, seed=17):
    """Diurnal arrivals: ``day_share`` of each cycle's edges crowd into
    the first ``day_frac`` of its span (the daily peak), the rest trickle
    through the long night.  Arrival times are evenly spaced within each
    phase so the day-window service time is a deterministic plateau — the
    bench measures the controller's reaction to the phase transitions,
    not sampling noise in the offered load."""
    rng = np.random.default_rng(seed)
    chunks = []
    for c in range(cycles):
        base = c * cycle_span
        day_span = day_frac * cycle_span
        n_day = int(day_share * per_cycle)
        n_night = per_cycle - n_day
        chunks.append(base + np.linspace(0.0, day_span, n_day,
                                         endpoint=False))
        chunks.append(base + day_span
                      + np.linspace(0.0, cycle_span - day_span, n_night,
                                    endpoint=False))
    t = np.sort(np.concatenate(chunks))
    n = len(t)
    src = rng.integers(0, num_nodes, n)
    dst = rng.integers(0, num_nodes, n)
    same = dst == src
    dst[same] = (dst[same] + 1) % num_nodes
    return TemporalGraph(src=src, dst=dst, t=t,
                         edge_feat=np.zeros((n, 0)), num_nodes=num_nodes)


def test_autoscale_diurnal(capsys, smoke):
    """Elastic-capacity acceptance (ISSUE 10): on a diurnal workload the
    autoscaler meets the p95 SLO with strictly fewer server-seconds than
    static peak provisioning.

    Three lanes over the same day/night trace: *static min* (the initial
    fleet, frozen — cheap but blows the SLO at every daily peak),
    *static peak* (the max fleet, frozen — meets the SLO by paying for
    the peak all night long), and *autoscaled* (grows into the peak when
    windowed p95 breaches, drains back down when the night's p95 falls
    into the low band).  ``server_seconds`` is the piecewise-constant
    integral of fleet size over the run, so the asserted ratio —
    static-peak server-seconds over autoscaled — is pure event-time
    arithmetic, machine-independent, and lands in
    ``results/BENCH_autoscale.json`` for the CI perf-trajectory check
    against its row in ``benchmarks/baselines.json``.
    """
    cycles, per_cycle = (2, 2400) if smoke else (4, 2400)
    graph = diurnal_graph(cycles, per_cycle)
    window_s, speedup = 6.25, 25.0
    per_edge_s = 0.125
    slo_p95_s = 1.5
    min_servers, initial, peak = 1, 1, 4

    def run(pool_servers, auto=None):
        engine = ServingEngine([DeterministicBackend(per_edge_s)],
                               graph.num_nodes, topology="pool",
                               pool_servers=pool_servers, autoscaler=auto)
        return engine.run(graph, window_s=window_s, speedup=speedup)

    rep_min = run(initial)
    rep_peak = run(peak)
    cap = CapacityConfig(micro_batch=1, replicas=initial,
                         max_replicas=peak, min_replicas=min_servers)
    auto = AutoScaler(cap, slo_p95_s=slo_p95_s, scale_window_s=0.5,
                      low_band_frac=0.2, cooldown_windows=0)
    rep_auto = run(initial, auto=auto)

    scaling = rep_auto.scaling
    auto_ss = scaling["server_seconds"]
    peak_ss = peak * rep_peak.makespan_s
    min_ss = initial * rep_min.makespan_s
    ratio = peak_ss / auto_ss

    def row(lane, rep, servers, ss):
        return {"lane": lane, "servers": servers,
                "p95_ms": rep.p95_response_s * 1e3,
                "p99_ms": rep.p99_response_s * 1e3,
                "server_seconds": ss,
                "slo": "met" if rep.p95_response_s <= slo_p95_s
                       else "VIOLATED"}

    rows = [
        row("static min", rep_min, f"{initial}", min_ss),
        row("static peak", rep_peak, f"{peak}", peak_ss),
        row("autoscaled", rep_auto,
            f"{initial}->{scaling['peak_servers']}", auto_ss),
        {"lane": "peak/auto server-seconds", "servers": "",
         "p95_ms": "", "p99_ms": "", "server_seconds": ratio, "slo": ""},
    ]
    table = render_table(
        rows, precision=3,
        title=f"Elastic capacity — diurnal autoscaling vs static "
              f"provisioning ({cycles} cycles, SLO p95 "
              f"{slo_p95_s:.1f} s, {'smoke' if smoke else 'full'})")
    table += (f"\nautoscale verdict: SLO met at "
              f"{auto_ss:.0f} server-seconds vs static peak "
              f"{peak_ss:.0f} ({ratio:.2f}x cheaper), "
              f"{scaling['scale_ups']} up / {scaling['scale_downs']} down")

    # The diurnal pattern was actually exercised: the fleet grew into
    # every peak and drained at night.
    assert scaling["scale_ups"] >= cycles
    assert scaling["scale_downs"] >= 1
    assert scaling["peak_servers"] == peak
    # Frozen at the initial fleet the daily peaks blow the SLO — the
    # capacity problem is real.
    assert rep_min.p95_response_s > slo_p95_s
    # Static peak meets the SLO, and so does the autoscaler...
    assert rep_peak.p95_response_s <= slo_p95_s
    assert rep_auto.p95_response_s <= slo_p95_s
    # ...the headline: at strictly fewer server-seconds than the peak.
    assert auto_ss < peak_ss

    with capsys.disabled():
        print(table)
    save_result("autoscale_diurnal", table)
    save_json("BENCH_autoscale", {
        "speedup_ratio": ratio,
        "auto_server_seconds": auto_ss,
        "static_peak_server_seconds": peak_ss,
        "static_min_server_seconds": min_ss,
        "auto_p95_s": rep_auto.p95_response_s,
        "static_min_p95_s": rep_min.p95_response_s,
        "static_peak_p95_s": rep_peak.p95_response_s,
        "slo_p95_s": slo_p95_s,
        "scale_ups": int(scaling["scale_ups"]),
        "scale_downs": int(scaling["scale_downs"]),
        "mean_servers": scaling["mean_servers"],
        "workload": {"cycles": cycles, "per_cycle": per_cycle,
                     "window_s": window_s, "speedup": speedup,
                     "per_edge_s": per_edge_s,
                     "min_servers": min_servers, "initial": initial,
                     "max_servers": peak,
                     "mode": "smoke" if smoke else "full"},
    })
