"""Multi-stream serving on one event loop: a fleet is a server-count vector.

This is the production-deployment composition the single-device replay in
``pipeline/`` cannot express: many concurrent edge streams hit an ingest
tier, a :class:`~repro.serving.batcher.DynamicBatcher` coalesces their
windows under a latency deadline, and the released jobs are served by a
**fleet** — all driven by the single discrete-event scheduler in
:mod:`repro.serving.events`, so ingest, routing, shard compute, and
cross-shard traffic advance on one clock and can overlap.

A fleet is ``(placement, server_counts)``: one FIFO station
(:class:`~repro.serving.events.ServerGroup`) per backend, station ``s``
serving the vertices the :class:`~repro.serving.placement.Placement`
assigns to shard ``s`` with ``server_counts[s]`` identical servers.  The
paper ships one parameterised design whose two boards differ in five
numbers, not in code paths; here the numbers are ``server_counts = [1] *
(n - 1) + [k]``, and the three ``topology`` names are spellings of it:

``sharded`` (default) — ``k = 1``
    Every station is one dedicated server owning its own backend.  A
    :class:`~repro.serving.router.ShardRouter` splits each job across
    them; a window's response time is fork-join: it completes when the
    *last* involved shard finishes.

``pool`` — ``n = 1``
    One station of K stateless replicas behind **one shared queue** that
    owns every vertex (the report labels that partition ``"none"``).  A
    one-shard split hands the whole job to it: nothing is forwarded,
    nothing can be stale, every edge is processed once, and no replica
    idles while another has a backlog.  The price is that a job gets no
    intra-job parallelism — the classic pooling-vs-partitioning trade the
    benchmark sweeps.

``hybrid`` — the general case
    Both regimes in one loop: the measured-traffic hot head
    (:class:`~repro.serving.placement.HotColdHybrid`) lives on dedicated
    shards, and the cold tail drains through the last station, K servers
    wide.  Cross-regime edges ride the same mailbox (and the same
    ``mail_hop_s`` die pricing) as shard-to-shard mail, at the event
    times they occur.

Nothing downstream of construction asks which name was used: routing,
memsync, die pricing, the three controllers and the report run one path
over the vector, so a combination is either meaningful on the structure
(a lone station has nowhere to donate, nothing remote to sync, no
survivor for a dead failure) or ruled out by a rule about the structure.

**Ingest modes** (``run(..., ingest=...)``): ``"serial"`` releases jobs
exactly like the historical offline batcher — batching delay serializes in
front of queueing and service, and reports are byte-identical to the
pre-event-core engine (the golden-test contract).  ``"pipelined"``
double-buffers the ingest tier: while the fleet serves window *n* the
batcher accumulates window *n+1*, and the moment the fleet goes hungry the
buffer flushes — batching delay is paid only where it hides behind
in-flight compute.

Workload model: each stream replays the graph's own window arrival
process, phase-shifted by a fraction of a window, so ``num_streams = S``
multiplies the recorded load S-fold — the multi-tenant analogue of the
``speedup`` stream-time compression.  With one stream, one shard, and a
passthrough batcher the engine is a single-server FIFO queue over the
stream's window arrivals (asserted against a bare station by the
equivalence tests).
"""

from __future__ import annotations

import copy
import json
import math
import numbers
import time
from dataclasses import MISSING, dataclass, field, fields
from functools import partial
from typing import Callable, Sequence

import numpy as np

from ..graph.batching import time_window_spans
from ..graph.temporal_graph import TemporalGraph
from .batcher import ArrivalTrace, DynamicBatcher, JobRows
from .control import ControlPlane, FailureInjector
from .events import (INGEST_MODES, BatcherActor, EventScheduler, LoopOrder,
                     ServerGroup, SimulationResult, sorted_percentile)
from .measured import MeasuredServerGroup, WorkerPool
from .memsync import MEMSYNC_POLICIES, VersionedMemoryCache
from .placement import HotColdHybrid, Placement, VertexHeat
from .rebalance import OnlineRebalancer
from .registry import DEFAULT_REGISTRY, BackendRegistry
from .router import PlanRows, RoutePlan, ShardRouter

__all__ = ["ShardStats", "ServingReport", "ServingEngine",
           "make_stream_arrivals"]

TOPOLOGIES = ("sharded", "pool", "hybrid")

# Jobs the first route plan of an ownership epoch covers when a controller
# can move ownership; each later plan of the same epoch covers twice the
# last.  Any ownership move spends the plan, so a run plans at most twice
# the jobs it routes plus this many per epoch.
FIRST_PLAN_JOBS = 32


def serves_in_one_pass(ingest: str, plane: ControlPlane | None,
                       measured: bool) -> bool:
    """Whether a run is served as one pass: serial ingest, modeled (not
    ``measured``) stations, and no control plane or one whose only
    policy is an :class:`~repro.serving.rebalance.OnlineRebalancer`.
    Then nothing reacts to a service end, every release is known before
    the loop starts, and each station fixes a job's outcome when it
    admits it (:meth:`ServerGroup.admit`).  The rebalancer reacts at
    releases only, and reads each station as of the release
    (:meth:`ServerGroup.advance`); the plans it proposes are the loop's
    only other events.  An autoscaler keeps the event loop (it hangs on
    ``on_serviced``), and so does a failure injector (a dead station
    drops its waiting jobs, a slow one rescales service).  Every other
    run takes the event loop, which is the pass's oracle; the two agree
    bit for bit when every service takes a positive time.  A zero-second
    job frees its server at once in the pass but only at its end event
    on the loop, so a job admitted at the same instant can find that
    server busy there (see ``test_events.py::TestAdmissionClosedForm``)."""
    return ingest == "serial" and not measured and (
        plane is None or all(isinstance(p, OnlineRebalancer)
                             for p in plane.policies))


@dataclass(frozen=True)
class ShardStats:
    """Per-shard queueing and traffic statistics.

    One entry per station; ``servers`` is the count it started the run
    with (a pool's single entry describes the shared queue, a hybrid's
    last entry the cold-tail pool).

    ``offered_load`` is ``inf`` when two or more jobs were all released at
    one instant (no arrival rate exists); the report writes that as
    ``null`` — ``Infinity`` is not strict JSON — with ``stable`` false.
    """

    shard: int
    backend: str
    jobs: int
    edges: int                  # edges processed (local + mail)
    local_edges: int
    mail_in_edges: int          # edges forwarded in from other shards
    busy_s: float
    utilization: float
    offered_load: float
    mean_wait_s: float
    mean_response_s: float
    p95_response_s: float
    p99_response_s: float
    max_queue_depth: int
    dropped_jobs: int
    servers: int = 1

    @property
    def stable(self) -> bool:
        return self.offered_load < 1.0


_REBALANCE = {"gate": "rebalance"}
_CHAOS = {"gate": "chaos"}


@dataclass(frozen=True)
class ServingReport:
    """End-to-end outcome of a multi-stream replay (any topology)."""

    num_shards: int
    num_streams: int
    speedup: float
    window_s: float
    windows: int                # window arrivals served end-to-end
    dropped_windows: int        # arrivals lost to a full shard queue
    mean_response_s: float      # arrival -> last involved shard finished
    p95_response_s: float
    p99_response_s: float
    makespan_s: float
    ingested_edges: int         # edges offered by the streams
    processed_edges: int        # edge *applications* actually serviced: one
                                # count per shard that applied the edge
                                # (local + every mailbox delivery); drops
                                # are excluded
    cross_shard_edges: int      # mailbox deliveries actually serviced
    cross_die_mail_edges: int   # mailbox traffic that crossed a die
    shard_stats: tuple[ShardStats, ...]
    topology: str
    placement: str              # placement policy name ("none" for pool)
    replicated_vertices: int    # vertices held by more than one shard
    memsync: str                # cross-shard memory sync policy
    sync_edges: int             # memory rows transferred between shards
    stale_reads: int            # reads served from a stale mirror (none)
    max_version_lag: int        # worst version lag among those reads
    pool_servers: int           # replicas behind the shared queue (pool)
    # Every defaulted field below is optional *by construction*:
    # ``to_dict`` drops it while its gate — itself, unless
    # ``metadata["gate"]`` names another field — still holds its default,
    # so a feature that is off adds no key and the pinned goldens stand.
    ingest: str = "serial"      # ingest tier mode (serial | pipelined)
    rebalance: str = "off"      # online rebalancing (off | online)
    # MigrationEvents applied during the run
    migrations: int = field(default=0, metadata=_REBALANCE)
    # distinct vertices that changed owner
    migrated_vertices: int = field(default=0, metadata=_REBALANCE)
    # state rows handed off by migrations
    handoff_rows: int = field(default=0, metadata=_REBALANCE)
    chaos: str = "off"          # failure injection (off|slow|dead|mixed)
    # FailureEvents / RecoveryEvents applied during the run
    failures: int = field(default=0, metadata=_CHAOS)
    recoveries: int = field(default=0, metadata=_CHAOS)
    # dead-shard vertices promoted to a replica / rebuilt from peers
    promoted_vertices: int = field(default=0, metadata=_CHAOS)
    rebuilt_vertices: int = field(default=0, metadata=_CHAOS)
    # state rows moved by failover + fail-back
    recovery_rows: int = field(default=0, metadata=_CHAOS)
    # served windows that arrived in an outage, and the p99 over them
    outage_windows: int = field(default=0, metadata=_CHAOS)
    outage_p99_response_s: float = field(default=0.0, metadata=_CHAOS)
    stale_plans: int = 0        # ownership plans dropped at vetting: another
                                # controller moved the vertex or retired the
                                # target first (composed controllers only)
    measured: dict | None = None  # measured-backend block (mean/cv²/
                                  # per-shard split); None on modeled runs
    scaling: dict | None = None   # autoscale block (scale events, fleet
                                  # peak/mean, server-seconds); None when
                                  # the fleet was static

    def __post_init__(self):
        # Strict JSON has no Infinity or NaN.  Every service time ends at a
        # finite instant (ServerGroup checks each one), but a sum of huge
        # ones can still overflow, and such a run has no report to give.
        # An offered load without a finite rate is written as null.
        for obj in (self, *self.shard_stats):
            for name in _NAMES[type(obj)]:
                value = getattr(obj, name)
                if isinstance(value, float) and not math.isfinite(value) \
                        and name != "offered_load":
                    raise ValueError(f"the report's {name} is {value}: "
                                     f"service times too large to sum")

    @property
    def stable(self) -> bool:
        return all(s.stable for s in self.shard_stats)

    @property
    def served_edges(self) -> int:
        """Distinct stream edges serviced (cross-shard copies counted once)."""
        return self.processed_edges - self.cross_shard_edges

    @property
    def throughput_eps(self) -> float:
        return self.served_edges / self.makespan_s \
            if self.makespan_s > 0 else 0.0

    @property
    def replication_factor(self) -> float:
        """Mean state-update applications per served edge.

        Definition (tested; keeps pool and replicated-sharded runs
        comparable): ``processed_edges / served_edges``, where every shard
        that applies an edge contributes **one count** — the source owner's
        local application plus one per mailbox delivery.  Hence a vertex
        replicated onto ``r`` extra shards adds ``r`` counts for each of
        its incident edges (once per replica), a plain cross-shard edge
        counts 2, an intra-shard edge counts 1, and a pool run — where one
        replica serves each job against the shared store — reports exactly
        1.0.  ``0.0`` when nothing was served.
        """
        return self.processed_edges / self.served_edges \
            if self.served_edges else 0.0

    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        """Plain-python dict (derived metrics included) for JSON reports.

        Required fields are always present; a defaulted field appears
        only once its gate field has left its default (see the field
        declarations), which keeps feature-off reports byte-identical to
        the goldens that predate the feature.
        """
        # Scalars are copied as they are; only the two blocks hold
        # mutable values.
        shards = [{name: getattr(s, name) for name in _NAMES[ShardStats]}
                  | {"stable": bool(s.stable),
                     "offered_load": s.offered_load
                     if math.isfinite(s.offered_load) else None}
                  for s in self.shard_stats]
        d = {name: getattr(self, name) for name in _NAMES[ServingReport]}
        d.update(shard_stats=shards, measured=copy.deepcopy(self.measured),
                 scaling=copy.deepcopy(self.scaling),
                 stable=bool(self.stable),
                 served_edges=int(self.served_edges),
                 throughput_eps=float(self.throughput_eps),
                 replication_factor=float(self.replication_factor))
        for name, gate in _OPTIONAL:
            if getattr(self, gate) == _DEFAULTS[gate]:
                del d[name]
        return d

    def to_json(self) -> str:
        """Canonical strict JSON: sorted keys, fixed separators, no
        ``NaN``/``Infinity`` — byte-stable for identical runs (the
        golden-determinism contract)."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=2,
                          allow_nan=False)


# Field names and defaults, read once per class rather than per report.
_NAMES = {cls: tuple(f.name for f in fields(cls))
          for cls in (ShardStats, ServingReport)}
_DEFAULTS = {f.name: f.default for f in fields(ServingReport)}
# (field, its gate) per defaulted report field.
_OPTIONAL = tuple((f.name, f.metadata.get("gate", f.name))
                  for f in fields(ServingReport) if f.default is not MISSING)


def make_stream_arrivals(graph: TemporalGraph, window_s: float,
                         num_streams: int = 1, start: int = 0,
                         end: int | None = None,
                         speedup: float = 1.0) -> ArrivalTrace:
    """Arrival process of ``num_streams`` tenants replaying ``graph``.

    A window becomes servable when its last edge has arrived, so the
    arrival instant is the final edge timestamp (stream-time compressed by
    ``speedup``).
    Stream ``i`` is phase-shifted by ``i/num_streams`` of a window to model
    unsynchronized tenants.  Built as columns, with no Python step per
    arrival: the windows' edge spans are replicated across streams by
    broadcasting and every arrival points into the graph's own edge
    columns (:class:`~repro.serving.batcher.ArrivalTrace`).
    """
    # ``not (x > 0)`` also rejects NaN, which ``x <= 0`` lets through.
    if not (0 < window_s < math.inf and 0 < speedup < math.inf):
        raise ValueError("window_s and speedup must be positive and finite")
    if not (isinstance(num_streams, numbers.Integral) and num_streams > 0):
        raise ValueError("num_streams must be a positive integer")
    _, lo, hi = time_window_spans(graph, window_s, start=start, end=end)
    if len(lo) == 0:
        raise ValueError("no windows in the requested range")
    t_close = graph.t[hi - 1]
    rel = (t_close - t_close[0]) / speedup
    phase = np.arange(num_streams) / num_streams * window_s / speedup
    t = (rel[None, :] + phase[:, None]).ravel()
    stream = np.repeat(np.arange(num_streams), len(lo))
    # Same-instant arrivals from different streams must order
    # deterministically: by stream, then (stable) by window.
    order = np.lexsort((stream, t))
    window = order % len(lo)
    n_edges = (hi - lo)[window]
    cum = np.zeros(len(order) + 1, dtype=np.int64)
    np.cumsum(n_edges, out=cum[1:])
    return ArrivalTrace(graph.slice(0, graph.num_edges), t[order],
                        stream[order], cum, lo[window])


class ServingEngine:
    """A fleet of stations in front of backends: ``(placement,
    server_counts)`` with ``server_counts = [1] * (n - 1) + [k]``.

    ``topology`` and ``pool_servers`` spell the vector (see the module
    docstring) and are read only here and in :meth:`from_registry`;
    ``server_counts`` is what the run uses.  Three rules about the
    structure are enforced, once each: **measured backends need every
    station to have one server** (a K-server station shares one stateful
    backend across concurrent servers, which a worker lane cannot
    reproduce); **autoscaling needs a uniform fleet** — one station,
    resized in place, or all one-server stations, resized by ownership
    splits/merges (a K-server station beside dedicated shards would need
    two controllers); **a pool takes exactly one backend**.

    Parameters
    ----------
    backends:
        One backend per station (engine protocol).  The K servers of the
        last station share theirs: replicas are stateless, so one backend
        prices every job they serve.
    num_nodes:
        Vertex count, for the router's partition.
    batcher:
        Cross-stream coalescing policy; default is passthrough.
    router:
        Vertex partition over ``len(backends)`` shards; default is the
        static hash.  Mutually exclusive with ``placement``.
    placement:
        A :class:`~repro.serving.placement.Placement` from a placement
        policy; the router is built from it.  ``topology="hybrid"`` asks
        for one explicitly (use
        :class:`~repro.serving.placement.HotColdHybrid`, whose last
        pseudo-shard is the pool; ``from_registry`` builds it from the
        graph's measured heat).
    die_of:
        Optional shard -> die assignment (see
        :func:`repro.hw.plan_shard_dies` /
        :func:`repro.hw.plan_shard_dies_traffic_aware`).  With
        ``mail_hop_s`` it prices cross-die mailbox traffic into the
        receiving shard's service time.
    mail_hop_s:
        Seconds added per forwarded edge that crosses a die boundary.
    topology:
        ``"sharded"`` (default), ``"pool"``, or ``"hybrid"``.
    pool_servers:
        ``k``, the last station's server count (``pool`` and ``hybrid``
        spellings; defaults to the dedicated-shard count, at least 1).
    memsync:
        Cross-shard memory sync policy: ``"none"`` (default, stale
        mirrors — staleness is still measured), ``"invalidate"`` (pull
        fresh rows on stale reads, priced as mailbox round-trips) or
        ``"push"`` (owner writes forward rows alongside the edge mail).
        See :mod:`repro.serving.memsync`.
        Pricing only: sync traffic inflates service times through
        ``mail_hop_s`` and surfaces in the report (``sync_edges`` /
        ``stale_reads`` / ``max_version_lag``); the *functional* exactness
        protocol is the tests' oracle, ``ShardedRuntime`` in
        ``tests/property/sharded_oracle.py``.
    rebalancer / failures / autoscaler:
        The three ownership controllers; any subset runs together.  Each
        run builds one :class:`~repro.serving.control.ControlPlane` for
        them (none is built when all three are off): it samples released
        jobs once for every policy, keeps the one mask of shards that
        may receive ownership (accepting, inside the scaler's active
        prefix), and is the only actor that applies their plans — each
        scheduled at migration priority, vetted when it fires, applied
        by :func:`~repro.serving.memsync.hand_off`, its rows priced
        through ``mail_hop_s`` like sync traffic (charged to the
        destination shard's next sub-job) and recorded as one
        :class:`~repro.serving.events.MigrationEvent`.  A plan another
        controller overtook is dropped and counted in the report's
        ``stale_plans`` (key omitted at 0).
    rebalancer:
        An :class:`~repro.serving.rebalance.OnlineRebalancer`: it watches
        per-shard window utilization / queue depth on released jobs and
        proposes vertex migrations mid-run (none on a lone station).  The
        report gains ``rebalance`` / ``migrations`` /
        ``migrated_vertices`` / ``handoff_rows``.  Spelled ``hybrid``,
        the fleet runs it in drift mode: heating pool vertices are
        promoted onto dedicated shards, cooled dedicated-shard vertices
        demoted back to the pool.
    failures:
        A :class:`~repro.serving.events.FailurePlan` (or sequence of them;
        outages of one shard may not overlap) to inject during each run:
        the :class:`~repro.serving.control.FailureInjector` schedules the
        failure/recovery events, applies them to the shard's
        :class:`ServerGroup` and — for dead failures, which need a
        surviving station — runs replica promotion / peer rebuild onto
        the eligible shards through
        :func:`~repro.serving.memsync.fail_over` and proposes the
        fail-back on recovery.  The report gains ``chaos`` /
        ``failures`` / ``recoveries`` / ``promoted_vertices`` /
        ``rebuilt_vertices`` / ``recovery_rows`` / ``outage_windows`` /
        ``outage_p99_response_s`` (keys omitted when off).
    autoscaler:
        An :class:`~repro.serving.autoscale.AutoScaler`: it watches
        windowed p95 response latency against an SLO band and resizes
        the fleet mid-run via :class:`~repro.serving.events.ScaleEvent`.
        A one-station fleet grows and shrinks in place; a fleet of
        one-server stations proposes ownership splits/merges across its
        ``capacity.max_replicas`` slots (build the layout with
        :func:`~repro.serving.placement.padded_hash_placement`).  The
        capacity config must agree with the fleet; the controller checks
        that when the run starts.  The report gains a ``scaling`` block
        (key omitted when off).
    workers:
        Worker-pool width for **measured** backends (any backend with
        ``measured = True``, e.g. the registry's ``"measured"``): the
        engine builds a :class:`~repro.serving.measured.WorkerPool` of
        this many process lanes, runs each shard's real kernels on lane
        ``shard % workers``, and reconciles measured durations into
        event time (see :mod:`repro.serving.measured`).  ``0`` (default)
        computes in-process with one virtual lane per shard.  Only legal
        with measured backends.
    """

    def __init__(self, backends: Sequence, num_nodes: int,
                 batcher: DynamicBatcher | None = None,
                 router: ShardRouter | None = None,
                 placement: Placement | None = None,
                 die_of: Sequence[int] | None = None,
                 mail_hop_s: float = 0.0,
                 topology: str = "sharded",
                 pool_servers: int | None = None,
                 memsync: str = "none",
                 rebalancer=None,
                 failures=None,
                 autoscaler=None,
                 workers: int = 0):
        if not backends:
            raise ValueError("need at least one backend")
        measured_flags = [bool(getattr(b, "measured", False))
                          for b in backends]
        self._measured = any(measured_flags)
        if self._measured and not all(measured_flags):
            raise ValueError(
                "measured and modeled backends cannot mix in one "
                "fleet: the worker pool owns every shard's runtime")
        if not (isinstance(workers, numbers.Integral) and workers >= 0):
            raise ValueError("workers must be a non-negative integer")
        if workers and not self._measured:
            raise ValueError(
                "workers only applies to measured backends; modeled "
                "backends price batches without executing them")
        self.workers = int(workers)
        if topology not in TOPOLOGIES:
            raise ValueError(f"topology must be one of {TOPOLOGIES}")
        if memsync not in MEMSYNC_POLICIES:
            raise ValueError(f"memsync must be one of {MEMSYNC_POLICIES}")
        if router is not None and placement is not None:
            raise ValueError("pass either router or placement, not both")
        if pool_servers is not None:
            if topology == "sharded":
                raise ValueError(
                    "pool_servers requires topology='pool' or 'hybrid'")
            if not (isinstance(pool_servers, numbers.Integral)
                    and pool_servers > 0):
                raise ValueError("pool_servers must be a positive integer")
        if topology == "pool" and len(backends) != 1:
            raise ValueError(
                "pool topology takes exactly one timing backend "
                "(replicas are identical and stateless); set "
                "pool_servers=K for the replica count")
        if topology == "hybrid" and placement is None and router is None:
            raise ValueError(
                "hybrid topology needs a placement whose last "
                "pseudo-shard is the pool (see HotColdHybrid)")
        self.backends = list(backends)
        self.num_shards = n = len(self.backends)
        self.batcher = batcher or DynamicBatcher()
        self.topology = topology
        # The fleet: one station per backend, the last with k servers.
        k = 1 if topology == "sharded" else int(pool_servers or max(n - 1, 1))
        self.server_counts = [1] * (n - 1) + [k]
        self.pool_servers = k
        # Drift mode for a rebalancer: the K-server station is the pool
        # that vertices heat up out of and cool down into.
        self._drift_shard = n - 1 if topology == "hybrid" else None
        if self._measured and k != 1:
            raise ValueError(
                "measured backends require topology='sharded' (or "
                "pool_servers=1): a K-server station shares one stateful "
                "backend across concurrent servers, which a worker lane "
                "cannot reproduce")
        if autoscaler is not None:
            if self._measured:
                raise ValueError(
                    "autoscaling requires modeled backends: a measured "
                    "worker lane cannot be created mid-run")
            if n > 1 and k > 1:
                raise ValueError(
                    "autoscaling needs a uniform fleet (one station, or "
                    "all one-server stations): a hybrid fleet's K-server "
                    "station and its dedicated shards would need separate "
                    "controllers")
        if placement is not None:
            router = ShardRouter.from_placement(placement)
        if router is None:
            router = ShardRouter(n, num_nodes)
            if topology == "pool":
                # Its one shard owns every vertex: the report labels that
                # partition "none".
                router.placement.policy = "none"
        self.router = router
        if router.num_shards != n:
            raise ValueError("router shard count must match backend count")
        if die_of is not None and len(die_of) != n:
            raise ValueError("die_of must assign every shard")
        if not 0 <= mail_hop_s < math.inf:      # NaN too
            raise ValueError("mail_hop_s must be finite and non-negative")
        self.die_of = None if die_of is None else np.asarray(die_of,
                                                             dtype=np.int64)
        self.mail_hop_s = float(mail_hop_s)
        self.memsync = memsync
        self.rebalancer = rebalancer
        self.autoscaler = autoscaler
        self.failure_injector = None if failures is None \
            else FailureInjector(failures)
        # Populated by each run: the EventTrace (or None), the scheduler
        # instance (counters), the control plane (None without a
        # controller), the event-loop wall-clock seconds, and the
        # offered-arrival count (the conservation check's denominator).
        self.last_event_trace = None
        self.last_scheduler = None
        self.last_control: ControlPlane | None = None
        self.last_loop_wall_s = 0.0
        self.last_num_arrivals = 0

    @staticmethod
    def station_count(topology: str, shards: int) -> int:
        """Stations ``topology`` builds from ``shards``: S dedicated
        shards, one pool, or S shards and a pool."""
        return {"pool": 1, "hybrid": shards + 1}.get(topology, shards)

    @classmethod
    def from_registry(cls, backend: str, model,
                      graph: TemporalGraph, num_shards: int | None = None,
                      registry: BackendRegistry = DEFAULT_REGISTRY,
                      backend_kwargs: dict | None = None,
                      hot_top_k: int = 16,
                      **engine_kwargs) -> "ServingEngine":
        """Build an engine whose every station runs the backend that
        ``registry`` builds under the name ``backend``, once per station.

        (A fleet of differing backends is built with the constructor,
        which takes any list of backend objects.)  ``num_shards`` counts
        what the topology name counts: the ``sharded`` stations; the
        ``pool``'s replicas (one station, ``pool_servers`` defaulting to
        it); the ``hybrid``'s dedicated hot shards, beside which one more
        station drains the cold tail — the ``hot_top_k`` hottest vertices
        by measured heat go to the dedicated shards
        (:class:`~repro.serving.placement.HotColdHybrid`) and
        ``pool_servers`` (default ``num_shards``) replicas serve the rest.
        """
        if num_shards is not None and not (
                isinstance(num_shards, numbers.Integral) and num_shards > 0):
            raise ValueError("num_shards must be a positive integer")
        topology = engine_kwargs.get("topology", "sharded")
        shards = num_shards or 1
        stations = cls.station_count(topology, shards)
        if topology != "sharded":
            engine_kwargs.setdefault("pool_servers", shards)
        if topology == "hybrid" \
                and not engine_kwargs.keys() & {"placement", "router"}:
            engine_kwargs["placement"] = HotColdHybrid(
                hot_top_k=hot_top_k).place(VertexHeat.from_graph(graph),
                                           stations)
        backends = [registry.create(backend, model, graph,
                                    **(backend_kwargs or {}))
                    for _ in range(stations)]
        return cls(backends, graph.num_nodes, **engine_kwargs)

    # ------------------------------------------------------------------ #
    def _die_hops(self, plan: RoutePlan) -> tuple[np.ndarray, np.ndarray]:
        """Die-crossing hops of every sub-job of ``plan``, per ``(job,
        shard)`` run: of its edge mail, and of its sync traffic.

        A forwarded edge is one hop; a pulled row is a read-blocking
        round-trip (two hops: request + response); a pushed row rides in
        with the mail (one hop).  Traffic between shards on the same die
        is free.
        """
        runs = plan.num_jobs * self.num_shards
        if self.die_of is None:
            return np.zeros(runs, dtype=np.int64), \
                np.zeros(runs, dtype=np.int64)
        die = self.die_of

        def crossings(bounds, source, cost=1):
            run = np.repeat(np.arange(runs), np.diff(bounds))
            cross = die[source] != die[run % self.num_shards]
            return cost * np.bincount(run[cross], minlength=runs)

        owner = self.router.assignment
        sync = crossings(plan.pull_bounds, owner[plan.pull], 2) \
            + crossings(plan.push_bounds, owner[plan.push])
        return crossings(plan.mail_bounds, plan.mail_from), sync

    def _traffic(self, plan: RoutePlan) -> tuple[np.ndarray, list[int]]:
        """Every ``(job, shard)`` run of ``plan`` at once: its traffic
        row (local edges, mail edges, mail die hops, sync rows, stale
        reads, version lag) and the die hops its service pays (mail plus
        sync)."""
        mail_hops, sync_hops = self._die_hops(plan)
        pairs, mail, pull, push, stale = np.diff(np.array((
            plan.bounds, plan.mail_bounds, plan.pull_bounds,
            plan.push_bounds, plan.stale_bounds), dtype=np.int64))
        table = np.empty((len(pairs), 6), dtype=np.int64)
        table[:, 0] = pairs - mail
        table[:, 1] = mail
        table[:, 2] = mail_hops
        table[:, 3] = pull + push
        table[:, 4] = stale
        table[:, 5] = plan.lag
        return table, (mail_hops + sync_hops).tolist()

    def _make_groups(self, sched: EventScheduler,
                     queue_capacity: int | None,
                     pool: WorkerPool | None = None) -> list[ServerGroup]:
        """One server group per backend, ``server_counts[s]`` servers
        wide, whose payload is ``(batch, die hops)``.  Measured backends
        get a :class:`~repro.serving.measured.MeasuredServerGroup` wired
        to the worker ``pool`` instead of a modeled service closure."""
        groups: list[ServerGroup] = []

        def hop_service(payload):
            return self.mail_hop_s * payload[1]

        for gid, (n_srv, backend) in enumerate(zip(self.server_counts,
                                                   self.backends)):
            if self._measured:
                assert pool is not None
                groups.append(MeasuredServerGroup(
                    gid, n_srv, backend, pool, sched,
                    queue_capacity=queue_capacity,
                    extra_service=hop_service))
                continue
            def service(payload, _backend=backend):
                batch, hops = payload
                return _backend.process_batch(batch) + self.mail_hop_s * hops
            groups.append(ServerGroup(gid, n_srv, service, sched,
                                      queue_capacity=queue_capacity))
        return groups

    def run(self, graph: TemporalGraph, window_s: float, start: int = 0,
            end: int | None = None, speedup: float = 1.0,
            num_streams: int = 1,
            queue_capacity: int | None = None,
            ingest: str = "serial",
            scheduler_cls: type | None = None,
            trace: bool = False) -> ServingReport:
        """Replay the multi-stream arrival process through the topology.

        ``ingest="serial"`` serializes batching in front of service (the
        byte-stable historical behavior); ``"pipelined"`` double-buffers
        the ingest tier so the batching delay overlaps in-flight compute.

        Backends are stateful (engine protocol: functional vertex state may
        advance per batch), so a second ``run`` on the same engine continues
        from the first run's warm state — deliberate for warm-deployment
        studies, but for independent, comparable replays build a fresh
        engine (``from_registry`` constructs fresh backends each call).
        The same applies to online rebalancing: migrations mutate the live
        placement, so a second run starts from the drifted partition (the
        rebalancer's own counters do reset per run).

        The arrival process (:func:`make_stream_arrivals`) is the
        loop's input.  Under serial ingest its releases follow from it
        alone, so they are computed once, up front
        (:meth:`~repro.serving.batcher.DynamicBatcher.releases`), and the
        router plans their jobs before they are released: every job at
        once without a controller, else doubling chunks per ownership
        epoch; under pipelined ingest each released job is a one-job
        plan.  A serial run with modeled stations and no controller but
        the rebalancer is served as one pass (:func:`serves_in_one_pass`):
        the releases are the loop's run, the loop delivers only them and
        the rebalancer's plans, and each station commits a job when it
        admits it.  Every other run puts the arrival trace on the loop as
        its run, and the online batcher, which reads the same job ends
        (:meth:`~repro.serving.batcher.DynamicBatcher.ends`), releases the
        same jobs.

        ``scheduler_cls`` is the event loop to build (default
        :class:`EventScheduler`); :class:`HeapEventScheduler` delivers
        every element of the run (each arrival, or in a one-pass run each
        release) as a cohort of one, which is the lane the
        scheduler-equivalence tests and the serving bench compare with.

        ``trace=True`` records the run's typed events as one
        :class:`~repro.serving.events.EventTrace` of columns (costs
        memory) and exposes it as ``last_event_trace`` — the arrays
        :mod:`repro.analysis.tracecheck` reads, and a sequence of the
        typed events for the invariant suites.  It observes the run and
        takes no other path through it: the report and the scheduler's
        counters are those of the untraced run.
        """
        if ingest not in INGEST_MODES:
            raise ValueError(f"ingest must be one of {INGEST_MODES}")
        arrivals = make_stream_arrivals(graph, window_s,
                                        num_streams=num_streams, start=start,
                                        end=end, speedup=speedup)
        sched = (scheduler_cls or EventScheduler)(trace=trace)
        rel = self.batcher.releases(arrivals) if ingest == "serial" else None
        pool = WorkerPool(self.workers) if self._measured else None
        groups = self._make_groups(sched, queue_capacity, pool)
        cache = VersionedMemoryCache(self.router.placement,
                                     policy=self.memsync)

        # Windows per released job, in release order: all the report needs
        # of a job once it is routed (its merged batch lives on only in
        # the sub-batches that alias it).  ``tables`` holds each plan's
        # per-run traffic (:meth:`_traffic`), the runs of the jobs it
        # handed out, plan after plan, so row ``r`` is job ``r //
        # num_shards`` on shard ``r % num_shards``; ``offers[s]`` holds
        # the row of each offer to station ``s``, in offer order.  A
        # one-shard fleet routes no plan: its rows are the job sizes in
        # ``solo``, all local.
        job_windows: list[int] = []
        tables: list[np.ndarray] = []
        offers: list[list[int]] = [[] for _ in groups]
        solo: list[int] = []

        # One control plane per run, and only when a controller exists:
        # it samples released jobs for the policies and is the one actor
        # that vets and applies the ownership plans they propose.
        plane = None
        if any(p is not None for p in (self.rebalancer, self.autoscaler,
                                       self.failure_injector)):
            plane = ControlPlane(
                sched, groups, self.router, cache, self.die_of,
                rebalancer=self.rebalancer, autoscaler=self.autoscaler,
                injector=self.failure_injector,
                pool_shard=self._drift_shard)
        self.last_control = plane

        # A run where nothing reacts to a service end is served as one
        # pass: the batcher's releases are the loop's run, and each
        # station commits a job when it admits it, so no arrival,
        # deadline, service end or dispatch is an event (a rebalancer's
        # plans still are).  A traced pass records those events' rows in
        # the loop's order (LoopOrder).
        one_pass = serves_in_one_pass(ingest, plane, self._measured)
        order = LoopOrder(sched.trace, arrivals, len(groups)) \
            if one_pass and sched.trace is not None else None
        enter: list[Callable[[float, tuple], object]]
        if not one_pass:
            enter = [g.submit for g in groups]
        elif order is None:
            enter = [g.admit for g in groups]
        else:
            enter = [partial(order.admit, g) for g in groups]

        # The routing plan of the current ownership epoch, with the
        # arrival spans of its jobs, the die hops of its runs and the
        # table row of its first run.  Under serial ingest the batcher's
        # releases are known in advance (``rel``), and a plan covers the
        # next ``chunk`` of them.  Without a
        # controller ownership never moves, so that is every job left;
        # with one, any move spends the plan, so an epoch's first plan
        # covers FIRST_PLAN_JOBS and each later one twice the last.
        # Pipelined releases depend on the fleet, so a plan covers the
        # released job alone.
        router = self.router
        plan = spans = die_hops = None
        chunk = 0               # jobs the next plan of this epoch covers
        base = 0                # table rows before this plan's

        def next_runs(lo: int, hi: int) -> list[tuple[int, int, PlanRows]]:
            """The runs of the job of arrivals ``[lo, hi)`` off the
            current plan, re-planning first when it is spent or the
            ownership table moved."""
            nonlocal plan, spans, die_hops, chunk, base
            if plan is None or plan.position == plan.num_jobs \
                    or plan.generation != router.generation:
                if plan is not None:
                    # Keep the rows of the runs the old plan handed out.
                    used = plan.position * router.num_shards
                    if used < len(tables[-1]):
                        tables[-1] = tables[-1][:used].copy()
                    base += used
                if rel is None:
                    starts, ends = np.array([lo]), np.array([hi])
                else:
                    first = int(np.searchsorted(rel.lo, lo))
                    if plane is None:
                        chunk = len(rel.lo)
                    elif plan is None or plan.generation != router.generation:
                        chunk = FIRST_PLAN_JOBS
                    else:
                        chunk *= 2
                    starts = rel.lo[first:first + chunk]
                    ends = rel.hi[first:first + chunk]
                rows, job_edges = arrivals.job_rows(starts, ends)
                plan = router.plan(arrivals.edges, job_edges, rows,
                                   cache=cache)
                spans = list(zip(starts.tolist(), ends.tolist()))
                table, die_hops = self._traffic(plan)
                tables.append(table)
            j = plan.position
            if spans[j] != (lo, hi):
                raise RuntimeError(
                    f"released arrivals [{lo}, {hi}) but the routing plan "
                    f"holds [{spans[j][0]}, {spans[j][1]})")
            return plan.next()

        def route(t: float, lo: int, hi: int) -> None:
            """The fork point: submit each sub-batch of the job of
            arrivals ``[lo, hi)`` to its station at the release instant
            ``t``, after recording the run of the plan that carries its
            mail and sync traffic."""
            ji = len(job_windows)
            job_windows.append(hi - lo)
            if plane is not None:
                # Plans and ScaleEvents decided here fire *after* this
                # job's submissions land: in-flight work drains under the
                # old ownership and fleet, the next release routes under
                # the new.
                plane.observe(t, arrivals.span(lo, hi))
            if router.num_shards == 1:
                # One shard owns every vertex: the job is the one
                # sub-batch, all local, and nothing is mail or stale.  It
                # goes to its station as a JobRows view, which gathers
                # the merged batch only when a column is read.
                n_edges = int(arrivals.cum[hi] - arrivals.cum[lo])
                solo.append(n_edges)
                if n_edges:
                    offers[0].append(ji)
                    hops = 0 if plane is None else plane.take_hops(0)
                    enter[0](t, (JobRows(arrivals, lo, hi, n_edges), hops))
                return
            for run, shard, batch in next_runs(lo, hi):
                hops = die_hops[run]
                if plane is not None:
                    hops += plane.take_hops(shard)
                if sched.trace is not None:
                    sched.trace.sub_job(t, plan, run, shard,
                                        router.assignment)
                offers[shard].append(base + run)
                enter[shard](t, (batch, hops))

        batcher = BatcherActor(self.batcher, sched, route,
                               fleet=groups if ingest == "pipelined" else ())
        if ingest == "pipelined":
            for g in groups:
                g.on_hungry = batcher.on_hungry
        if one_pass:
            batcher.start_releases(rel, order)
        else:
            batcher.start(arrivals)
        try:
            if pool is not None:
                # Worker lanes live exactly as long as the loop: state is
                # pinned per shard at start, and shutdown joins the
                # processes even when the run raises.
                pool.start(dict(enumerate(self.backends)))
            t0 = time.perf_counter()
            sched.run()
            loop_wall = time.perf_counter() - t0
        finally:
            if pool is not None:
                pool.shutdown()
        if order is not None:
            order.until()       # after the plans of the last release
        # Exposed for the invariant tests: the run's EventTrace (None
        # unless trace=True — tracing costs memory).  The
        # scheduler itself is exposed for its counters (events_processed,
        # cohort_calls), and the loop wall-clock isolates the event core
        # from setup and report assembly — the bench reads them.
        self.last_event_trace = sched.trace
        self.last_scheduler = sched
        self.last_loop_wall_s = loop_wall
        self.last_num_arrivals = len(arrivals)
        shard_results = [g.finalize() for g in groups]

        # A mean that overflows is the report's error to raise (see
        # ServingReport.__post_init__), not a numpy warning.
        with np.errstate(over="ignore"):
            if not tables:
                # No plan: one shard (or no job), every edge local.
                tables.append(np.zeros((len(solo), 6), dtype=np.int64))
                tables[0][:, 0] = solo
            return self._report(arrivals, job_windows, tables, offers,
                                shard_results, window_s, speedup,
                                num_streams, ingest,
                                self._measured_block(groups, shard_results))

    # ------------------------------------------------------------------ #
    def _measured_block(self, groups: Sequence[ServerGroup],
                        shard_results: Sequence[SimulationResult]
                        ) -> dict | None:
        """Summarize measured service-time samples for the report.

        ``None`` on modeled runs (the key is then omitted from the
        report, keeping pre-measured goldens byte-identical).  Values are
        wall-clock statistics and therefore *not* run-reproducible; the
        block's structure is.
        """
        if not self._measured:
            return None

        def stats(samples: np.ndarray) -> tuple[float, float]:
            mean = float(samples.mean()) if len(samples) else 0.0
            cv2 = float(samples.var() / mean ** 2) \
                if len(samples) and mean > 0 else 0.0
            return mean, cv2

        per_shard = []
        all_measured: list[np.ndarray] = []
        all_modeled: list[np.ndarray] = []
        stage_seconds: dict[str, float] = {}
        for group, res in zip(groups, shard_results):
            assert isinstance(group, MeasuredServerGroup)   # all, or none
            m = res.service_s[res.server >= 0]
            mod = np.asarray(group.samples, dtype=np.float64)
            all_measured.append(m)
            all_modeled.append(mod)
            mean, cv2 = stats(m)
            per_shard.append({"shard": group.gid, "samples": len(m),
                              "mean_s": mean, "cv2": cv2,
                              "modeled_mean_s": stats(mod)[0]})
            for stage in sorted(group.stage_seconds):
                stage_seconds[stage] = stage_seconds.get(stage, 0.0) \
                    + group.stage_seconds[stage]
        fleet_m = np.concatenate(all_measured) if all_measured \
            else np.empty(0)
        fleet_mod = np.concatenate(all_modeled) if all_modeled \
            else np.empty(0)
        mean, cv2 = stats(fleet_m)
        return {"workers": self.workers, "samples": len(fleet_m),
                "mean_s": mean, "cv2": cv2,
                "modeled_mean_s": stats(fleet_mod)[0],
                "stage_seconds": stage_seconds,
                "per_shard": per_shard}

    # ------------------------------------------------------------------ #
    def _report(self, arrivals: ArrivalTrace,
                job_windows: list[int], tables: list[np.ndarray],
                offers: list[list[int]],
                shard_results: list[SimulationResult],
                window_s: float, speedup: float, num_streams: int,
                ingest: str, measured: dict | None) -> ServingReport:
        """Fold one finished run into its :class:`ServingReport`.

        ``offers[s]`` is station ``s``'s traffic row per offer, in the
        offer order ``shard_results[s]``'s columns follow, into the
        stacked ``tables`` (laid out in :meth:`run`), so the fold
        is array operations per station, none per sub-job.
        """
        rebal, chaos, auto = \
            self.rebalancer, self.failure_injector, self.autoscaler

        # Resolve drops globally first: a window is dropped if *any*
        # shard's queue rejected its sub-job, and a dropped window's
        # surviving sub-jobs must not inflate the traffic report even
        # though their shards did serve them.  A job finishes with its
        # last served sub-job (``fmax`` skips a drop's NaN).
        table = tables[0] if len(tables) == 1 else np.concatenate(tables)
        rows = [np.array(o, dtype=np.int64) for o in offers]
        finish_of_job = np.full(len(job_windows), -np.inf)
        job_dropped = np.zeros(len(job_windows), dtype=bool)
        for r, res in zip(rows, shard_results):
            job = r // self.num_shards
            job_dropped[job[res.server < 0]] = True
            np.fmax.at(finish_of_job, job, res.t_finish)

        # Traffic counts the sub-jobs of non-dropped windows only — edges
        # rejected by a full queue were never processed, and partial
        # windows are reported dropped, so neither may count.
        counted = [table[r[~job_dropped[r // self.num_shards]]]
                   for r in rows]
        sums = np.array([c.sum(axis=0) for c in counted], dtype=np.int64)
        shard_traffic = sums[:, :2]
        cross_die_mail, sync_edges, stale_reads = \
            (int(x) for x in sums[:, 2:5].sum(axis=0))
        max_version_lag = max(int(c[:, 5].max(initial=0)) for c in counted)

        # Window-level accounting: a window responds when its job's last
        # shard finishes; it is dropped if any shard's queue rejected it.
        # Windows arriving inside an outage interval feed the chaos tail
        # metrics separately — the recovery bill lands there.
        finite = finish_of_job[np.isfinite(finish_of_job)]
        run_end = float(finite.max()) if len(finite) else float(arrivals.t[0])
        # An unrecovered failure leaves its outage open (hi == inf) — exact
        # internally, but Infinity is not strict JSON, so anything derived
        # for the report clamps open windows to the run's end.  Membership
        # below is unchanged by the clamp: every served arrival precedes
        # its own finish, hence run_end.
        outages = [(lo, min(hi, run_end))
                   for lo, hi in (chaos.outage_intervals()
                                  if chaos is not None else [])]
        # Jobs are released in admission order and drain the buffer, so
        # their sources, job after job, are the arrival trace itself.
        n_sources = np.asarray(job_windows, dtype=np.int64)
        job_served = ~job_dropped & np.isfinite(finish_of_job)
        dropped_windows = int(n_sources[~job_served].sum())
        served = np.repeat(job_served, n_sources)
        t_arrive = arrivals.t[served]
        resp = np.repeat(finish_of_job, n_sources)[served] - t_arrive
        in_outage = np.zeros(len(t_arrive), dtype=bool)
        for lo, hi in outages:
            in_outage |= (lo <= t_arrive) & (t_arrive < hi)
        outage_resp = resp[in_outage]

        stats = tuple(
            ShardStats(shard=s,
                       backend=getattr(self.backends[s], "name",
                                       type(self.backends[s]).__name__),
                       jobs=r.jobs,
                       edges=int(shard_traffic[s].sum()),
                       local_edges=int(shard_traffic[s, 0]),
                       mail_in_edges=int(shard_traffic[s, 1]),
                       busy_s=r.busy_s,
                       utilization=r.utilization,
                       offered_load=r.offered_load,
                       mean_wait_s=r.mean_wait_s,
                       mean_response_s=r.mean_response_s,
                       p95_response_s=r.p95_response_s,
                       p99_response_s=r.p99_response_s,
                       max_queue_depth=r.max_queue_depth,
                       dropped_jobs=r.dropped,
                       # An elastic station reports the fleet it started
                       # with; the scaling block carries the rest.
                       servers=self.server_counts[s])
            for s, r in enumerate(shard_results))

        # One sort feeds both percentiles, read off it in closed form
        # (``sorted_percentile``, numpy's ``linear`` bit for bit); the
        # mean stays on the unsorted array, in job-then-source order —
        # summation order changes its last bits.
        resp_sorted = np.sort(resp)
        # First *stream* arrival (not first job release) to last service
        # completion.
        makespan = run_end - float(arrivals.t[0]) if len(finite) else 0.0
        placement = self.router.placement
        return ServingReport(
            num_shards=self.num_shards, num_streams=num_streams,
            speedup=speedup, window_s=window_s,
            windows=len(resp), dropped_windows=dropped_windows,
            mean_response_s=float(resp.mean()) if len(resp) else 0.0,
            p95_response_s=sorted_percentile(resp_sorted, 95)
            if len(resp) else 0.0,
            p99_response_s=sorted_percentile(resp_sorted, 99)
            if len(resp) else 0.0,
            makespan_s=makespan,
            ingested_edges=arrivals.num_edges,
            processed_edges=int(shard_traffic.sum()),
            cross_shard_edges=int(shard_traffic[:, 1].sum()),
            cross_die_mail_edges=cross_die_mail,
            shard_stats=stats,
            topology=self.topology,
            placement=placement.policy,
            replicated_vertices=placement.replicated_vertices,
            memsync=self.memsync,
            sync_edges=sync_edges,
            stale_reads=stale_reads,
            max_version_lag=max_version_lag,
            pool_servers=self.pool_servers,
            ingest=ingest,
            rebalance="off" if rebal is None else "online",
            migrations=0 if rebal is None else rebal.migrations,
            migrated_vertices=0 if rebal is None else rebal.migrated_vertices,
            handoff_rows=0 if rebal is None else rebal.handoff_rows,
            chaos="off" if chaos is None else chaos.chaos,
            failures=0 if chaos is None else chaos.failures,
            recoveries=0 if chaos is None else chaos.recoveries,
            promoted_vertices=0 if chaos is None else chaos.promoted_vertices,
            rebuilt_vertices=0 if chaos is None else chaos.rebuilt_vertices,
            recovery_rows=0 if chaos is None else chaos.recovery_rows,
            outage_windows=len(outage_resp),
            outage_p99_response_s=sorted_percentile(np.sort(outage_resp), 99)
            if len(outage_resp) else 0.0,
            stale_plans=0 if self.last_control is None
            else self.last_control.stale,
            measured=measured,
            scaling=None if auto is None
            else auto.report_block(float(arrivals.t[0]), makespan))
