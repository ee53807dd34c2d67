"""Serving-layer architecture: one discrete-event core, one fleet shape.

The ``pipeline`` package answers "how fast is one batch on one idle
device"; this package answers the production question: how does a fleet
behave when many streams hit it at once.  Since the unified-core refactor,
every composition runs on **one event scheduler**
(:mod:`repro.serving.events`) — ingest, routing, shard compute, mailbox,
and memory-sync traffic advance on a single clock, the software analogue
of the paper's dataflow pipeline overlapping sampling, memory update, and
attention on the FPGA.

Performance
-----------
The event core is vectorized: :class:`EventScheduler` holds the loop's
bulk — the arrival trace, or a one-pass run's releases — as its one
*run* (a contiguous numpy timestamp array + one consumption pointer)
and delivers maximal safe prefixes of it as **cohorts** to the actor
that scheduled it, while dynamically created events (service
ends, dispatches, deadline flushes, migrations) ride a conventional
``(t, priority, seq)`` heap overlay.  Ordering is bit-identical to
per-element delivery, :class:`HeapEventScheduler` (the same loop with
every cohort cut to one) — the equivalence is property-tested, the
``serve-sim`` golden reports are byte-identical under both, and
``bench_serving_scale`` asserts the events/sec speedup of cohort over
per-element delivery every run (the ratio is tracked across commits via
the ``BENCH_events_per_sec`` perf-trajectory artifact).  Tracing
(``trace=True``) observes that one loop and takes no path of its own:
same cohorts, same counters, same report, plus the typed-event record,
an :class:`EventTrace` of columns that builds no event object until it
is read as a sequence.  A run where nothing reacts to a service end
(serial ingest, modeled stations, no controller but an online
rebalancer) is served as **one pass**: its releases
(:meth:`DynamicBatcher.releases`) and the rebalancer's plans are the
loop's only events, and each station commits a job when it admits it
(:meth:`ServerGroup.admit`); the per-event loop is its oracle, report
bytes and traced events alike, for positive service times.
Ingest is columnar from end to end: :func:`make_stream_arrivals` builds
one :class:`ArrivalTrace` (arrival instants, streams and per-edge indices
into the graph's own columns) with no Python step per arrival, the
scheduler's run *is* that trace, the batcher's pending buffer is a span
of it, a released job is a span of it, and the
report subtracts its ``t`` column from the job finish times.  A
:class:`StreamArrival` exists only where somebody indexes or iterates
the trace (reading the arrival events of a traced run, tests).
Routing is columnar per ownership epoch: under serial ingest the job
boundaries follow from the trace alone (:meth:`DynamicBatcher.releases`,
once per run), so the engine routes many jobs in one
:meth:`ShardRouter.plan` — one incidence, one ``(job, shard)`` sort, one
closed-form memsync pass (:meth:`VersionedMemoryCache.steps`) — and
hands them out one at a time: every job of the run when no controller
can move ownership, else doubling chunks of them, re-planned after an
ownership move bumps :attr:`ShardRouter.generation`; under pipelined
ingest each released job is a one-job plan of the same trace rows,
which is what :meth:`ShardRouter.split` is.
Modeled backends (``u200``/``zcu104``, ``cpu-32t``/``gpu``) price a batch
from its shape; they do not execute its kernels.

Actors on the scheduler
-----------------------
* :class:`BatcherActor` — the :class:`DynamicBatcher` policy run online:
  size/deadline flush triggers, plus the double-buffered drain trigger
  under pipelined ingest;
* the engine's ``route`` — the fork point, the batcher's sink: a released
  job is split across the stations that hold its vertices
  (:class:`ShardRouter` + :class:`Placement`; a one-station fleet gets
  the job whole, as a :class:`~repro.serving.batcher.JobRows` view of
  its arrivals), and each sub-batch — a
  :class:`~repro.serving.router.PlanRows` view the router's plan hands
  out beside its run index — is submitted to its station with its mail
  and sync traffic recorded at the release instant.  Either view
  gathers a column only when a backend reads it;
* :class:`ServerGroup` — a FIFO station of N identical servers: a
  dedicated shard is a 1-server group, a replica pool a K-server group;
  its statistics reproduce the historical standalone queue loop exactly;
* :class:`ControlPlane` — the one actor that changes vertex ownership
  (:mod:`repro.serving.control`): it samples released jobs once for every
  policy, answers "which shard may receive ownership" from one
  eligibility mask (accepting, inside the scaler's active prefix), and
  vets and applies the per-vertex plans the policies propose — a plan
  another policy overtook is dropped and counted
  (``ServingReport.stale_plans``), never raced.  Its three policies run
  in any combination: :class:`OnlineRebalancer` (overload-driven moves
  between dedicated shards; heat-band drift between pool and shards in
  hybrid), :class:`AutoScaler` (splits/merges behind a
  :class:`ScaleEvent`; a lone station is resized in place) and
  :class:`FailureInjector` (failover and fail-back); every applied
  change is one :class:`MigrationEvent`, its state handoff priced
  through ``mail_hop_s`` like sync traffic.  On a one-station fleet
  there is nothing to move, and they say so: zero migrations, and a
  dead failure is refused for want of a survivor;
* :class:`VersionedMemoryCache` — the coherence state the router's plan
  reads and commits, job by job in release order; the plan's per-run
  columns are the one record of a sub-job's mail and sync traffic, which
  the engine reads as one table per plan.  :meth:`ShardRouter.split`
  packs them into :class:`ShardBatch` records for the callers that want
  one object per sub-job (:class:`CrossShardMailbox` tallies the mail
  for callers that pass one to it).

Typed events: ``ArrivalEvent``, ``FlushEvent``, ``ServiceBeginEvent``,
``ServiceEndEvent``, ``MailEvent``, ``SyncEvent``, ``MigrationEvent``,
``ScaleEvent``, ``FailureEvent``, ``RecoveryEvent``.  At
equal timestamps events fire in a fixed priority order (ends → dispatches
→ migrations → flushes → arrivals), so runs are exactly reproducible; the
scheduler enforces global timestamp monotonicity, and the conservation
invariants (every admitted job served exactly once, per-server busy
intervals never overlap — with and without mid-run migrations) are
property-tested over randomized traces.

Fleet shape × ingest matrix (:class:`ServingEngine`)
----------------------------------------------------
A fleet is ``(placement, server_counts)``: one :class:`ServerGroup` per
backend, station ``s`` serving the vertices the :class:`Placement` gives
shard ``s`` with ``server_counts[s]`` servers, and ``server_counts = [1]
* (n - 1) + [k]``.  The paper's two boards are one design with five
numbers changed; the three ``topology=`` names are likewise three
spellings of one vector, read where it is built and nowhere after:

=============  =========  ==============================================
``sharded``    ``k = 1``  partitioned shards, dedicated FIFO queues,
                          fork-join window completion; placement
                          policies apply
``pool``       ``n = 1``  K stateless replicas behind one shared queue;
                          the one station owns every vertex, so no
                          mail, no sync, ``replication_factor == 1``
``hybrid``     general    measured-traffic hot head on dedicated shards
                          (:class:`HotColdHybrid`), cold tail drained
                          by the K-server last station — cross-regime
                          edges ride the ordinary mailbox
=============  =========  ==============================================

Routing, memsync, die pricing, the controllers and the report run one
path over the vector, so ``pool(k)`` equals ``hybrid`` over the one-shard
placement with ``pool_servers=k``, and ``sharded`` over ``P`` equals
``hybrid`` over ``P`` with ``pool_servers=1``, field for field
(``tests/property/test_control_properties.py``).  What the structure cannot
carry is three rules, stated once each in :class:`ServingEngine`:
measured backends need one-server stations, autoscaling needs a uniform
fleet, a pool takes one backend.

Each fleet runs under either ingest mode: ``serial`` (batching delay
serializes in front of service — byte-identical to the pre-event-core
engine, pinned by golden tests) or ``pipelined`` (double-buffered ingest —
the buffer flushes the moment the fleet goes hungry, so batching delay is
paid only while it hides behind in-flight compute).

There is exactly one queue implementation in the repo, the
:class:`ServerGroup` station; the tier-2 queueing tests validate it against
closed-form M/M/1, M/M/c, and the Kingman/Allen–Cunneen G/G/c
approximation.  One stream through one shard behind a passthrough
batcher is the single-server queue of the paper's deployment.

Placement-policy protocol
-------------------------
Where each vertex lives is a policy, not a constant.  A policy implements

    ``place(heat: VertexHeat, num_shards: int, profile=None) -> Placement``

where ``heat`` carries per-vertex source/destination edge counts and
``profile`` is optional measured feedback (per-shard ``ShardStats`` from a
profiling run).  The returned :class:`Placement` names a primary owner per
vertex plus optional replica shards; the router delivers every incident
edge to every holder, so replica state is exact.  That object then *is*
the run's live ownership table: its ``assignment`` and holder matrix are
stored once, the router and the memsync cache read those same arrays, and
the two ownership moves (:func:`~repro.serving.memsync.hand_off`,
:func:`~repro.serving.memsync.fail_over`) mutate them in place
(``Placement.replicas`` is a derived view).  Built-ins:

* :class:`StaticHashPlacement` (``"hash"``) — static multiplicative hash;
* :class:`LoadAwareRebalance` (``"rebalance"``) — *two-pass* profile-guided
  migration (profile a run, migrate, redeploy);
* :class:`ReplicatedReadMostly` (``"replicate"``) — replicates high-fanout
  read-mostly vertices; cost surfaces as
  ``ServingReport.replication_factor``;
* :class:`HotColdHybrid` — hot head over dedicated shards, cold tail on
  the pool pseudo-shard (hybrid topology only; not in
  :data:`PLACEMENT_POLICIES`).

Register new policies in :data:`PLACEMENT_POLICIES` (name -> class); the
``serve-sim`` CLI and ``bench_serving_scale`` sweep whatever is there.

Rebalancing happens at two timescales.  A *placement policy* decides
before a run (``LoadAwareRebalance`` needs a whole profiling pass before
it can act).  The **online** path (:mod:`repro.serving.rebalance`) reacts
*during* a run: the :class:`OnlineRebalancer` proposes vertex moves the
:class:`ControlPlane` applies mid-stream, the memsync
version counters survive the ownership change (post-migration ``push``
replays stay bit-identical to the unsharded runtime — the exactness suite
in ``test_rebalance``), and the handoff (memory rows + neighbor-table
slices) is priced like :class:`SyncEvent` traffic.  In the hybrid
topology the same actor tracks hot-set drift: vertices heating up migrate
pool → shard, cooled ones shard → pool.  ``serve-sim
--rebalance-online --rebalance-threshold --rebalance-window`` drives it.

Cross-shard memory sync
-----------------------
The mailbox keeps neighbor *tables* exact; vertex-*memory* coherence for
non-held endpoints is a policy (:mod:`repro.serving.memsync`):

* :class:`VersionedMemoryCache` — per-vertex version counters bumped on
  every owner write, with ``none`` / ``invalidate`` / ``push`` policies
  (:data:`MEMSYNC_POLICIES`);
* ``ServingEngine(..., memsync=...)`` prices the sync traffic into service
  times and reports ``sync_edges`` / ``stale_reads`` / ``max_version_lag``
  (``serve-sim --memsync {none,invalidate,push}`` sweeps it).

The library prices coherence and never executes it.  The functional
two-phase sharded replay, whose held-vertex memory tables and embeddings
are bit-identical to the unsharded runtime under the sync policies, is the
tests' oracle: ``ShardedRuntime`` in ``tests/property/sharded_oracle.py``,
which drives this package's router, cache and apply steps.

Measured backends
-----------------
Every backend above *prices* a batch; the ``measured`` backend
(:mod:`repro.serving.measured`) *executes* it.  A
:class:`MeasuredServerGroup` — a drop-in :class:`ServerGroup` subclass —
dispatches each admitted sub-batch's real numpy
``update_memory``/``embed`` kernels to a persistent
:class:`WorkerPool` (``workers=N`` process lanes, shard ``s`` pinned to
lane ``s % N`` so each shard's stream stays FIFO against one persistent
backend; ``workers=0`` computes in-process) and reconciles the measured
wall-clock duration back into deterministic event time: completions are
committed in dispatch order at ``max(t_begin, lane_free) + measured_s``,
so the event core stays exact and traced runs replay through
``tracecheck`` clean while shards genuinely execute in parallel on the
wall clock.  The wall clock enters through exactly one door —
:meth:`repro.pipeline.SoftwareBackend.compute`, which
:class:`MeasuredBackend` inherits and a lane calls; no serving module
reads a clock (the ``wall-clock-in-events`` lint rule) — and the report
gains a ``measured`` block (pooled and per-shard mean/cv², modeled-vs-measured
means, kernel stage split; omitted on modeled runs, so the goldens
stand).  Runs are deterministic in *structure* but not timing values;
the report with every float nulled is the byte-comparable
projection (the measured tests compare it), and the measured service-time samples feed the tier-2
Kingman/Allen–Cunneen G/G/c checks with measured cv².  ``serve-sim
--backend measured --workers N`` drives it.

Failure injection and exact failover
------------------------------------
Chaos is a first-class schedule, not a test-only monkeypatch.  A
:class:`FailurePlan` names *when* a shard fails, *how* (``slow`` — its
service times are multiplied by a degradation factor; ``dead`` — the
shard stops accepting sub-jobs and its vertex state is lost), and
optionally when it recovers; the engine turns plans into
:class:`FailureEvent` / :class:`RecoveryEvent` entries on the same
scheduler (at migration priority, so a failure at time *t* lands after
service ends and dispatches at *t* but before flushes and arrivals).
:class:`FailureInjector` is the policy: on a ``dead`` failure it drains
the shard's queue (dropped sub-jobs are *counted*, never silently lost —
conservation holds through the outage), promotes the dead shard's
replica mirrors to owners (:func:`~repro.serving.memsync.fail_over`, the
one failover apply step, handed the control plane's eligible shards — a
shard that is already down, or an elastic slot not yet activated, never
receives ownership), and rebuilds every unreplicated lost vertex by
memsync replay from the lowest-numbered peer that held a current copy
before the failover — each rebuilt vertex priced at
``HANDOFF_ROWS_PER_VERTEX`` rows through ``mail_hop_s``, exactly like a
planned migration.  Recovery proposes the held state's way back
(``fail-back`` rows in the migration trace), so promote → rebuild →
fail-back forms the same exactly-once ownership chain the rebalancer's
invariant suite replays.  The functional mirror is
``ShardedRuntime.fail_shard`` / ``recover_shard`` in the tests' oracle
(``tests/property/sharded_oracle.py``): under the ``push`` policy a
failed-and-recovered run ends bit-identical to the unsharded runtime (the
exactness suite in ``test_failover``).
``serve-sim --fail-at --fail-shard --fail-mode --recover-at`` drives it;
a run with chaos off omits every chaos key from the JSON report, so the
golden reports of earlier revisions stay byte-identical.

Elastic capacity
----------------
Rebalancing and failover act on a *fixed* fleet; production serving
resizes the fleet against traffic.  The :class:`AutoScaler`
(:mod:`repro.serving.autoscale`) is the policy for that: it observes the
windowed p95 response latency of completed jobs against an SLO band
(breach above ``slo_p95_s`` scales up; slack below ``low_band_frac *
slo_p95_s`` scales down — hysteresis plus a decision cooldown prevent
ping-pong) and schedules :class:`ScaleEvent`\\ s at migration priority on
the same event core.  :class:`CapacityConfig` gives the controller its
units, BatchConfig-style: integral counts and fleet bounds validated at
construction, and ``global_capacity = micro_batch × replicas`` derived.
On a one-station fleet (the pool), replicas spin up free at the scale
instant (:meth:`ServerGroup.scale_up`) and spin down on drain
(:meth:`ServerGroup.scale_down` — a busy victim finishes its committed
job before leaving; server ids are never reused).  On a fleet of
one-server stations, the fleet is a ``max_replicas``-slot array laid out by
:func:`padded_hash_placement`; scale-up **splits** the hottest shard's
measured-hot vertices into the next inactive slot, scale-down **merges**
the highest active slot onto the coolest live survivor — both as plans
the :class:`ControlPlane` applies like any other (reasons
``"split"``/``"merge"``, rows priced via ``mail_hop_s``) with
:class:`VersionedMemoryCache` ownership transfer, so post-split ``push``
replays stay bit-identical and the tracecheck ownership replay stays
exactly-once — with the rebalancer and failures running beside it.  The report gains a
``scaling`` block (scale events, peak/mean fleet, the server-seconds
integral the diurnal bench compares against static peak provisioning;
omitted when off, so earlier goldens stand), tracecheck replays the
scale log as a ``fleet-size`` chain, and ``serve-sim --autoscale
--slo-p95 --scale-window --max-servers`` drives it.

Correctness tooling
-------------------
The exactness contracts above are conventions; :mod:`repro.analysis`
enforces them mechanically, before the golden diff can catch a break:

* **repro-lint** (static) — a stdlib-``ast`` linter whose ruleset *is*
  this package's style guide: ``unseeded-rng`` (all randomness flows from
  an explicit ``np.random.Generator`` / threaded seed; no global-state
  APIs, no buried literal seeds), ``wall-clock-in-events`` (handlers in
  ``events.py`` and ``measured.py`` take time from the scheduler, never
  the host clock; measured durations come from
  ``SoftwareBackend.compute``),
  ``unordered-iteration`` (no set / ``.keys()`` iteration feeding
  scheduling or report assembly), ``float-sum-report`` (builtin ``sum()``
  only over integer summands on report paths; float reductions use
  ``math.fsum`` or a documented stable order), and
  ``scheduler-purity`` (actors touch the scheduler only via
  ``schedule``/``schedule_run``/``record``).  Intentional
  sites carry ``# repro-lint: ok=<rule> (reason)``.  Omit-when-off
  needs no rule: a defaulted :class:`ServingReport` field is dropped
  from ``to_dict()`` while its gate holds its default, by declaration.
* **tracecheck** (dynamic) — evaluates array predicates over a
  ``trace=True`` run's :class:`EventTrace` columns and flags causality
  violations, non-exactly-once service or ownership, busy-interval
  overlap, off-flush mail and conservation breaks.  ``serve-sim
  --check-trace`` (exit 3 on findings) and the bench smoke's
  trace-invariants lane run it end-to-end.

Both halves block CI (the ``lint`` job runs ahead of tier-1, together
with the ruff/mypy baseline in pyproject.toml).
"""

from .autoscale import AutoScaler, CapacityConfig  # noqa: F401
from .batcher import (ArrivalTrace, CoalescedJob,  # noqa: F401
                      DynamicBatcher, StreamArrival)
from .control import ControlPlane, FailureInjector  # noqa: F401
from .engine import (ServingEngine, ServingReport,  # noqa: F401
                     ShardStats, make_stream_arrivals)
from .events import (INGEST_MODES, ArrivalEvent, BatcherActor,  # noqa: F401
                     EventScheduler, EventTrace, FailureEvent, FailurePlan,
                     FlushEvent, HeapEventScheduler, MailEvent,
                     MigrationEvent, RecoveryEvent, ScaleEvent,
                     ServerGroup, ServiceBeginEvent, ServiceEndEvent,
                     SimulationResult, SyncEvent)
from .measured import (MeasuredBackend,  # noqa: F401
                       MeasuredServerGroup, WorkerPool)
from .memsync import (HANDOFF_ROWS_PER_VERTEX,  # noqa: F401
                      MEMSYNC_POLICIES, VersionedMemoryCache)
from .rebalance import OnlineRebalancer  # noqa: F401
from .placement import (PLACEMENT_POLICIES, HotColdHybrid,  # noqa: F401
                        LoadAwareRebalance, Placement, PlacementPolicy,
                        ReplicatedReadMostly, StaticHashPlacement,
                        VertexHeat, hash_assignment, make_policy,
                        padded_hash_placement)
from .registry import DEFAULT_REGISTRY, BackendRegistry  # noqa: F401
from .router import CrossShardMailbox, ShardBatch, ShardRouter  # noqa: F401

__all__ = [
    "ServingEngine", "ServingReport", "ShardStats", "make_stream_arrivals",
    "ShardRouter", "ShardBatch", "CrossShardMailbox",
    "DynamicBatcher", "CoalescedJob", "StreamArrival", "ArrivalTrace",
    "SimulationResult",
    "EventScheduler", "EventTrace", "HeapEventScheduler", "ServerGroup",
    "BatcherActor",
    "INGEST_MODES",
    "ArrivalEvent", "FlushEvent", "ServiceBeginEvent", "ServiceEndEvent",
    "MailEvent", "SyncEvent", "MigrationEvent", "ScaleEvent",
    "FailureEvent", "RecoveryEvent", "FailurePlan", "FailureInjector",
    "ControlPlane",
    "OnlineRebalancer", "HANDOFF_ROWS_PER_VERTEX",
    "AutoScaler", "CapacityConfig",
    "BackendRegistry", "DEFAULT_REGISTRY",
    "Placement", "PlacementPolicy", "VertexHeat", "hash_assignment",
    "padded_hash_placement",
    "StaticHashPlacement", "LoadAwareRebalance", "ReplicatedReadMostly",
    "HotColdHybrid", "PLACEMENT_POLICIES", "make_policy",
    "MEMSYNC_POLICIES", "VersionedMemoryCache",
    "MeasuredBackend", "MeasuredServerGroup", "WorkerPool",
]
