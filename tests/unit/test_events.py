"""Invariant and equivalence tests for the discrete-event serving core.

Three contracts pin the refactor:

* One :class:`ServerGroup` on the shared scheduler, fed hand-built
  arrivals (``simulate_queue`` in ``tests/property/queue_oracle.py``), is
  *exactly* equivalent — every per-offer column, every aggregate — to the
  historical standalone arrival-driven loop, reproduced here as
  :func:`reference_simulate_queue`.
* :class:`BatcherActor` under serial ingest releases *exactly* the jobs
  :meth:`DynamicBatcher.coalesce` computes offline, for every trigger
  configuration.
* Scheduler conservation: every admitted job is served exactly once, no
  event fires out of timestamp order, and per-server busy intervals never
  overlap — over randomized arrival traces, all topologies, both ingest
  modes.
* Heap-vs-vectorized equivalence: the struct-of-array cohort scheduler
  fires the exact same sequence as the retained :class:`HeapEventScheduler`
  oracle — element for element over randomized programs with time ties,
  priority collisions, and dynamically scheduled follow-ups — and the full
  actor stack (batcher, groups, engine reports) is bit-identical under
  both (``TestHeapVsVectorizedEquivalence``).
"""

import heapq
import math
from functools import partial

import numpy as np
import pytest

from repro.datasets import wikipedia_like
from repro.graph import TemporalGraph
from repro.graph.temporal_graph import EdgeBatch
from repro.pipeline import LinearCostBackend
from repro.serving import (ArrivalEvent, BatcherActor, CoalescedJob,
                           DynamicBatcher, EventScheduler, FlushEvent,
                           HeapEventScheduler, HotColdHybrid, MailEvent,
                           ServiceBeginEvent, ServiceEndEvent, ServingEngine,
                           StreamArrival, SyncEvent, VertexHeat,
                           make_stream_arrivals)
from repro.serving.events import _FLUSH, ServerGroup, SimulationResult
from tests.property.arrival_oracle import from_arrivals
from tests.property.queue_oracle import admit_queue, simulate_queue


# --------------------------------------------------------------------------- #
def reference_simulate_queue(arrivals, service_fn, num_servers=1,
                             queue_capacity=None):
    """The historical standalone queue loop (pre-event-core), verbatim.

    Kept here as the independent oracle the façade is property-tested
    against: same admission rule, same tie-breaking, same statistics.
    Its served jobs fill the per-offer columns a station reports.
    """
    arr = list(arrivals)
    free = [(0.0, s) for s in range(num_servers)]
    waiting = []
    served = []
    busy = 0.0
    max_depth = 0
    for i, (t_arrive, payload) in enumerate(arr):
        while waiting and waiting[0] <= t_arrive:
            heapq.heappop(waiting)
        if queue_capacity is not None and len(waiting) >= queue_capacity \
                and free[0][0] > t_arrive:
            continue
        service = float(service_fn(payload))
        free_t, srv = heapq.heappop(free)
        begin = max(free_t, t_arrive)
        finish = begin + service
        heapq.heappush(free, (finish, srv))
        busy += service
        if begin > t_arrive:
            heapq.heappush(waiting, begin)
            max_depth = max(max_depth, len(waiting))
        served.append((i, begin, finish, service, srv))
    columns = dict(t_arrive=np.array([t for t, _ in arr], dtype=float),
                   t_begin=np.full(len(arr), np.nan),
                   t_finish=np.full(len(arr), np.nan),
                   service_s=np.full(len(arr), np.nan),
                   server=np.full(len(arr), -1),
                   num_servers=num_servers, max_queue_depth=max_depth)
    for i, begin, finish, service, srv in served:
        columns["t_begin"][i] = begin
        columns["t_finish"][i] = finish
        columns["service_s"][i] = service
        columns["server"][i] = srv
    if not served:
        return SimulationResult(**columns, busy_s=0.0, makespan_s=0.0,
                                utilization=0.0, offered_load=0.0)
    t_first = arr[0][0]
    makespan = max(max(job[2] for job in served) - t_first, 0.0)
    utilization = busy / (num_servers * makespan) if makespan > 0 else \
        (1.0 if busy > 0 else 0.0)
    n = len(arr)
    span = arr[-1][0] - t_first
    mean_service = busy / len(served)
    if n <= 1:
        offered = 0.0
    elif span <= 0:
        offered = float("inf")
    else:
        offered = ((n - 1) / span) * mean_service / num_servers
    return SimulationResult(**columns, busy_s=busy, makespan_s=makespan,
                            utilization=utilization, offered_load=offered)


def random_trace(rng, n, tie_prob=0.3):
    """Sorted arrival times with deliberate exact ties."""
    gaps = rng.exponential(1.0, size=n)
    gaps[rng.random(n) < tie_prob] = 0.0
    t = np.cumsum(gaps)
    return [(float(ti), i) for i, ti in enumerate(t)]


class TestFacadeEquivalence:
    """simulate_queue (event core) == the historical loop, field for field."""

    def assert_identical(self, a: SimulationResult, b: SimulationResult):
        for column in ("t_arrive", "t_begin", "t_finish", "service_s",
                       "server"):         # bit-exact, NaN where dropped
            assert np.array_equal(getattr(a, column), getattr(b, column),
                                  equal_nan=True), column
        assert a.num_servers == b.num_servers
        assert a.busy_s == b.busy_s          # bit-exact, not approx
        assert a.makespan_s == b.makespan_s
        assert a.utilization == b.utilization
        assert a.offered_load == b.offered_load
        assert a.max_queue_depth == b.max_queue_depth

    @pytest.mark.parametrize("servers", [1, 2, 5])
    @pytest.mark.parametrize("capacity", [None, 0, 3])
    def test_randomized_traces(self, servers, capacity):
        rng = np.random.default_rng(servers * 100 + (capacity or 7))
        for trial in range(12):
            n = int(rng.integers(1, 120))
            arr = random_trace(rng, n)
            service = rng.exponential(0.8, size=n)
            got = simulate_queue(arr, lambda i: float(service[i]),
                                 num_servers=servers,
                                 queue_capacity=capacity)
            want = reference_simulate_queue(
                arr, lambda i: float(service[i]), num_servers=servers,
                queue_capacity=capacity)
            self.assert_identical(got, want)

    def test_deterministic_edge_cases(self):
        cases = [
            ([], 1, None),
            ([(0.0, 0)], 1, None),
            ([(0.0, 0)] * 5, 2, None),             # all-simultaneous burst
            ([(0.0, 0)] * 5, 2, 0),                # bufferless loss system
            ([(float(i), i) for i in range(10)], 3, 1),
            ([(0.0, 0), (0.0, 1), (1.0, 2), (1.0, 3)], 2, 2),
        ]
        for arr, servers, cap in cases:
            got = simulate_queue(arr, lambda _: 2.5, num_servers=servers,
                                 queue_capacity=cap)
            want = reference_simulate_queue(arr, lambda _: 2.5,
                                            num_servers=servers,
                                            queue_capacity=cap)
            self.assert_identical(got, want)

    def test_service_fn_called_in_admission_order_only_for_admitted(self):
        calls = []

        def service(payload):
            calls.append(payload)
            return 10.0

        arr = [(float(i) * 0.1, i) for i in range(6)]
        res = simulate_queue(arr, service, queue_capacity=1)
        assert calls == sorted(calls)
        assert len(calls) == res.jobs
        dropped = np.flatnonzero(res.server < 0)
        assert set(calls) | {arr[i][1] for i in dropped} == set(range(6))

    def test_a_lost_offer_raises_at_finalize(self):
        """The station's conservation guard: an offer that was neither
        committed nor drop-marked is a lost job, and one committed twice
        would count its service twice; ``finalize`` raises on either
        rather than skew the columns."""
        sched = EventScheduler()
        group = ServerGroup(0, 1, lambda _p: 1.0, sched)
        group.submit(0.0, "served")
        group.submit(0.0, "waits")
        group.submit(0.0, "waits too")
        group._waiting.clear()          # lose both waiting jobs
        sched.run()
        with pytest.raises(RuntimeError, match=r"offer\(s\) \[1, 2\]"):
            group.finalize()

        sched = EventScheduler()
        group = ServerGroup(0, 1, lambda _p: 1.0, sched)
        group.submit(0.0, "served")
        group.submit(0.0, "served too")
        sched.run()
        group.finalize()
        group._commits.append(group._commits[0])    # commit offer 0 twice
        with pytest.raises(RuntimeError, match=r"offer\(s\) \[0\]"):
            group.finalize()

    def test_a_drop_has_no_interval(self):
        """A dropped offer keeps its arrival and gets NaN begin, finish
        and service and server -1; served offers keep offer order."""
        res = simulate_queue([(0.0, "a"), (1.0, "b"), (2.0, "c")],
                             lambda _p: 10.0, queue_capacity=1)
        assert res.t_arrive.tolist() == [0.0, 1.0, 2.0]
        assert res.server.tolist() == [0, 0, -1]
        assert res.t_finish[:2].tolist() == [10.0, 20.0]
        assert np.isnan([res.t_begin[2], res.t_finish[2],
                         res.service_s[2]]).all()
        assert (res.jobs, res.dropped) == (2, 1)


class TestAdmissionClosedForm:
    """``ServerGroup.admit`` (the one-pass station) == the historical loop
    and the event-core station, field for field, on hand-built arrivals
    with equal instants: integer-grid arrival times and integer service
    times make equal finishes, and ties with arrivals, common."""

    @staticmethod
    def grid_trace(rng, n):
        t = np.sort(rng.integers(0, max(n // 3, 1), size=n)).astype(float)
        return [(float(ti), i) for i, ti in enumerate(t)]

    @pytest.mark.parametrize("servers", [1, 2, 3])
    @pytest.mark.parametrize("capacity", [None, 0, 2])
    def test_matches_the_loop_on_ties(self, servers, capacity):
        rng = np.random.default_rng(servers * 10 + (capacity or 5))
        for _ in range(40):
            n = int(rng.integers(1, 40))
            arr = self.grid_trace(rng, n)
            service = rng.integers(1, 4, size=n).astype(float)
            calls = {}

            def lane(run):
                seen = calls.setdefault(run, [])

                def service_fn(i):
                    seen.append(i)
                    return float(service[i])
                return run(arr, service_fn, num_servers=servers,
                           queue_capacity=capacity)

            got = lane(admit_queue)
            want = lane(reference_simulate_queue)
            TestFacadeEquivalence().assert_identical(got, want)
            TestFacadeEquivalence().assert_identical(
                got, lane(simulate_queue))
            # Priced once per admitted job, in admission order.
            assert calls[admit_queue] == calls[simulate_queue] \
                == calls[reference_simulate_queue]

    def test_equal_instant_burst(self):
        """Five jobs at t=0 on two servers of service 2: a burst that
        fills the buffer, and the finishes it ties."""
        arr = [(0.0, i) for i in range(5)] + [(2.0, 5), (4.0, 6)]
        want = {None: ([0, 1, 0, 1, 0, 1, 0], 3),
                0: ([0, 1, -1, -1, -1, 0, 1], 0),
                2: ([0, 1, 0, 1, -1, 0, 1], 2)}
        for capacity, (servers, depth) in want.items():
            got = admit_queue(arr, lambda _: 2.0, num_servers=2,
                              queue_capacity=capacity)
            TestFacadeEquivalence().assert_identical(
                got, simulate_queue(arr, lambda _: 2.0, num_servers=2,
                                    queue_capacity=capacity))
            assert got.server.tolist() == servers
            assert got.max_queue_depth == depth

    @pytest.mark.parametrize("service, served",
                             [(1.0, [0, -1]), (0.0, [0, 0])])
    def test_a_zero_second_job_is_free_at_once_in_the_pass(self, service,
                                                          served):
        """Where the pass and the loop part: two jobs submitted at one
        instant by one handler on a bufferless single server.  On the
        loop the first job's server is busy until its end event fires,
        after the handler, so the second is dropped even when the first
        takes 0 s; the pass frees a zero-second job's server at once and
        serves the second.  Any positive service drops it on both."""
        arr = [(0.0, "a"), (0.0, "b")]
        sched = EventScheduler()
        group = ServerGroup(0, 1, lambda _p: service, sched,
                            queue_capacity=0)
        sched.schedule(0.0, 0, None, lambda _e: [group.submit(t, p)
                                                 for t, p in arr])
        sched.run()
        assert group.finalize().server.tolist() == [0, -1]
        assert admit_queue(arr, lambda _p: service,
                           queue_capacity=0).server.tolist() == served

    @pytest.mark.parametrize("servers", [1, 2, 3])
    @pytest.mark.parametrize("capacity", [None, 0, 2])
    def test_load_as_of_a_release_is_the_loops(self, servers, capacity):
        """A pass station moved to each release instant
        (``ServerGroup.advance``) reads the ``busy_s`` and
        ``queue_depth`` the loop's station holds live when a release at
        that instant fires: after the service ends and dispatches at it,
        before the job it releases.  Grid instants make waiting jobs
        begin exactly on release instants, which the bound ``begin <=
        t`` counts as begun."""
        rng = np.random.default_rng(servers * 10 + (capacity or 5) + 1)
        on_a_release = 0
        for _ in range(40):
            n = int(rng.integers(1, 40))
            arr = self.grid_trace(rng, n)
            service = rng.integers(1, 4, size=n).astype(float)

            def price(i):
                return float(service[i])

            sched = EventScheduler()
            live = ServerGroup(0, servers, price, sched,
                               queue_capacity=capacity)
            want = []

            def release(t, i, _event):
                want.append((live.busy_s, live.queue_depth))
                live.submit(t, i)

            for t, i in arr:
                sched.schedule(t, _FLUSH, None, partial(release, t, i))
            sched.run()
            station = ServerGroup(0, servers, price, EventScheduler(),
                                  queue_capacity=capacity)
            got = []
            for t, i in arr:
                station.advance(t)
                got.append((station.busy_s, station.queue_depth))
                station.admit(t, i)
            assert got == want
            # Jobs that began on the instant of a later release: one
            # released just before it, or one that waited until then.
            times = [t for t, _ in arr]
            on_a_release += sum(begin in times[i + 1:]
                                for i, begin, *_ in station._commits)
        assert on_a_release > 0

    @pytest.mark.parametrize("hook", ["on_hungry", "on_serviced"])
    def test_a_wired_reaction_refuses_admission(self, hook):
        group = ServerGroup(0, 1, lambda _p: 1.0, EventScheduler())
        setattr(group, hook, lambda *_: None)
        with pytest.raises(RuntimeError, match="reaction"):
            group.admit(0.0, "job")


# --------------------------------------------------------------------------- #
def tiny_batch(t, n_edges=1, num_nodes=8, seed=0):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, num_nodes, size=n_edges)
    dst = rng.integers(0, num_nodes, size=n_edges)
    return EdgeBatch(src=src.astype(np.int64), dst=dst.astype(np.int64),
                     t=np.full(n_edges, float(t)),
                     eid=np.arange(n_edges, dtype=np.int64),
                     edge_feat=np.zeros((n_edges, 0)))


def random_arrivals(rng, n):
    t = np.cumsum(rng.exponential(1.0, size=n))
    t[rng.random(n) < 0.2] = np.nan        # mark ties...
    if np.isnan(t[0]):
        t[0] = 0.0
    # ...by repeating the previous instant.
    for i in range(1, n):
        if np.isnan(t[i]):
            t[i] = t[i - 1]
    return from_arrivals([
        StreamArrival(t=float(t[i]), stream=0,
                      batch=tiny_batch(t[i], n_edges=int(rng.integers(1, 9)),
                                       seed=i))
        for i in range(n)])


class TestBatcherActorEquivalence:
    """Serial BatcherActor == offline DynamicBatcher.coalesce, exactly."""

    CONFIGS = [
        dict(),                                     # passthrough
        dict(max_edges=16),                         # size-only (inf deadline)
        dict(max_edges=16, max_delay_s=3.0),        # size + deadline
        dict(max_delay_s=2.0),                      # deadline-only
        dict(max_edges=3),                          # cap below arrival size
        dict(max_edges=10_000, max_delay_s=0.0),    # passthrough via deadline
    ]

    def run_actor(self, batcher, arrivals, cls=EventScheduler):
        sched = cls()
        jobs = []
        actor = BatcherActor(batcher, sched, lambda t, lo, hi: jobs.append(
            CoalescedJob(t, arrivals.span(lo, hi))))
        actor.start(arrivals)
        sched.run()
        return jobs

    @pytest.mark.parametrize("cfg_index", range(len(CONFIGS)))
    def test_matches_offline_coalesce(self, cfg_index):
        cfg = self.CONFIGS[cfg_index]
        rng = np.random.default_rng(1000 + cfg_index)   # reproducible
        for trial in range(8):
            arrivals = random_arrivals(rng, int(rng.integers(1, 60)))
            offline = DynamicBatcher(**cfg).coalesce(arrivals)
            online = self.run_actor(DynamicBatcher(**cfg), arrivals)
            assert len(online) == len(offline)
            for a, b in zip(online, offline):
                assert a.t_release == b.t_release      # bit-exact
                assert a.sources == b.sources
                assert np.array_equal(a.batch.t, b.batch.t)

    @pytest.mark.parametrize("cfg_index", range(len(CONFIGS)))
    def test_releases_name_the_loop_flush(self, cfg_index):
        """``DynamicBatcher.releases`` gives each flush the cause the
        online actor records and the number of arrivals the loop has
        recorded when it fires (what a one-pass trace is ordered by)."""
        cfg = self.CONFIGS[cfg_index]
        rng = np.random.default_rng(1100 + cfg_index)
        for trial in range(8):
            arrivals = random_arrivals(rng, int(rng.integers(1, 60)))
            rel = DynamicBatcher(**cfg).releases(arrivals)
            sched = EventScheduler(trace=True)
            BatcherActor(DynamicBatcher(**cfg), sched,
                         lambda *_: None).start(arrivals)
            sched.run()
            flushes = sched.trace.columns(FlushEvent)
            seen = np.searchsorted(sched.trace.columns(ArrivalEvent)["pos"],
                                   flushes["pos"])
            assert flushes["cause"].tolist() == rel.cause.tolist()
            assert flushes["t"].tolist() == rel.t.tolist()
            assert seen.tolist() == rel.seen.tolist()

    def test_real_window_arrivals_match(self):
        g = wikipedia_like(num_edges=600, num_users=80, num_items=20)
        arrivals = make_stream_arrivals(g, 3600.0, num_streams=2,
                                        speedup=4.0)
        for cfg in self.CONFIGS:
            offline = DynamicBatcher(**cfg).coalesce(arrivals)
            online = self.run_actor(DynamicBatcher(**cfg), arrivals)
            assert [(j.t_release, len(j.sources)) for j in online] \
                == [(j.t_release, len(j.sources)) for j in offline]

    def test_unsorted_arrivals_rejected(self):
        arrivals = from_arrivals([StreamArrival(1.0, 0, tiny_batch(1.0)),
                                  StreamArrival(0.0, 0, tiny_batch(0.0))])
        with pytest.raises(ValueError, match="sorted"):
            self.run_actor(DynamicBatcher(), arrivals)

    @pytest.mark.parametrize("cls", [EventScheduler, HeapEventScheduler])
    def test_a_stale_deadline_does_nothing(self, cls):
        """The buffer opened at t=0 size-flushes at t=0.5, before its
        deadline at t=2; the next one opens at t=1, so when that stale
        deadline fires a buffer is pending.  It must not flush it: the
        releases are the offline spans, the second one at its own
        deadline, t=3."""
        sizes = {0.0: 2, 0.5: 2, 1.0: 1, 2.5: 1, 3.5: 1}
        arrivals = from_arrivals([
            StreamArrival(t, 0, tiny_batch(t, n_edges=n, seed=i))
            for i, (t, n) in enumerate(sizes.items())])
        batcher = DynamicBatcher(max_edges=4, max_delay_s=2.0)
        jobs = self.run_actor(batcher, arrivals, cls)
        lo, hi = batcher.releases(arrivals)[:2]
        assert (lo.tolist(), hi.tolist()) == ([0, 2, 4], [2, 4, 5])
        bounds = np.cumsum([0] + [len(j.sources) for j in jobs])
        assert bounds[:-1].tolist() == lo.tolist()
        assert bounds[1:].tolist() == hi.tolist()
        assert [j.t_release for j in jobs] == [0.5, 3.0, 5.5]


# --------------------------------------------------------------------------- #
class TestSchedulerInvariants:
    @pytest.mark.parametrize("ingest", ["serial", "pipelined"])
    def test_events_fire_in_timestamp_order(self, ingest):
        """The full typed-event trace of an engine run is time-monotone,
        and every event family shows up at its event-time slot."""
        g = wikipedia_like(num_edges=400, num_users=60, num_items=16)
        engine = ServingEngine(
            [LinearCostBackend(per_edge_s=5e-3) for _ in range(3)],
            g.num_nodes, batcher=DynamicBatcher(max_delay_s=500.0),
            memsync="push")
        rep = engine.run(g, window_s=3600.0, num_streams=2, speedup=50.0,
                         ingest=ingest, trace=True)
        assert rep.windows > 0
        trace = engine.last_event_trace
        times = [e.t for e in trace]
        assert times == sorted(times)
        kinds = {type(e) for e in trace}
        assert {FlushEvent, ServiceBeginEvent, ServiceEndEvent,
                MailEvent, SyncEvent} <= kinds
        # Mail and sync are recorded at the release instant of their job.
        flushes = {e.t for e in trace if isinstance(e, FlushEvent)}
        for e in trace:
            if isinstance(e, (MailEvent, SyncEvent)):
                assert e.t in flushes
        # Begins never precede their job's release into the system.
        ends = [e for e in trace if isinstance(e, ServiceEndEvent)]
        begins = [e for e in trace if isinstance(e, ServiceBeginEvent)]
        assert len(ends) == len(begins)

    def test_scheduling_into_the_past_raises(self):
        sched = EventScheduler()
        fired = []

        def bad_handler(_):
            # Time has advanced to 5.0; scheduling at 1.0 is a bug.
            sched.schedule(1.0, 0, None, fired.append)

        sched.schedule(5.0, 0, None, bad_handler)
        with pytest.raises(RuntimeError, match="before now"):
            sched.run()

    @pytest.mark.parametrize("cls", [EventScheduler, HeapEventScheduler])
    def test_a_loop_holds_one_run(self, cls):
        """A second run is refused, and the first still fires in full."""
        sched, fired = cls(), []

        def on_cohort(t0, start, stop):
            fired.extend(range(start, stop))
            return stop - start

        sched.schedule_run([0.0, 1.0, 2.0], on_cohort)
        with pytest.raises(RuntimeError, match="already holds a run"):
            sched.schedule_run([3.0], on_cohort)
        sched.run()
        assert fired == [0, 1, 2]
        assert sched.events_processed == 3 and sched.now == 2.0

    @pytest.mark.parametrize("cls", [EventScheduler, HeapEventScheduler])
    def test_nan_never_enters_the_loop(self, cls):
        """``nan < now`` is False, and a NaN key corrupts heap order."""
        sched, nan = cls(), math.nan
        with pytest.raises(RuntimeError, match="before now"):
            sched.schedule(nan, 0, None, print)
        with pytest.raises(RuntimeError, match="before now"):
            sched.schedule_run([nan], print)
        for ts in ([0.0, nan, 1.0], [0.0, 1.0, nan], [1.0, 0.0, 2.0]):
            with pytest.raises(ValueError, match="sorted"):
                sched.schedule_run(ts, print)
            with pytest.raises(ValueError, match="sorted"):
                simulate_queue([(t, None) for t in ts], lambda _: 1.0)
        sched.run()
        assert sched.events_processed == 0


def check_conservation(report, results):
    """Every offer served or dropped, never both; busy intervals disjoint."""
    for res in results:
        served = res.server >= 0
        # A drop has no interval at all; a served offer a whole one.
        assert np.isnan(res.t_finish[~served]).all()
        begin, finish = res.t_begin[served], res.t_finish[served]
        assert (finish >= begin).all() and (begin >= 0.0).all()
        assert (begin >= res.t_arrive[served]).all()
        for srv in np.unique(res.server[served]):
            mine = res.server == srv
            order = np.argsort(res.t_begin[mine], kind="stable")
            b, f = res.t_begin[mine][order], res.t_finish[mine][order]
            assert (b[1:] >= f[:-1] - 1e-12).all()          # no overlap


class TestConservationAcrossTopologies:
    """Randomized traces through every topology x ingest combination."""

    def graph(self, seed=0):
        return wikipedia_like(num_edges=500, num_users=60, num_items=16)

    def build(self, topology, g):
        if topology == "pool":
            return ServingEngine([LinearCostBackend(per_edge_s=2e-3)],
                                 g.num_nodes, topology="pool",
                                 pool_servers=3,
                                 batcher=DynamicBatcher(max_delay_s=200.0))
        if topology == "hybrid":
            heat = VertexHeat.from_graph(g)
            placement = HotColdHybrid(hot_top_k=8).place(heat, 4)
            return ServingEngine(
                [LinearCostBackend(per_edge_s=2e-3) for _ in range(4)],
                g.num_nodes, placement=placement, topology="hybrid",
                pool_servers=3, batcher=DynamicBatcher(max_delay_s=200.0))
        return ServingEngine(
            [LinearCostBackend(per_edge_s=2e-3) for _ in range(3)],
            g.num_nodes, batcher=DynamicBatcher(max_delay_s=200.0))

    @pytest.mark.parametrize("topology", ["sharded", "pool", "hybrid"])
    @pytest.mark.parametrize("ingest", ["serial", "pipelined"])
    def test_served_exactly_once_and_busy_disjoint(self, topology, ingest):
        g = self.graph()
        engine = self.build(topology, g)
        arrivals = make_stream_arrivals(g, 3600.0, num_streams=2,
                                        speedup=100.0)
        rep = engine.run(g, window_s=3600.0, num_streams=2, speedup=100.0,
                         ingest=ingest)
        assert rep.windows + rep.dropped_windows == len(arrivals)
        assert rep.dropped_windows == 0
        assert rep.ingest == ingest
        assert rep.topology == topology

    @pytest.mark.parametrize("topology", ["sharded", "pool", "hybrid"])
    @pytest.mark.parametrize("ingest", ["serial", "pipelined"])
    def test_group_level_conservation(self, topology, ingest):
        g = self.graph()
        engine = self.build(topology, g)
        arrivals = make_stream_arrivals(g, 3600.0, num_streams=2,
                                        speedup=100.0)
        # Bounded queues so drops are in play, driven at the raw-group
        # level for per-server busy intervals and exactly-once admission.
        rep = engine.run(g, window_s=3600.0, num_streams=2, speedup=100.0,
                         queue_capacity=2, ingest=ingest)
        assert rep.windows + rep.dropped_windows == len(arrivals)
        check_conservation(rep, self._raw_results(engine, arrivals, ingest))

    def _raw_results(self, engine, arrivals, ingest):
        sched = EventScheduler()
        groups = engine._make_groups(sched, 2)
        from repro.serving.events import BatcherActor as BA

        if engine.topology == "pool":
            # The pool group takes the same payload as a shard: the whole
            # job, with no die hops.
            def sink(t, lo, hi):
                groups[0].submit(t, (arrivals.span(lo, hi).merged(), 0))
        else:
            from repro.serving.memsync import VersionedMemoryCache
            cache = VersionedMemoryCache(engine.router.placement,
                                         policy=engine.memsync)

            def sink(t, lo, hi):
                for sb in engine.router.split(arrivals.span(lo, hi).merged(),
                                              cache=cache):
                    groups[sb.shard].submit(t, (sb.batch, 0))
        actor = BA(engine.batcher, sched, sink,
                   fleet=groups if ingest == "pipelined" else ())
        if ingest == "pipelined":
            for grp in groups:
                grp.on_hungry = actor.on_hungry
        actor.start(arrivals)
        sched.run()
        return [grp.finalize() for grp in groups]


# --------------------------------------------------------------------------- #
class TestPipelinedIngest:
    """Double-buffered ingest: batching delay hides behind compute."""

    def test_idle_fleet_flushes_immediately(self):
        """On a light workload with a long deadline, pipelined ingest
        strictly beats serial: serial pays the deadline on every window."""
        g = wikipedia_like(num_edges=400, num_users=60, num_items=16)
        deadline = 300.0

        def engine():
            return ServingEngine(
                [LinearCostBackend(per_edge_s=1e-4) for _ in range(2)],
                g.num_nodes, batcher=DynamicBatcher(max_delay_s=deadline))

        serial = engine().run(g, window_s=3600.0, num_streams=2)
        pipelined = engine().run(g, window_s=3600.0, num_streams=2,
                                 ingest="pipelined")
        assert pipelined.p95_response_s < serial.p95_response_s
        assert pipelined.mean_response_s < serial.mean_response_s
        # Serial pays the full deadline; pipelined pays none of it at this
        # load (the fleet is hungry at every arrival).
        assert serial.p95_response_s > deadline
        assert pipelined.p95_response_s < deadline
        # Same stream served either way.
        assert pipelined.windows == serial.windows
        assert pipelined.ingested_edges == serial.ingested_edges

    def test_busy_fleet_still_batches(self):
        """Under overload the fleet is never hungry, so pipelined ingest
        degenerates to the serial triggers (batching is free there)."""
        g = wikipedia_like(num_edges=400, num_users=60, num_items=16)

        def engine():
            return ServingEngine(
                [LinearCostBackend(per_edge_s=10.0)],   # hopelessly slow
                g.num_nodes, batcher=DynamicBatcher(max_delay_s=1e-3))

        serial = engine().run(g, window_s=3600.0, speedup=1e9)
        pipelined = engine().run(g, window_s=3600.0, speedup=1e9,
                                 ingest="pipelined")
        # First window finds a hungry fleet, after that both batch alike;
        # throughput-side accounting must agree.
        assert pipelined.ingested_edges == serial.ingested_edges
        assert not serial.stable and not pipelined.stable

    def test_serial_report_has_no_ingest_key_pipelined_does(self):
        g = wikipedia_like(num_edges=300, num_users=40, num_items=10)
        engine = ServingEngine([LinearCostBackend()], g.num_nodes)
        serial = engine.run(g, window_s=3600.0)
        pipelined = ServingEngine([LinearCostBackend()], g.num_nodes).run(
            g, window_s=3600.0, ingest="pipelined")
        assert "ingest" not in serial.to_dict()
        assert pipelined.to_dict()["ingest"] == "pipelined"
        assert b'"ingest"' not in serial.to_json().encode()

    def test_invalid_ingest_rejected(self):
        g = wikipedia_like(num_edges=300, num_users=40, num_items=10)
        engine = ServingEngine([LinearCostBackend()], g.num_nodes)
        with pytest.raises(ValueError, match="ingest"):
            engine.run(g, window_s=3600.0, ingest="quantum")


# --------------------------------------------------------------------------- #
class TestHybridTopology:
    def skewed_graph(self, num_cold=200, seed=3):
        """Hot head (4 vertices, most traffic) + long cold tail."""
        rng = np.random.default_rng(seed)
        n_edges = 600
        hot = rng.integers(0, 4, size=(n_edges, 2))
        cold = rng.integers(4, 4 + num_cold, size=(n_edges, 2))
        pick_hot = rng.random(n_edges) < 0.7
        src = np.where(pick_hot, hot[:, 0], cold[:, 0])
        dst = np.where(pick_hot, hot[:, 1], cold[:, 1])
        dst = np.where(dst == src, (dst + 1) % (4 + num_cold), dst)
        t = np.sort(rng.uniform(0, 1e4, size=n_edges))
        return TemporalGraph(src=src.astype(np.int64),
                             dst=dst.astype(np.int64), t=t,
                             num_nodes=4 + num_cold)

    def build(self, g, hot_shards=2, pool_servers=2, hot_top_k=4):
        heat = VertexHeat.from_graph(g)
        placement = HotColdHybrid(hot_top_k=hot_top_k).place(
            heat, hot_shards + 1)
        return ServingEngine(
            [LinearCostBackend(per_edge_s=1e-3, overhead_s=5e-3)
             for _ in range(hot_shards + 1)],
            g.num_nodes, placement=placement, topology="hybrid",
            pool_servers=pool_servers)

    def test_placement_splits_hot_and_cold(self):
        g = self.skewed_graph()
        heat = VertexHeat.from_graph(g)
        placement = HotColdHybrid(hot_top_k=4).place(heat, 3)
        assert placement.policy == "hybrid"
        hot = np.flatnonzero(placement.assignment < 2)
        assert len(hot) == 4
        # The hot head really is the measured top of the heat profile.
        assert set(hot.tolist()) == {0, 1, 2, 3}
        assert (placement.assignment[4:] == 2).all()
        with pytest.raises(ValueError):
            HotColdHybrid(hot_top_k=0)
        with pytest.raises(ValueError):
            HotColdHybrid().place(heat, 1)

    def test_report_shape(self):
        g = self.skewed_graph()
        rep = self.build(g).run(g, window_s=1e3, num_streams=2)
        assert rep.topology == "hybrid"
        assert rep.placement == "hybrid"
        assert rep.num_shards == 3                 # 2 hot + pool
        assert rep.pool_servers == 2
        assert len(rep.shard_stats) == 3
        assert rep.shard_stats[-1].servers == 2    # the pool group
        assert all(s.servers == 1 for s in rep.shard_stats[:-1])
        assert rep.windows > 0
        # Cross-regime mail exists: hot<->cold edges ride the mailbox.
        assert rep.cross_shard_edges > 0
        assert rep.processed_edges == \
            rep.ingested_edges + rep.cross_shard_edges
        # JSON stays canonical and carries the topology.
        d = rep.to_dict()
        assert d["topology"] == "hybrid"
        assert d["pool_servers"] == 2

    def test_hybrid_with_memsync_prices_sync(self):
        g = self.skewed_graph()
        heat = VertexHeat.from_graph(g)
        placement = HotColdHybrid(hot_top_k=4).place(heat, 3)
        engine = ServingEngine(
            [LinearCostBackend(per_edge_s=1e-3) for _ in range(3)],
            g.num_nodes, placement=placement, topology="hybrid",
            pool_servers=2, memsync="push",
            die_of=[0, 1, 0], mail_hop_s=1e-4)
        rep = engine.run(g, window_s=1e3, num_streams=2)
        assert rep.memsync == "push"
        assert rep.sync_edges > 0
        assert rep.stale_reads == 0
        assert rep.cross_die_mail_edges > 0

    def test_hybrid_determinism(self):
        g = self.skewed_graph()
        a = self.build(g).run(g, window_s=1e3, num_streams=2).to_json()
        b = self.build(g).run(g, window_s=1e3, num_streams=2).to_json()
        assert a == b

    def test_from_registry_builds_hybrid(self):
        g = wikipedia_like(num_edges=400, num_users=60, num_items=12)
        from repro.models import ModelConfig, TGNN
        cfg = ModelConfig(memory_dim=8, time_dim=6, embed_dim=8,
                          edge_dim=g.edge_dim, num_neighbors=4,
                          simplified_attention=True, lut_time_encoder=True,
                          lut_bins=8, pruning_budget=2)
        model = TGNN(cfg, rng=np.random.default_rng(0))
        model.calibrate(g)
        engine = ServingEngine.from_registry(
            "cpu-32t", model, g, num_shards=2, topology="hybrid",
            hot_top_k=6, backend_kwargs={"functional": False})
        assert engine.topology == "hybrid"
        assert engine.num_shards == 3
        assert engine.pool_servers == 2
        rep = engine.run(g, window_s=3600.0, num_streams=2)
        assert rep.topology == "hybrid"
        assert rep.windows > 0

    def test_validation(self):
        g = self.skewed_graph()
        with pytest.raises(ValueError, match="placement"):
            ServingEngine([LinearCostBackend(), LinearCostBackend()],
                          g.num_nodes, topology="hybrid")
        with pytest.raises(ValueError, match="pool_servers"):
            ServingEngine([LinearCostBackend()], g.num_nodes,
                          pool_servers=2)


# --------------------------------------------------------------------------- #
class TestHeapVsVectorizedEquivalence:
    """Property: the SoA/cohort scheduler == the heap oracle, exactly.

    The heap implementation is kept (``HeapEventScheduler``) purely as the
    reference these tests drive: any divergence in firing order — including
    among exact time ties, across priorities, and against events scheduled
    dynamically from handlers — is a bug in the vectorized scheduler.
    """

    SPAWN_BASE = 1_000_000   # tags >= this are dynamically spawned events
    RUN = 3                  # after every point's priority (0-2)

    def _random_program(self, rng):
        """Point events and one run, with deliberate ties.

        Integer-grid times force exact collisions between the run and
        the points, and a run element fires after every point at its
        instant; the run (up to 30 elements) spans most of the points'
        range, so the heap head cuts inside it, and it is scheduled at a
        random position among the points.  Each element gets a unique tag
        so the fired sequences compare element-for-element.
        """
        ops, tag = [], 0
        points = int(rng.integers(2, 12))
        at = int(rng.integers(0, points + 1))
        for k in range(points + 1):
            if k != at:
                ops.append(("point", float(rng.integers(0, 16)),
                            int(rng.integers(0, 3)), tag))
                tag += 1
                continue
            n = int(rng.integers(1, 31))
            ts = float(rng.integers(0, 4)) + np.cumsum(
                rng.integers(0, 2, size=n).astype(np.float64))
            ops.append(("run", ts, self.RUN, list(range(tag, tag + n))))
            tag += n
        return ops

    def _drive(self, sched, ops, vectorized):
        """Run one lane; returns the fired (t, priority, tag) sequence.

        Every 5th tag spawns a follow-up event from inside its handler —
        the cohort handler honours the dispatch contract by consuming no
        further elements once one spawns (the new event may land inside
        the remainder of the offered span).
        """
        fired, items = [], []

        def on_point(ev):
            t, prio, tag = ev
            fired.append((t, prio, tag))
            self._maybe_spawn(sched, t, tag, on_point)

        def on_cohort(t0, start, stop):
            consumed = 0
            for i in range(start, stop):
                t, prio, tag = items[i]
                fired.append((t, prio, tag))
                consumed += 1
                if self._spawns(tag):
                    self._maybe_spawn(sched, t, tag, on_point)
                    break
            return consumed

        # Identical schedule-call order in both lanes: the heap lane
        # schedules the run element by element, after every point.
        for op in ops:
            if op[0] == "point":
                _, t, prio, tag = op
                sched.schedule(t, prio, (t, prio, tag), on_point)
            elif vectorized:
                _, ts, prio, tags = op
                items = [(float(t), prio, g) for t, g in zip(ts, tags)]
                sched.schedule_run(ts, on_cohort)
            else:
                _, ts, prio, tags = op
                for t, g in zip(ts, tags):
                    sched.schedule(float(t), prio, (float(t), prio, g),
                                   on_point)
        sched.run()
        return fired

    def _spawns(self, tag):
        return tag < self.SPAWN_BASE and tag % 5 == 0

    def _maybe_spawn(self, sched, t, tag, on_point):
        if self._spawns(tag):
            spawned = (t + 1.5, 1, self.SPAWN_BASE + tag)
            sched.schedule(spawned[0], spawned[1], spawned, on_point)

    def test_firing_order_identical_randomized(self):
        for trial in range(60):
            rng = np.random.default_rng(4200 + trial)
            ops = self._random_program(rng)
            heap = HeapEventScheduler()
            vec = EventScheduler()
            heap_fired = self._drive(heap, ops, vectorized=False)
            vec_fired = self._drive(vec, ops, vectorized=True)
            assert vec_fired == heap_fired
            assert vec.events_processed == heap.events_processed
            assert vec.now == heap.now

    def test_swapped_run_cut_is_caught(self, monkeypatch):
        """Mutation check: the heap lane shares the loop but never cuts a
        cohort, so it still says no to a scheduler that cuts wrongly."""
        def swapped(run, t):
            return int(np.searchsorted(run.ts, t, side="right"))

        monkeypatch.setattr(EventScheduler, "_run_cut", staticmethod(swapped))
        with pytest.raises(AssertionError):
            self.test_firing_order_identical_randomized()

    @pytest.mark.parametrize(
        "cfg_index", range(len(TestBatcherActorEquivalence.CONFIGS)))
    def test_actor_stack_jobs_bit_identical(self, cfg_index):
        """Batcher releases (times, sources, merged arrays) match exactly.

        This also pins the bulk path's sliced struct-of-array merge on the
        cohort lane against the heap lane's one-arrival-at-a-time release.
        """
        cfg = TestBatcherActorEquivalence.CONFIGS[cfg_index]
        rng = np.random.default_rng(7100 + cfg_index)
        for trial in range(6):
            arrivals = random_arrivals(rng, int(rng.integers(1, 80)))
            lanes = []
            for cls in (HeapEventScheduler, EventScheduler):
                sched = cls()
                jobs = []
                actor = BatcherActor(
                    DynamicBatcher(**cfg), sched,
                    lambda t, lo, hi, jobs=jobs: jobs.append(
                        CoalescedJob(t, arrivals.span(lo, hi))))
                actor.start(arrivals)
                sched.run()
                lanes.append(jobs)
            heap_jobs, vec_jobs = lanes
            assert len(vec_jobs) == len(heap_jobs)
            for a, b in zip(vec_jobs, heap_jobs):
                assert a.t_release == b.t_release          # bit-exact
                assert a.sources == b.sources
                for field in ("src", "dst", "t", "eid", "edge_feat"):
                    assert np.array_equal(getattr(a.batch, field),
                                          getattr(b.batch, field))

    @pytest.mark.parametrize("topology", ["sharded", "pool"])
    @pytest.mark.parametrize("ingest", ["serial", "pipelined"])
    def test_engine_reports_byte_identical(self, topology, ingest):
        g = wikipedia_like(num_edges=500, num_users=60, num_items=16)

        def build():
            if topology == "pool":
                return ServingEngine([LinearCostBackend(per_edge_s=2e-3)],
                                     g.num_nodes, topology="pool",
                                     pool_servers=3,
                                     batcher=DynamicBatcher(
                                         max_delay_s=200.0))
            return ServingEngine(
                [LinearCostBackend(per_edge_s=2e-3) for _ in range(3)],
                g.num_nodes, batcher=DynamicBatcher(max_delay_s=200.0))

        reports = {}
        for cls in (HeapEventScheduler, None):
            engine = build()
            reports[cls] = engine.run(g, window_s=3600.0, num_streams=2,
                                      speedup=100.0, ingest=ingest,
                                      scheduler_cls=cls)
        assert reports[None].to_json() == reports[HeapEventScheduler].to_json()


# --------------------------------------------------------------------------- #
class TestColumnarIngest:
    """The bulk path holds no Python object per arrival, and a traced run
    still hands every arrival over as a typed event."""

    EDGES, STREAMS = 2_000, 8

    def ingest_run(self, **run_kwargs):
        """``benchmarks/e2e``'s ``fleet_pool_ingest`` at smoke size: ~2-edge
        windows of a uniform graph into a pool of two priced replicas."""
        n = self.EDGES
        rng = np.random.default_rng(0)
        t = np.sort(rng.uniform(0, 1e4, n))
        g = TemporalGraph(src=rng.integers(0, 200, n),
                          dst=rng.integers(0, 200, n), t=t,
                          edge_feat=np.zeros((n, 0)), num_nodes=200)
        engine = ServingEngine([LinearCostBackend(1e-6)], g.num_nodes,
                               topology="pool", pool_servers=2,
                               batcher=DynamicBatcher(max_delay_s=2.0))
        report = engine.run(g, window_s=1e4 / (n // 2), speedup=50.0,
                            num_streams=self.STREAMS, **run_kwargs)
        return engine, report

    @pytest.fixture
    def constructed(self, monkeypatch):
        """Counts every ``StreamArrival`` built while the test runs."""
        built = []
        init = StreamArrival.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(StreamArrival, "__init__", counting_init)
        return built

    @pytest.mark.parametrize("one_pass", [True, False])
    def test_bulk_path_builds_no_item_per_arrival(self, constructed,
                                                  one_pass, monkeypatch):
        """Served as one pass, the run's 98 releases are one cohort and
        no arrival is an event; on the event loop (the predicate
        patched) its 6904 arrivals come in 98 cohorts, beside 98
        deadlines and 98 service ends."""
        import repro.serving.engine as engine_module
        if not one_pass:
            monkeypatch.setattr(engine_module, "serves_in_one_pass",
                                lambda *_: False)
        engine, report = self.ingest_run()
        sched = engine.last_scheduler
        assert engine.last_num_arrivals == report.windows == 6904
        jobs = report.shard_stats[0].jobs
        assert jobs == 98
        if one_pass:
            assert (sched.cohort_calls, sched.cohort_events) == (1, 98)
            assert sched.events_processed == 98
        else:
            assert (sched.cohort_calls, sched.cohort_events) == (98, 6904)
            assert sched.events_processed == 7100
        # Items may be materialised per flush or per cohort, never per
        # arrival.
        assert len(constructed) <= jobs + sched.cohort_calls

    def test_traced_run_emits_typed_arrival_events(self):
        engine, report = self.ingest_run(trace=True)
        arrivals = [e for e in engine.last_event_trace
                    if isinstance(e, ArrivalEvent)]
        assert len(arrivals) == engine.last_num_arrivals == 6904
        assert all(isinstance(e.arrival, StreamArrival)
                   and e.arrival.t == e.t for e in arrivals)
        flushes = [e for e in engine.last_event_trace
                   if isinstance(e, FlushEvent)]
        assert len(flushes) == 98
        assert sum(e.windows for e in flushes) == 6904
        # Same bytes as the untraced bulk path.
        assert report.to_json() == self.ingest_run()[1].to_json()
