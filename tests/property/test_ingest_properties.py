"""Property-based equivalence of the columnar ingest tier.

``time_window_spans`` cuts a stream into windows with one ``cumsum`` +
``searchsorted`` per dense run, and ``make_stream_arrivals`` builds the
whole multi-tenant arrival process as the columns of one
:class:`ArrivalTrace`.  The code they replaced — a scalar
``window_start += window`` loop and a list of per-arrival
``StreamArrival`` objects sorted with a Python key — is kept here, and
only here, as the oracle.  Uniform, bursty-with-gaps, integer-tied and
on-boundary timestamps; sub-ranges; 1–9 streams with same-instant
cross-stream ties: spans and arrivals must match bit for bit, the jobs
the online batcher releases from the trace must equal the offline
``coalesce`` of the oracle's list merged by ``merge_batches``, and the
two schedulers must write the same report bytes.

``DynamicBatcher.ends`` finds each arrival's job end with one
``searchsorted`` of the instants and one of the edge offsets, and
``releases`` chains the ends; the admission loop ``coalesce`` ran before
is the third oracle here, held to it on tied, bursty, uniform and
deadline-grid traces.
"""

import math
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.serving.batcher as batcher_module
import repro.serving.engine as engine_module
from repro.analysis.tracecheck import check_run
from repro.graph import TemporalGraph, time_window_spans
from repro.pipeline import LinearCostBackend
from repro.serving import (ArrivalTrace, BatcherActor, CoalescedJob,
                           DynamicBatcher, EventScheduler, FlushEvent,
                           HeapEventScheduler, ServingEngine, StreamArrival,
                           make_stream_arrivals)
from tests.property.arrival_oracle import from_arrivals, merge_batches
from tests.property.batcher_oracle import OracleBatcherActor
from tests.property.lane_agreement import check_lane_agreement

NUM_NODES = 12
EDGE_DIM = 2
FIELDS = ("src", "dst", "t", "eid", "edge_feat")


# --------------------------------------------------------------------------- #
# The oracles: the loops the columnar code replaced, verbatim but for
# yielding edge bounds instead of slicing.
def oracle_spans(graph, window, start=0, end=None):
    end = graph.num_edges if end is None else min(end, graph.num_edges)
    if start >= end:
        return
    t = graph.t
    lo = start
    window_start = float(t[start])
    while lo < end:
        # Skip over empty windows so the next edge lands inside the window.
        if t[lo] >= window_start + window:
            n_skip = np.floor((t[lo] - window_start) / window)
            window_start += float(n_skip) * window
            if t[lo] >= window_start + window:  # float round-off guard
                window_start = float(t[lo])
        hi = lo + int(np.searchsorted(t[lo:end], window_start + window,
                                      side="left"))
        yield window_start, lo, hi
        lo = hi
        window_start += window


def oracle_arrivals(graph, window_s, num_streams=1, start=0, end=None,
                    speedup=1.0):
    base = []
    for _, lo, hi in oracle_spans(graph, window_s, start=start, end=end):
        batch = graph.slice(lo, hi)
        base.append((float(batch.t[-1]), batch))
    t0 = base[0][0]
    arrivals = []
    for i in range(num_streams):
        phase = (i / num_streams) * window_s / speedup
        for t_close, batch in base:
            arrivals.append(StreamArrival(t=(t_close - t0) / speedup + phase,
                                          stream=i, batch=batch))
    arrivals.sort(key=lambda a: (a.t, a.stream))
    return arrivals


# A job the admission loop released: its merged batch is built at release.
LoopJob = namedtuple("LoopJob", "t_release batch sources")


def oracle_coalesce(batcher, arrivals):
    """``DynamicBatcher.coalesce`` as an admission loop, verbatim but for
    taking the batcher as an argument and recording a :data:`LoopJob`."""
    jobs: list[LoopJob] = []
    pending: list[StreamArrival] = []
    pending_edges = 0

    def flush(t_release: float) -> None:
        nonlocal pending_edges
        merged = merge_batches([a.batch for a in pending])
        jobs.append(LoopJob(t_release, merged, tuple(pending)))
        pending.clear()
        pending_edges = 0

    last_t = -math.inf
    for a in arrivals:
        if a.t < last_t:
            raise ValueError("arrivals must be sorted by time")
        last_t = a.t
        if pending and a.t >= pending[0].t + batcher.max_delay_s:
            flush(pending[0].t + batcher.max_delay_s)
        # Overflow guard: admitting this arrival would push the buffer
        # past the size cap, so release the buffered job first.  Only a
        # single arrival larger than ``max_edges`` can therefore ever
        # produce an oversized job (it has nowhere else to go).
        if batcher.max_edges is not None and pending \
                and pending_edges + len(a) > batcher.max_edges:
            flush(a.t)
        pending.append(a)
        pending_edges += len(a)
        if batcher.max_edges is not None \
                and pending_edges >= batcher.max_edges:
            flush(a.t)
    if pending:
        deadline = pending[0].t + batcher.max_delay_s
        flush(deadline if math.isfinite(deadline) else pending[-1].t)
    return jobs


# --------------------------------------------------------------------------- #
@st.composite
def streams(draw):
    """``(graph, window, start, end)``: a sorted edge stream of one of four
    timestamp shapes, a window it can resolve, and a sub-range of it."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, 120))
    window = draw(st.sampled_from([0.1, 0.25, 1.0, 3.0, 7.5, 10.0 / 3.0]))
    origin = draw(st.sampled_from([0.0, 1.0, 1e6, -50.0]))
    kind = draw(st.sampled_from(["uniform", "bursty", "integer", "boundary"]))
    if kind == "uniform":
        t = rng.uniform(0, n * window * draw(st.sampled_from([0.3, 1, 4])), n)
    elif kind == "bursty":
        # Dense bursts separated by gaps of many empty windows.
        centers = np.cumsum(rng.exponential(40 * window, size=4))
        t = rng.choice(centers, n) + rng.uniform(0, 3 * window, n)
    elif kind == "integer":
        t = rng.integers(0, max(2, n // 3), n).astype(float)
    else:
        # Exact multiples of the window: every edge sits on a boundary.
        t = rng.integers(0, 2 * n, n) * window
    graph = TemporalGraph(src=rng.integers(0, NUM_NODES, n),
                          dst=rng.integers(0, NUM_NODES, n),
                          t=np.sort(t) + origin,
                          edge_feat=rng.normal(size=(n, EDGE_DIM)),
                          num_nodes=NUM_NODES)
    start = draw(st.integers(0, n - 1))
    end = draw(st.one_of(st.none(), st.integers(start + 1, n + 3)))
    return graph, window, start, end


replays = st.tuples(streams(), st.integers(1, 9),
                    st.sampled_from([1.0, 2.0, 3.0, 50.0, 1e3]))

batchers = st.sampled_from([
    dict(),                                     # passthrough
    dict(max_edges=6),                          # size-only (inf deadline)
    dict(max_edges=6, max_delay_s=2.0),         # size + deadline
    dict(max_delay_s=0.5),                      # deadline-only
    dict(max_edges=1),                          # cap below arrival size
    dict(max_edges=10_000, max_delay_s=0.0),    # passthrough via deadline
])


def assert_batches_identical(got, want):
    for name in FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


# --------------------------------------------------------------------------- #
class TestColumnarIngestMatchesTheLoops:
    @settings(deadline=None, max_examples=200)
    @given(streams())
    def test_spans_bit_identical(self, stream):
        graph, window, start, end = stream
        want = list(oracle_spans(graph, window, start, end))
        starts, lo, hi = time_window_spans(graph, window, start, end)
        assert list(zip(starts.tolist(), lo.tolist(), hi.tolist())) == want
        assert starts.dtype == np.float64
        assert lo.dtype == hi.dtype == np.int64

    @settings(deadline=None, max_examples=150)
    @given(replays)
    def test_arrivals_bit_identical(self, replay):
        (graph, window, start, end), num_streams, speedup = replay
        want = oracle_arrivals(graph, window, num_streams, start, end,
                               speedup)
        trace = make_stream_arrivals(graph, window, num_streams=num_streams,
                                     start=start, end=end, speedup=speedup)
        assert isinstance(trace, ArrivalTrace)
        assert trace.t.tolist() == [a.t for a in want]
        assert trace.stream.tolist() == [a.stream for a in want]
        assert trace.num_edges == sum(len(a) for a in want)
        assert trace == from_arrivals(want)
        assert len(trace) == len(want)
        for got, ref in zip(trace, want):
            assert (got.t, got.stream) == (ref.t, ref.stream)
            assert type(got.t) is float and type(got.stream) is int
            assert_batches_identical(got.batch, ref.batch)
        # A slice is a view.
        cut = len(want) // 2
        assert trace[cut:] == from_arrivals(want[cut:])
        assert trace[:cut] == from_arrivals(want[:cut])
        assert trace[cut:].eidx is trace.eidx

    @settings(deadline=None, max_examples=150)
    @given(replays, batchers,
           st.sampled_from([EventScheduler, HeapEventScheduler]))
    def test_released_jobs_match_offline_merge(self, replay, cfg, sched_cls):
        """Online jobs cut from the trace == ``coalesce`` over the oracle's
        list, each merged by ``merge_batches``."""
        (graph, window, start, end), num_streams, speedup = replay
        want = DynamicBatcher(**cfg).coalesce(from_arrivals(
            oracle_arrivals(graph, window, num_streams, start, end, speedup)))
        sched, jobs = sched_cls(), []
        trace = make_stream_arrivals(graph, window, num_streams=num_streams,
                                     start=start, end=end, speedup=speedup)
        BatcherActor(DynamicBatcher(**cfg), sched,
                     lambda t, lo, hi: jobs.append(
                         CoalescedJob(t, trace.span(lo, hi)))).start(trace)
        sched.run()
        assert len(jobs) == len(want)
        for got, ref in zip(jobs, want):
            assert got.t_release == ref.t_release
            assert got.sources == ref.sources
            assert_batches_identical(
                got.batch, merge_batches([a.batch for a in ref.sources]))

    @settings(deadline=None, max_examples=90)
    @given(replays,
           st.sampled_from(["pool", "sharded"]),
           st.sampled_from([dict(max_edges=6),
                            dict(max_edges=6, max_delay_s=2.0),
                            dict(max_delay_s=0.5),
                            # Cohorts of one: a deadline shorter than any
                            # inter-arrival gap, one arrival reaching the
                            # size cap, a passthrough deadline.
                            dict(max_delay_s=1e-9),
                            dict(max_edges=1),
                            dict(max_edges=1, max_delay_s=1e-9),
                            dict(max_delay_s=0.0)]),
           st.sampled_from(["serial", "pipelined"]),
           st.sampled_from([None, 0, 2]))
    def test_schedulers_write_the_same_report(self, replay, topology, cfg,
                                              ingest, queue_capacity):
        """Cohort delivery == per-element delivery, the one pass == the
        event loop, and tracing either changes nothing but the record:
        same report bytes, same scheduler counters, one typed-event
        sequence.  The cohort-of-one draws take the shortcuts that skip
        the loop's cut search, ``_run_cut``.  A serial run is served as one pass, whose
        releases are the loop's only events: one cohort of them, or one
        heap entry each; the event loop it replaces (the predicate
        patched) must write its report bytes and its trace, event for
        event."""
        (graph, window, start, end), num_streams, speedup = replay

        def lane(scheduler_cls, trace, one_pass=True):
            if topology == "pool":
                engine = ServingEngine([LinearCostBackend(per_edge_s=0.05)],
                                       NUM_NODES, topology="pool",
                                       pool_servers=2,
                                       batcher=DynamicBatcher(**cfg))
            else:
                engine = ServingEngine(
                    [LinearCostBackend(per_edge_s=0.05) for _ in range(3)],
                    NUM_NODES, memsync="push",
                    batcher=DynamicBatcher(**cfg))
            with pytest.MonkeyPatch.context() as patch:
                if not one_pass:
                    patch.setattr(engine_module, "serves_in_one_pass",
                                  lambda *_: False)
                report = engine.run(
                    graph, window, start=start, end=end, speedup=speedup,
                    num_streams=num_streams, ingest=ingest,
                    queue_capacity=queue_capacity,
                    scheduler_cls=scheduler_cls, trace=trace)
            sched = engine.last_scheduler
            return (report.to_json(), sched.events_processed,
                    sched.cohort_calls, sched.cohort_events), engine, report

        cohort, engine, report = lane(None, True)
        report_json, events, cohort_calls, cohort_events = cohort
        heap, heap_engine, _ = lane(HeapEventScheduler, True)
        trace = engine.last_event_trace
        if ingest == "serial":
            jobs = len(trace.columns(FlushEvent)["t"])
            assert (events, cohort_calls, cohort_events) == (jobs, 1, jobs)
        else:
            assert cohort_calls > 0
        assert heap == (report_json, events, 0, 0)
        for scheduler_cls, traced in ((None, cohort),
                                      (HeapEventScheduler, heap)):
            untraced, untraced_engine, _ = lane(scheduler_cls, False)
            assert untraced == traced
            assert untraced_engine.last_event_trace is None
        assert len(heap_engine.last_event_trace) == len(trace)
        assert check_lane_agreement(heap_engine.last_event_trace,
                                    trace) == []
        loop, loop_engine, _ = lane(None, True, one_pass=False)
        assert loop[0] == report_json
        assert check_lane_agreement(loop_engine.last_event_trace,
                                    trace) == []
        assert [repr(e) for e in loop_engine.last_event_trace] \
            == [repr(e) for e in trace]
        check = check_run(engine=engine, report=report,
                          initial_assignment=engine.router.assignment)
        assert check.ok, check.findings

    @settings(deadline=None, max_examples=50)
    @given(streams(), st.sampled_from([1e-8, 1e-10, 1e-15]))
    def test_unresolvable_window_raises_instead_of_hanging(self, stream,
                                                           tiny):
        """Pushed out to t ~ 1e9, where a float64 step is ~1.2e-7, none of
        these windows can advance the clock."""
        graph, _, start, end = stream
        far = TemporalGraph(graph.src, graph.dst, graph.t + 1e9,
                            num_nodes=NUM_NODES)
        with pytest.raises(ValueError, match="timestamp resolution"):
            time_window_spans(far, tiny, start, end)
        with pytest.raises(ValueError, match="timestamp resolution"):
            make_stream_arrivals(far, tiny, start=start, end=end)


# --------------------------------------------------------------------------- #
def hand_built(t, sizes, seed=0):
    """Arrivals at instants ``t`` (sorted) with ``sizes`` edges each."""
    rng = np.random.default_rng(seed)
    cum = np.concatenate(([0], np.cumsum(sizes))).astype(int)
    graph = TemporalGraph(src=rng.integers(0, NUM_NODES, cum[-1]),
                          dst=rng.integers(0, NUM_NODES, cum[-1]),
                          t=np.repeat(t, sizes),
                          edge_feat=rng.normal(size=(cum[-1], EDGE_DIM)),
                          num_nodes=NUM_NODES)
    return [StreamArrival(float(t[i]), i % 3, graph.slice(cum[i], cum[i + 1]))
            for i in range(len(t))]


@st.composite
def arrival_lists(draw):
    """1-40 arrivals of 1-9 edges, at uniform, tied, bursty or grid
    instants — on the grid every instant is a multiple of 0.5, so the
    deadlines ``t + max_delay_s`` of ``DELAYS`` land on arrivals."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["uniform", "tied", "bursty", "grid"]))
    if kind == "uniform":
        t = rng.uniform(0, 20, n)
    elif kind == "tied":
        t = rng.integers(0, n // 4 + 1, n).astype(float)
    elif kind == "bursty":
        t = rng.choice(np.cumsum(rng.exponential(10, 3)), n) \
            + rng.uniform(0, 0.3, n)
    else:
        t = rng.integers(0, 2 * n + 1, n) * 0.5
    return hand_built(np.sort(t), rng.integers(1, 10, n))


DELAYS = [None, 0.0, 0.5, 1.0, 2.5, math.inf]


def loop_bounds(batcher, arrivals, start):
    """Arrival bounds of the jobs the admission loop releases over
    ``arrivals[start:]``, and those jobs."""
    jobs = oracle_coalesce(batcher, arrivals[start:])
    return start + np.cumsum([0] + [len(j.sources) for j in jobs]), jobs


def check_spans(arrivals, cfg, j):
    """The spans of ``releases`` and ``coalesce`` equal the admission
    loop over the arrivals, and from the released boundary ``lo[j]``
    (taken modulo the jobs, the end of the trace included) the suffix of
    the spans is the loop run from there: what lets a re-plan slice the
    run's spans."""
    batcher = DynamicBatcher(**cfg)
    bounds, want = loop_bounds(batcher, arrivals, 0)
    lo, hi = batcher.releases(from_arrivals(arrivals))[:2]
    assert lo.tolist() == bounds[:-1].tolist()
    assert hi.tolist() == bounds[1:].tolist()
    got = batcher.coalesce(from_arrivals(arrivals))
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.t_release == w.t_release       # bit-exact
        assert g.sources == from_arrivals(w.sources)
        assert_batches_identical(g.batch, w.batch)
    j %= len(lo) + 1
    tail, _ = loop_bounds(batcher, arrivals, int(bounds[j]))
    assert lo[j:].tolist() == tail[:-1].tolist()
    assert hi[j:].tolist() == tail[1:].tolist()


class TestSpansMatchTheAdmissionLoop:
    @settings(deadline=None, max_examples=300)
    @given(arrival_lists(), st.sampled_from([None, 1, 3, 5, 1000]),
           st.sampled_from(DELAYS), st.data())
    def test_spans_and_coalesce_equal_the_loop(self, arrivals, max_edges,
                                               max_delay_s, data):
        j = data.draw(st.integers(0, len(arrivals)))
        check_spans(arrivals, dict(max_edges=max_edges,
                                   max_delay_s=max_delay_s), j)

    def test_a_deadline_bisect_right_fails(self, monkeypatch):
        """Mutation check: an arrival exactly at ``t + max_delay_s`` waits
        behind the deadline flush; searching right would admit it."""
        arrivals = hand_built(np.array([0.0, 1.0, 2.0]), [1, 1, 1])
        check_spans(arrivals, dict(max_delay_s=1.0), 0)
        search = np.searchsorted
        monkeypatch.setattr(batcher_module.np, "searchsorted",
                            lambda a, v, side="left": search(a, v, "right"))
        with pytest.raises(AssertionError):
            check_spans(arrivals, dict(max_delay_s=1.0), 0)

    @settings(deadline=None, max_examples=100)
    @given(replays, batchers)
    def test_job_rows_are_the_merged_batches(self, replay, cfg):
        """The rows a plan routes, job by job, are each released job's
        merged batch — what routing the job alone would split."""
        (graph, window, start, end), num_streams, speedup = replay
        trace = make_stream_arrivals(graph, window, num_streams=num_streams,
                                     start=start, end=end, speedup=speedup)
        lo, hi = DynamicBatcher(**cfg).releases(trace)[:2]
        rows, offsets = trace.job_rows(lo, hi)
        for j, (a, b) in enumerate(zip(lo.tolist(), hi.tolist())):
            assert_batches_identical(
                trace._take(rows[offsets[j]:offsets[j + 1]]),
                trace.span(a, b).merged())

    def test_unsorted_arrivals_rejected(self):
        arrivals = hand_built(np.array([0.0, 1.0]), [1, 1])[::-1]
        with pytest.raises(ValueError, match="sorted"):
            DynamicBatcher().ends(from_arrivals(arrivals))


# --------------------------------------------------------------------------- #
def actor_lanes(replay, topology, cfg, ingest, queue_capacity, per_edge_s):
    """Serve ``replay`` on the event loop with the actor that reads
    :meth:`DynamicBatcher.ends` and with :class:`OracleBatcherActor`, on
    both schedulers, traced; require the same report bytes, the same
    typed events and the same scheduler counters.  Serial ingest is held
    on the loop (the one-pass predicate patched).  Returns the causes of
    the run's flushes."""
    (graph, window, start, end), num_streams, speedup = replay

    def lane(actor_cls, scheduler_cls):
        backends = [LinearCostBackend(per_edge_s=per_edge_s)
                    for _ in range(1 if topology == "pool" else 3)]
        engine = ServingEngine(backends, NUM_NODES, topology=topology,
                               pool_servers=2 if topology == "pool" else None,
                               memsync="push",
                               batcher=DynamicBatcher(**cfg))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine_module, "serves_in_one_pass",
                          lambda *_: False)
            patch.setattr(engine_module, "BatcherActor", actor_cls)
            report = engine.run(
                graph, window, start=start, end=end, speedup=speedup,
                num_streams=num_streams, ingest=ingest,
                queue_capacity=queue_capacity,
                scheduler_cls=scheduler_cls, trace=True)
        sched, trace = engine.last_scheduler, engine.last_event_trace
        return (report.to_json(), [repr(e) for e in trace],
                sched.events_processed, sched.cohort_calls,
                sched.cohort_events), trace

    for scheduler_cls in (EventScheduler, HeapEventScheduler):
        got, trace = lane(BatcherActor, scheduler_cls)
        want, _ = lane(OracleBatcherActor, scheduler_cls)
        assert got == want
    return set(trace.columns(FlushEvent)["cause"].tolist())


def grid_replay():
    """Three streams of 40 one-second windows, one edge each."""
    rng = np.random.default_rng(45)
    graph = TemporalGraph(src=rng.integers(0, NUM_NODES, 40),
                          dst=rng.integers(0, NUM_NODES, 40),
                          t=np.arange(40.0),
                          edge_feat=rng.normal(size=(40, EDGE_DIM)),
                          num_nodes=NUM_NODES)
    return (graph, 1.0, 0, None), 3, 1.0


class TestTheActorReadsTheEndsTable:
    def test_it_releases_what_the_trigger_searches_released(self):
        """The actor that cuts its cohorts at ``end[lo] - full[lo]`` and
        flushes on ``end`` / ``full`` writes the report, the trace and the
        counters of the one that searched the size and deadline triggers
        per arrival, on both schedulers, serial and pipelined, over caps
        below and above the arrival size, passthrough, finite and
        unbounded deadlines, and every queue capacity.  Over the draws,
        pipelined runs flush for every cause; the examples on a fleet far
        slower than the arrivals make sure of it: size at a cap of one
        edge, deadline while the fleet is busy, drain at the first
        arrival, and the end of the stream under an unbounded deadline."""
        causes = set()
        slow = (grid_replay(), "pool", "pipelined", None, 5.0)

        @settings(deadline=None, max_examples=40)
        @given(replays, st.sampled_from(["pool", "sharded"]),
               st.sampled_from(["serial", "pipelined"]),
               st.sampled_from([None, 0, 2]), st.sampled_from([0.05, 5.0]),
               st.sampled_from([None, 1, 3, 12]),
               st.sampled_from([None, 0.0, 0.5, 2.0]))
        @example(*slow, 1, None)
        @example(*slow, None, 0.5)
        @example(*slow, 12, None)
        def check(replay, topology, ingest, queue_capacity, per_edge_s,
                  max_edges, max_delay_s):
            found = actor_lanes(replay, topology,
                                dict(max_edges=max_edges,
                                     max_delay_s=max_delay_s),
                                ingest, queue_capacity, per_edge_s)
            if ingest == "pipelined":
                causes.update(found)

        check()
        assert causes == {"size", "deadline", "drain", "eos"}
