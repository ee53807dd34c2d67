"""Span recorder and the timing proxies the traced run installs.

Nothing under ``src/`` is edited: every proxy enters the program through
a public parameter (``ServingEngine.from_registry(registry=, router=,
rebalancer=)``, ``run(scheduler_cls=)``, ``FPGAAccelerator(model, hw)``,
``SoftwareBackend(model, graph)``) or a public attribute
(``accelerator.updater``), delegates to the real object, and returns its
result unchanged -- the harness asserts traced and untraced reports are
byte-identical.

Span tree of one traced fleet rep (kernel reps have only the two
``pipeline``/``models`` levels under ``bench.timed_region``)::

    bench.timed_region
      engine.run
        engine.arrivals          run() entry -> scheduler constructed
        batcher.start            scheduler constructed -> loop entered
        events.loop              EventScheduler.run
          router.split           (memsync bookkeeping runs inside split)
          pipeline.process_batch
            hw.run_stream
              models.infer_batch
              hw.updater
          rebalance.observe
          router.migrate
        engine.report            loop left -> run() returned
      engine.to_json
      tracecheck.check

A span is ``[name, start, end, parent, rep]``; ``parent`` indexes the
span list (-1 for roots).  Counters are taken at the same boundaries.
"""

from __future__ import annotations

from time import perf_counter

from repro.hw import FPGAAccelerator
from repro.serving import EventScheduler, OnlineRebalancer, ShardRouter

__all__ = ["Tracer", "MarkedBackend", "TracedBackend", "TracedModel", "TracedAccelerator",
           "TracedUpdater", "TracedRouter", "TracedRebalancer",
           "traced_scheduler", "layer_times"]


class Tracer:
    """In-memory spans and counters; written out when the workload ends."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self.rep = 0
        self._open = [-1]

    def begin(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._open[-1], self.rep])
        self._open.append(index)
        self.spans[index][1] = perf_counter()
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        if self._open.pop() != index:
            raise RuntimeError("span closed out of order")

    def next_phase(self, name: str) -> int:
        """Close the innermost open span and open its next sibling."""
        self.end(self._open[-1])
        return self.begin(name)

    def end_innermost(self) -> None:
        self.end(self._open[-1])

    def count(self, name: str, n=1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def take_counts(self) -> dict[str, float]:
        counts, self.counts = self.counts, {}
        return counts


class _Delegate:
    """Attribute passthrough to the wrapped object."""

    def __init__(self, inner, tracer: Tracer | None = None):
        self.inner = inner
        self.tracer = tracer

    def __getattr__(self, attr):
        return getattr(self.inner, attr)


class _BackendDelegate(_Delegate):
    def __init__(self, inner, tracer: Tracer | None = None):
        super().__init__(inner, tracer)
        # The report labels shards by backend name; keep the real one.
        self.name = getattr(inner, "name", type(inner).__name__)


class MarkedBackend(_BackendDelegate):
    """The one thing an *untraced* fleet rep carries: a clock read per
    ``process_batch``, appended to a list the whole fleet shares, so the
    rep can be cut into segments at fixed call numbers afterwards."""

    def __init__(self, inner, marks: list[float]):
        super().__init__(inner)
        self.marks = marks

    def process_batch(self, batch) -> float:
        self.marks.append(perf_counter())
        return self.inner.process_batch(batch)


class TracedBackend(_BackendDelegate):
    """Engine-protocol backend: one span per ``process_batch``."""

    def process_batch(self, batch) -> float:
        tr = self.tracer
        span = tr.begin("pipeline.process_batch")
        seconds = self.inner.process_batch(batch)
        tr.end(span)
        tr.count("pipeline.sim_service_s", seconds)
        return seconds


class TracedModel(_Delegate):
    """``TGNN`` stand-in timing ``infer_batch`` and its KERNEL_STAGES."""

    def infer_batch(self, batch, rt, graph, timings=None):
        tr = self.tracer
        stages: dict[str, float] = {}
        span = tr.begin("models.infer_batch")
        result = self.inner.infer_batch(batch, rt, graph, timings=stages)
        tr.end(span)
        tr.count("models.infer_calls")
        tr.count("models.infer_edges", len(batch))
        for stage, seconds in stages.items():
            tr.count(f"models.stage_{stage}_s", seconds)
            if timings is not None:
                timings[stage] = timings.get(stage, 0.0) + seconds
        return result


class TracedAccelerator(FPGAAccelerator):
    tracer: Tracer

    def run_stream(self, *args, **kwargs):
        tr = self.tracer
        span = tr.begin("hw.run_stream")
        report = super().run_stream(*args, **kwargs)
        tr.end(span)
        for latency in report.batch_latencies_s:
            tr.count("hw.sim_service_s", latency)
        return report


class TracedUpdater(_Delegate):
    def process(self, vertex_ids):
        span = self.tracer.begin("hw.updater")
        report = self.inner.process(vertex_ids)
        self.tracer.end(span)
        return report


class TracedRouter(ShardRouter):
    tracer: Tracer

    def split(self, batch, mailbox=None, cache=None):
        tr = self.tracer
        span = tr.begin("router.split")
        out = super().split(batch, mailbox=mailbox, cache=cache)
        tr.end(span)
        tr.count("router.sub_batches", len(out))
        lag = 0
        for sb in out:
            tr.count("router.mail_edges", sb.mail_edges)
            tr.count("router.sync_rows",
                     len(sb.sync_pull) + len(sb.sync_push))
            tr.count("memsync.stale_reads", sb.stale_reads)
            lag = max(lag, sb.version_lag)
        tr.counts["memsync.max_version_lag"] = max(
            tr.counts.get("memsync.max_version_lag", 0), lag)
        return out

    def migrate(self, vertices, to_shard):
        span = self.tracer.begin("router.migrate")
        old = super().migrate(vertices, to_shard)
        self.tracer.end(span)
        return old


class TracedRebalancer(OnlineRebalancer):
    tracer: Tracer

    def observe(self, t, batch):
        span = self.tracer.begin("rebalance.observe")
        super().observe(t, batch)
        self.tracer.end(span)


def traced_scheduler(tracer: Tracer) -> type:
    """``scheduler_cls`` that marks the engine's phase boundaries.

    The engine constructs the scheduler right after building the arrival
    process and calls ``run()`` right after ``BatcherActor.start``, so
    the two hooks split ``engine.run`` into its four phases in situ.
    The caller opens ``engine.arrivals`` before ``engine.run(...)`` and
    closes ``engine.report`` after it returns.
    """

    class TracedScheduler(EventScheduler):
        def __init__(self, trace: bool = False):
            tracer.next_phase("batcher.start")
            super().__init__(trace=trace)

        def run(self) -> None:
            tracer.next_phase("events.loop")
            super().run()
            tracer.next_phase("engine.report")

    return TracedScheduler


def layer_times(spans: list[list], first: int = 0,
                stop: int | None = None) -> dict[str, dict[str, float]]:
    """Per span name over ``spans[first:stop]`` (one rep's contiguous
    slice): ``calls``, ``busy`` seconds and ``self`` seconds (busy minus
    the part its child spans cover)."""
    window = spans[first:stop]
    covered = [0.0] * len(window)
    for _name, start, end, parent, _rep in window:
        if parent >= first:
            covered[parent - first] += end - start
    out: dict[str, dict[str, float]] = {}
    for (name, start, end, _parent, _rep), child_s in zip(window, covered):
        row = out.setdefault(name, {"calls": 0, "busy": 0.0, "self": 0.0})
        row["calls"] += 1
        row["busy"] += end - start
        row["self"] += end - start - child_s
    return out
