"""Metamorphic relation R1: the simulator does not know what a second is.

Double every service time (a backend that returns twice
``process_batch``), ``mail_hop_s``, ``max_delay_s``, the rebalancer's
``window_s``, the autoscaler's window and SLO and the failure injector's
``fail_at`` / ``recover_at``, and halve ``speedup``: every instant of the
run doubles.
Scaling by two commutes with IEEE rounding, so the relation is exact,
not approximate: every report field in seconds doubles bit for bit,
rates halve, counts and ratios stay equal, and the traced events come in
the same order with every ``t`` doubled.  No second implementation is needed; an
absolute-seconds constant hidden anywhere in a comparison breaks it.
Held here on the serial configurations the engine serves as one pass,
on the event loop that pass replaces (the predicate patched) and on
pipelined ingest, and with an online rebalancer, on the pass and on the
loop: in overload mode on the sharded fleet, in drift mode on a hybrid
one.  The autoscaler and the failure injector keep the event loop: the
autoscaler resizes a pool or a padded sharded fleet, the injector fails
and recovers one shard of three (slow on the draws that name a pool,
dead otherwise).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.serving.engine as engine_module
from repro.graph import TemporalGraph
from repro.pipeline import LinearCostBackend
from repro.serving import (AutoScaler, CapacityConfig, DynamicBatcher,
                           FailurePlan, HotColdHybrid, OnlineRebalancer,
                           ServingEngine, VertexHeat, padded_hash_placement)
from repro.serving.events import KINDS, ServerGroup
from tests.property.test_ingest_properties import NUM_NODES, replays

LANES = ("one pass", "event loop", "pipelined", "rebalancer, one pass",
         "rebalancer, event loop", "autoscaler", "failure injector")
HALVED = ("speedup", "throughput_eps")


class Doubled:
    """A backend whose every service takes twice as long."""

    def __init__(self, backend):
        self.backend = backend
        self.name = backend.name

    def process_batch(self, batch) -> float:
        return 2.0 * self.backend.process_batch(batch)


def serve(replay, topology, cfg, capacity, lane, scale):
    """One traced run; ``scale`` 2 doubles the seconds it is given."""
    (graph, window, start, end), num_streams, speedup = replay
    cfg = {k: v * scale if k == "max_delay_s" else v for k, v in cfg.items()}
    rebalancing = lane.startswith("rebalancer")
    if topology == "pool" and lane != "failure injector" and not rebalancing:
        n, kwargs = 1, dict(topology="pool", pool_servers=2)
    else:
        n, kwargs = 3, dict(memsync="push", die_of=[0, 1, 1],
                            mail_hop_s=1e-3 * scale)
    if lane == "autoscaler":
        kwargs["autoscaler"] = AutoScaler(
            CapacityConfig(micro_batch=cfg.get("max_edges", 1), replicas=2,
                           max_replicas=4),
            slo_p95_s=0.05 * scale, scale_window_s=0.5 * scale)
        if n == 3:      # two active shards of four slots
            n = 4
            kwargs.update(die_of=[0, 1, 1, 0],
                          placement=padded_hash_placement(NUM_NODES, 2, 4))
    if lane == "failure injector":
        t = graph.t[start:end]
        third = float(t[-1] - t[0]) / speedup / 3
        kwargs["failures"] = FailurePlan(
            fail_at=third * scale, shard=1, recover_at=(2 * third + 1) * scale,
            mode="slow" if topology == "pool" else "dead")
    if rebalancing:
        kwargs["rebalancer"] = OnlineRebalancer(window_s=0.5 * scale,
                                                util_threshold=0.05)
        if topology == "pool":
            # Drift mode: two dedicated shards beside a 2-server pool.
            heat = VertexHeat.from_graph(graph, start=start, end=end)
            kwargs.update(topology="hybrid", pool_servers=2,
                          placement=HotColdHybrid(hot_top_k=2).place(heat,
                                                                     n))
    backends = [LinearCostBackend(per_edge_s=0.05, overhead_s=0.01)
                for _ in range(n)]
    if scale == 2:
        backends = [Doubled(b) for b in backends]
    engine = ServingEngine(backends, NUM_NODES,
                           batcher=DynamicBatcher(**cfg), **kwargs)
    with pytest.MonkeyPatch.context() as patch:
        if lane.endswith("event loop"):
            patch.setattr(engine_module, "serves_in_one_pass",
                          lambda *_: False)
        report = engine.run(graph, window, start=start, end=end,
                            speedup=speedup / scale, num_streams=num_streams,
                            queue_capacity=capacity,
                            ingest="pipelined" if lane == "pipelined"
                            else "serial", trace=True)
    return report.to_dict(), engine.last_event_trace


def report_mismatches(base: dict, scaled: dict, where: str = "") -> list:
    """The fields of ``scaled`` that are not ``base``'s under R1."""
    out = []
    for key, a in base.items():
        b = scaled[key]
        if key == "shard_stats":
            for s, (x, y) in enumerate(zip(a, b)):
                out += report_mismatches(x, y, f"shard {s} ")
            continue
        if isinstance(a, dict):         # the autoscaler's scaling block
            out += report_mismatches(a, b, f"{key} ")
            continue
        if key.endswith(("_s", "_seconds")) and key != "window_s":
            want = 2.0 * a
        elif key in HALVED:
            want = a / 2.0
        else:
            want = a
        if want != b:
            out.append(f"{where}{key}: {b!r}, want {want!r}")
    return out


def trace_mismatches(base, scaled) -> list:
    """Where the traced order of ``scaled`` is not ``base``'s with every
    instant doubled."""
    if not np.array_equal(base.kind, scaled.kind):
        return ["the traced event order differs"]
    if not np.array_equal(2.0 * base.t, scaled.t):
        return ["a traced instant is not doubled"]
    out = []
    for cls in KINDS:
        a, b = base.columns(cls), scaled.columns(cls)
        out += [f"{cls.__name__}.{name}" for name in a
                if name != "t" and not np.array_equal(a[name], b[name])]
    return out


def mismatches(replay, topology, cfg, capacity, lane) -> list:
    base, base_trace = serve(replay, topology, cfg, capacity, lane, 1)
    scaled, scaled_trace = serve(replay, topology, cfg, capacity, lane, 2)
    return report_mismatches(base, scaled) \
        + trace_mismatches(base_trace, scaled_trace)


class TestTimeScaling:
    @settings(deadline=None, max_examples=100)
    @given(replays, st.sampled_from(["pool", "sharded"]),
           st.sampled_from([dict(max_edges=6, max_delay_s=2.0),
                            dict(max_delay_s=0.5),
                            dict(max_delay_s=0.0),
                            dict(max_edges=6)]),
           st.sampled_from([None, 0, 2]), st.sampled_from(LANES))
    def test_doubling_every_second_doubles_the_run(self, replay, topology,
                                                   cfg, capacity, lane):
        assert mismatches(replay, topology, cfg, capacity, lane) == []

    @pytest.mark.parametrize("lane", LANES)
    def test_a_planted_constant_breaks_it(self, lane, monkeypatch):
        """Mutation check: 1 ms added to each station's first service is
        an absolute constant that does not double with the run."""
        rng = np.random.default_rng(3)
        graph = TemporalGraph(src=rng.integers(0, NUM_NODES, 60),
                              dst=rng.integers(0, NUM_NODES, 60),
                              t=np.sort(rng.uniform(0, 60, 60)),
                              num_nodes=NUM_NODES)
        replay = (graph, 1.0, 0, None), 2, 2.0
        args = replay, "sharded", dict(max_delay_s=0.5), 2, lane
        assert mismatches(*args) == []
        honest = ServerGroup._commit

        def planted(group, i, srv, begin, service, live=True):
            if not group._commits:
                service += 1e-3
            return honest(group, i, srv, begin, service, live)

        monkeypatch.setattr(ServerGroup, "_commit", planted)
        assert mismatches(*args) != []
