"""Unit tests for the sharded multi-stream serving subsystem."""

import ast
from pathlib import Path

import numpy as np
import pytest

import repro.serving
from repro.datasets import wikipedia_like
from repro.graph import NeighborTable, iter_fixed_size
from repro.models import ModelConfig, TGNN
from repro.perf import CPU_32T
from repro.pipeline import LinearCostBackend
from repro.profiling import count_ops
from repro.serving import (DEFAULT_REGISTRY, ArrivalTrace, BackendRegistry,
                           CoalescedJob, CrossShardMailbox, DynamicBatcher,
                           ServingEngine, ShardRouter, StreamArrival,
                           make_stream_arrivals, padded_hash_placement)
from repro.serving.engine import TOPOLOGIES
from tests.property.arrival_oracle import from_arrivals, merge_batches
from tests.property.queue_oracle import replay, simulate_queue
from tests.unit.test_measured import structure_json

CFG = ModelConfig(memory_dim=8, time_dim=6, embed_dim=8, edge_dim=172,
                  num_neighbors=4, simplified_attention=True,
                  lut_time_encoder=True, lut_bins=8, pruning_budget=2)


def setup():
    g = wikipedia_like(num_edges=600, num_users=80, num_items=20)
    model = TGNN(CFG, rng=np.random.default_rng(0))
    model.calibrate(g)
    return g, model


def modeled_backend():
    """The registry's ``cpu-32t`` backend for ``CFG``."""
    return LinearCostBackend(CPU_32T.marginal_edge_s(count_ops(CFG)),
                             CPU_32T.batch_overhead_s, name=CPU_32T.name)


# --------------------------------------------------------------------------- #
class TestSimulator:
    def service(self, s):
        return lambda payload: s

    def test_utilization_counts_trailing_service(self):
        """Regression: busy time past the last arrival used to be divided
        away, reporting utilization > 1 for a stable trace."""
        # Old accounting: busy 20 / last-arrival span 1 -> "2000%".
        res = simulate_queue([(0.0, None), (1.0, None)], self.service(10.0))
        assert res.busy_s == 20.0
        assert res.makespan_s == pytest.approx(20.0)   # runs to last finish
        assert res.utilization == pytest.approx(1.0)
        # Idle gap between jobs: trailing service still counted.
        res = simulate_queue([(0.0, None), (100.0, None)], self.service(10.0))
        assert res.makespan_s == pytest.approx(110.0)
        assert res.utilization == pytest.approx(20.0 / 110.0)

    def test_single_job_no_denominator_blowup(self):
        """Regression: a single-arrival trace used to divide by 1e-12."""
        res = simulate_queue([(5.0, None)], self.service(2.0))
        assert res.utilization == 1.0
        assert res.offered_load == 0.0     # one job is not a process
        assert res.mean_wait_s == 0.0
        assert res.mean_response_s == pytest.approx(2.0)

    def test_capacity_bounds_waiting_not_in_service(self):
        """Regression: the in-service job counted against the buffer, so a
        capacity-2 queue started dropping at backlog 1."""
        arrivals = [(float(i), i) for i in range(4)]
        res = simulate_queue(arrivals, self.service(100.0), queue_capacity=2)
        # Job 0 is in service; jobs 1 and 2 occupy the two buffer slots;
        # only job 3 is rejected.
        assert np.flatnonzero(res.server < 0).tolist() == [3]
        assert res.max_queue_depth == 2

    def test_capacity_zero_is_bufferless_not_deaf(self):
        """Regression: capacity 0 dropped every arrival, even ones an idle
        server could start immediately — a loss system still serves jobs
        that need no waiting."""
        res = simulate_queue([(0.0, None), (100.0, None)],
                             self.service(10.0), queue_capacity=0)
        assert res.jobs == 2 and res.dropped == 0   # server idle both times
        busy = simulate_queue([(0.0, None), (1.0, None), (200.0, None)],
                              self.service(10.0), queue_capacity=0)
        assert np.flatnonzero(busy.server < 0).tolist() == [1]  # it waits

    def test_multi_server_shares_load(self):
        res = simulate_queue([(0.0, None)] * 3, self.service(10.0),
                             num_servers=2)
        assert sorted(res.waits()) == [0.0, 0.0, 10.0]
        assert res.makespan_s == pytest.approx(20.0)
        assert res.utilization == pytest.approx(30.0 / (2 * 20.0))
        # Adding a server cannot increase the makespan.
        res1 = simulate_queue([(0.0, None)] * 3, self.service(10.0))
        assert res.makespan_s <= res1.makespan_s

    def test_fifo_begin_times_monotone(self):
        rng = np.random.default_rng(1)
        arrivals = [(float(t), None)
                    for t in np.sort(rng.uniform(0, 50, size=40))]
        res = simulate_queue(arrivals,
                             lambda _: float(rng.uniform(0.1, 3.0)),
                             num_servers=3)
        assert np.all(np.diff(res.t_begin) >= 0)
        assert 0.0 < res.utilization <= 1.0

    def test_offered_load_flags_overload(self):
        arrivals = [(i * 1e-6, None) for i in range(20)]
        res = simulate_queue(arrivals, self.service(1.0))
        assert res.offered_load > 1.0
        assert res.utilization <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_queue([(0.0, None)], self.service(1.0), num_servers=0)
        with pytest.raises(ValueError):
            simulate_queue([(1.0, None), (0.0, None)], self.service(1.0))
        with pytest.raises(ValueError):
            simulate_queue([(0.0, None)], self.service(1.0),
                           queue_capacity=-1)
        # 2.5 servers used to build 2; a 2.5 buffer held 3 jobs and a NaN
        # one never filled.
        with pytest.raises(ValueError, match="positive integer"):
            simulate_queue([(0.0, None)], self.service(1.0), num_servers=2.5)
        for bad in (2.5, float("nan")):
            with pytest.raises(ValueError, match="non-negative integer"):
                simulate_queue([(0.0, None)], self.service(1.0),
                               queue_capacity=bad)
        # A NaN service time died scheduling an event at t=nan.
        for bad in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="service time"):
                simulate_queue([(0.0, None), (1.0, None)],
                               self.service(bad))


# --------------------------------------------------------------------------- #
def window_arrivals(graph, window_s=3600.0, num_streams=1, speedup=1.0):
    return make_stream_arrivals(graph, window_s, num_streams=num_streams,
                                speedup=speedup)


class TestDynamicBatcher:
    def test_passthrough_default(self):
        g, _ = setup()
        arrivals = window_arrivals(g)
        jobs = DynamicBatcher().coalesce(arrivals)
        assert len(jobs) == len(arrivals)
        for job, a in zip(jobs, arrivals):
            assert job.t_release == a.t
            assert job.n_edges == len(a.batch)
            assert job.t_release == job.sources.t[0]

    def test_size_only_batching_coalesces(self):
        """Regression: ``DynamicBatcher(max_edges=N)`` used to inherit a
        0-second deadline that flushed before the buffer ever reached N."""
        g, _ = setup()
        arrivals = window_arrivals(g)
        jobs = DynamicBatcher(max_edges=40).coalesce(arrivals)
        assert len(jobs) < len(arrivals)
        assert any(len(j.sources) > 1 for j in jobs)

    def test_size_trigger_respects_cap(self):
        """Regression: the buffer used to admit an arrival *before* checking
        the size trigger, so released jobs routinely exceeded ``max_edges``
        — overflowing the device capacity the cap models."""
        g, _ = setup()
        arrivals = window_arrivals(g)
        jobs = DynamicBatcher(max_edges=40,
                              max_delay_s=float("inf")).coalesce(arrivals)
        assert len(jobs) < len(arrivals)
        assert sum(j.n_edges for j in jobs) == \
            sum(len(a.batch) for a in arrivals)
        for j in jobs:
            # The cap binds unless a single oversized arrival had nowhere
            # else to go.
            assert j.n_edges <= 40 or len(j.sources) == 1
            # A flush is an event at some arrival instant.
            assert j.t_release >= j.sources[-1].t

    def test_deadline_trigger_flushes_at_deadline(self):
        b = DynamicBatcher(max_delay_s=5.0)
        mk = lambda t: StreamArrival(t=t, stream=0, batch=_tiny_batch(t))
        jobs = b.coalesce(from_arrivals([mk(0.0), mk(2.0), mk(9.0),
                                         mk(11.0)]))
        # 0.0 and 2.0 coalesce and release at the 5.0 deadline; 9.0 and 11.0
        # coalesce (11 < 9 + 5) and release at the tail deadline 14.0.
        assert [j.t_release for j in jobs] == [5.0, 14.0]
        assert [len(j.sources) for j in jobs] == [2, 2]

    def test_merged_batch_is_chronological(self):
        b = DynamicBatcher(max_delay_s=100.0)
        a1 = StreamArrival(t=10.0, stream=0, batch=_tiny_batch(7.0))
        a2 = StreamArrival(t=10.5, stream=1, batch=_tiny_batch(3.0))
        jobs = b.coalesce(from_arrivals([a1, a2]))
        assert len(jobs) == 1
        assert np.all(np.diff(jobs[0].batch.t) >= 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            DynamicBatcher(max_edges=0)
        # NaN would never fire the size trigger; inf and 2.5 are no count.
        for bad in (float("nan"), float("inf"), 2.5):
            with pytest.raises(ValueError, match="positive integer"):
                DynamicBatcher(max_edges=bad)
        assert DynamicBatcher(max_edges=np.int64(3)).max_edges == 3
        with pytest.raises(ValueError):
            DynamicBatcher(max_delay_s=-1.0)
        with pytest.raises(ValueError):
            DynamicBatcher().coalesce(from_arrivals(
                [StreamArrival(1.0, 0, _tiny_batch(1.0)),
                 StreamArrival(0.0, 0, _tiny_batch(0.0))]))


def _tiny_batch(t):
    g = wikipedia_like(num_edges=4, num_users=4, num_items=2)
    b = g.slice(0, 2)
    return type(b)(src=b.src, dst=b.dst, t=np.full(2, t), eid=b.eid,
                   edge_feat=b.edge_feat)


class TestArrivalTrace:
    """The ``Sequence[StreamArrival]`` contract of the columnar trace."""

    def trace(self, num_streams=2):
        g, _ = setup()
        return g, window_arrivals(g, num_streams=num_streams, speedup=4.0)

    def test_items_are_views_of_the_graph(self):
        g, trace = self.trace()
        assert isinstance(trace, ArrivalTrace)
        for a in (trace[0], trace[-1], trace[len(trace) // 2]):
            assert isinstance(a, StreamArrival)
            assert np.shares_memory(a.batch.edge_feat, g.edge_feat)
            assert np.array_equal(a.batch.edge_feat, g.edge_feat[a.batch.eid])
            assert np.array_equal(a.batch.t, g.t[a.batch.eid])
        assert (trace[-1].t, trace[-1].stream) \
            == (trace.t[-1], trace.stream[-1])
        # Tenants share a window's batch object, as do a slice's items.
        same_window = np.flatnonzero(trace.eidx[trace.cum[:-1]]
                                     == trace.eidx[0])
        assert len(same_window) == 2
        assert trace[same_window[0]].batch is trace[same_window[1]].batch
        assert trace[same_window[1]:][0].batch is trace[0].batch
        with pytest.raises(IndexError):
            trace[len(trace)]

    def test_slices_share_the_columns(self):
        _, trace = self.trace()
        part = trace[3:7]
        assert isinstance(part, ArrivalTrace) and len(part) == 4
        assert part.eidx is trace.eidx and part.edges is trace.edges
        assert np.shares_memory(part.t, trace.t)
        assert part == from_arrivals([trace[i] for i in range(3, 7)])
        assert part.num_edges == sum(len(trace[i]) for i in range(3, 7))
        assert len(trace[5:2]) == 0 and trace[5:2].num_edges == 0
        with pytest.raises(ValueError, match="contiguous"):
            trace[::2]

    def test_rows_are_derived_from_first(self):
        # The constructor takes each arrival's first row and lays out the
        # per-edge index itself, so ``batch`` (views) and ``merged`` (one
        # gather) cannot disagree about which rows an arrival owns.
        g, _ = self.trace()
        first, cum = np.array([4, 0, 4, 9]), np.array([0, 3, 5, 5, 6])
        trace = ArrivalTrace(g.slice(0, g.num_edges), np.arange(4.0),
                             np.array([0, 1, 0, 1]), cum, first)
        assert trace.eidx.tolist() == [4, 5, 6, 0, 1, 9]
        assert [a.batch.eid.tolist() for a in trace] \
            == [[4, 5, 6], [0, 1], [], [9]]
        assert trace.merged().eid.tolist() == [0, 1, 4, 5, 6, 9]
        assert trace.span(1, 3) == trace[1:3] \
            == from_arrivals([trace[1], trace[2]])
        with pytest.raises(ValueError, match="number of arrivals"):
            ArrivalTrace(trace.edges, trace.t, trace.stream, cum, first[:3])

    def test_value_equality(self):
        _, trace = self.trace()
        assert trace == from_arrivals(list(trace))
        assert trace[:4] != trace[1:5]
        assert trace[:4] != trace[:3]
        # Only a trace equals a trace: a list of its items does not.
        assert trace != "not arrivals" and trace != list(trace)
        other = window_arrivals(self.trace()[0], num_streams=3, speedup=4.0)
        assert trace != other
        with pytest.raises(TypeError):
            hash(trace)

    def test_merged_matches_merge_batches(self):
        _, trace = self.trace(num_streams=3)
        for lo, hi in ((0, 1), (0, 5), (2, 9), (0, len(trace))):
            got = trace[lo:hi].merged()
            want = merge_batches([trace[i].batch for i in range(lo, hi)])
            for name in ("src", "dst", "t", "eid", "edge_feat"):
                assert np.array_equal(getattr(got, name), getattr(want, name))

    def test_from_arrivals_round_trip(self):
        _, trace = self.trace()
        rebuilt = from_arrivals(list(trace))
        assert rebuilt == trace and rebuilt.edges is not trace.edges
        empty = from_arrivals([])
        assert len(empty) == 0 and empty.num_edges == 0
        assert empty == trace[:0]
        one = from_arrivals([StreamArrival(1.5, 3, _tiny_batch(1.0))])
        assert (one[0].t, one[0].stream, len(one[0])) == (1.5, 3, 2)

    def test_repr_prints_no_arrays(self):
        _, trace = self.trace()
        text = repr(trace)
        assert text.startswith("ArrivalTrace(arrivals=") \
            and "array" not in text and "np." not in text \
            and len(text) < 120
        assert repr(trace[:0]) == "ArrivalTrace(arrivals=0, edges=0)"


class TestBatcherInvariants:
    """The three contracts every coalescing configuration must keep."""

    CONFIGS = [
        dict(),                                       # passthrough
        dict(max_edges=16),                           # size-only
        dict(max_edges=16, max_delay_s=2000.0),       # size + deadline
        dict(max_delay_s=500.0),                      # deadline-only
        dict(max_edges=3),                            # cap < window size
        dict(max_edges=10_000),                       # cap never reached
    ]

    def _arrivals(self):
        g, _ = setup()
        return window_arrivals(g, window_s=3600.0, num_streams=2,
                               speedup=4.0)

    @pytest.mark.parametrize("cfg", CONFIGS)
    def test_every_edge_exactly_once(self, cfg):
        """Coalescing must neither drop nor duplicate stream edges."""
        arrivals = self._arrivals()
        jobs = DynamicBatcher(**cfg).coalesce(arrivals)
        got = np.sort(np.concatenate([j.batch.eid for j in jobs]))
        want = np.sort(np.concatenate([a.batch.eid for a in arrivals]))
        assert np.array_equal(got, want)
        assert sum(len(j.sources) for j in jobs) == len(arrivals)

    @pytest.mark.parametrize("cfg", [c for c in CONFIGS
                                     if c.get("max_edges")])
    def test_jobs_never_exceed_max_edges(self, cfg):
        """A released job fits the device unless one arrival alone cannot."""
        jobs = DynamicBatcher(**cfg).coalesce(self._arrivals())
        for j in jobs:
            assert j.n_edges <= cfg["max_edges"] or len(j.sources) == 1

    @pytest.mark.parametrize("cfg", [c for c in CONFIGS
                                     if c.get("max_delay_s") is not None])
    def test_batching_delay_never_exceeds_deadline(self, cfg):
        """The oldest buffered arrival never waits past the deadline."""
        jobs = DynamicBatcher(**cfg).coalesce(self._arrivals())
        for j in jobs:
            assert j.t_release - j.sources.t[0] \
                <= cfg["max_delay_s"] + 1e-9
            # And each constituent waited at most as long as the oldest.
            for a in j.sources:
                assert j.t_release - a.t <= cfg["max_delay_s"] + 1e-9

    def test_passthrough_has_zero_delay(self):
        jobs = DynamicBatcher().coalesce(self._arrivals())
        assert all(j.t_release == j.sources.t[0] for j in jobs)


# --------------------------------------------------------------------------- #
class TestShardRouter:
    def test_partition_covers_all_shards(self):
        r = ShardRouter(4, 1000)
        assert r.assignment.shape == (1000,)
        assert set(np.unique(r.assignment)) == {0, 1, 2, 3}
        counts = np.bincount(r.assignment, minlength=4)
        assert counts.min() > 100          # roughly even spread

    def test_split_routes_every_edge_to_both_owners(self):
        g, _ = setup()
        r = ShardRouter(4, g.num_nodes)
        batch = g.slice(0, 200)
        mailbox = CrossShardMailbox(4)
        subs = r.split(batch, mailbox)
        seen = {}
        for sb in subs:
            assert np.all(np.diff(sb.batch.t) >= 0)   # stream order kept
            assert sb.mail_from.shape == (sb.mail_edges,)
            for eid in sb.batch.eid:
                seen.setdefault(int(eid), []).append(sb.shard)
        s_src = r.assignment[batch.src]
        s_dst = r.assignment[batch.dst]
        for i, eid in enumerate(batch.eid):
            owners = {int(s_src[i]), int(s_dst[i])}
            assert sorted(seen[int(eid)]) == sorted(owners)
        cross = int((s_src != s_dst).sum())
        assert mailbox.counts.sum() == cross
        assert sum(sb.mail_edges for sb in subs) == cross
        assert sum(sb.local_edges for sb in subs) == len(batch)

    def test_single_shard_is_identity(self):
        g, _ = setup()
        r = ShardRouter(1, g.num_nodes)
        batch = g.slice(0, 100)
        subs = r.split(batch)
        assert len(subs) == 1
        assert subs[0].mail_edges == 0
        assert np.array_equal(subs[0].batch.eid, batch.eid)

    def test_owned_rows_match_unsharded_neighbor_table(self):
        """The mailbox guarantee: a shard sees every edge incident to its
        owned vertices in stream order, so those neighbor-table rows are
        identical to the unsharded table's."""
        g, _ = setup()
        mr = 4
        r = ShardRouter(3, g.num_nodes)
        global_table = NeighborTable(g.num_nodes, mr)
        shard_tables = [NeighborTable(g.num_nodes, mr) for _ in range(3)]
        for batch in iter_fixed_size(g, 50):
            global_table.insert_edges(batch.src, batch.dst, batch.eid,
                                      batch.t)
            for sb in r.split(batch):
                shard_tables[sb.shard].insert_edges(
                    sb.batch.src, sb.batch.dst, sb.batch.eid, sb.batch.t)
        vertices = np.arange(g.num_nodes)
        g_all = global_table.gather(vertices)
        for shard in range(3):
            owned = np.flatnonzero(r.assignment == shard)
            g_shard = shard_tables[shard].gather(owned)
            assert np.array_equal(g_shard.mask, g_all.mask[owned])
            assert np.array_equal(g_shard.nbrs[g_shard.mask],
                                  g_all.nbrs[owned][g_all.mask[owned]])
            assert np.array_equal(g_shard.times[g_shard.mask],
                                  g_all.times[owned][g_all.mask[owned]])

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardRouter(0, 10)

    def test_mailbox_matrix_is_source_owner_to_holder(self):
        """``counts[i, j]`` is the edges shard ``i`` (the source's owner,
        which processes the edge locally) forwards to shard ``j``."""
        g, _ = setup()
        r = ShardRouter(4, g.num_nodes)
        batch = g.slice(0, 200)
        mailbox = CrossShardMailbox(4)
        r.split(batch, mailbox)
        want = np.zeros((4, 4), dtype=np.int64)
        for a, b in zip(r.assignment[batch.src], r.assignment[batch.dst]):
            if a != b:
                want[a, b] += 1
        assert np.array_equal(mailbox.counts, want)

    def test_split_keeps_the_keyword_call_subclasses_make(self):
        """A subclass wrapping ``split`` as ``super().split(batch,
        mailbox=mailbox, cache=cache)`` (the end-to-end benchmark's
        traced router does) routes exactly as the base call."""
        class Wrapped(ShardRouter):
            def split(self, batch, mailbox=None, cache=None):
                return super().split(batch, mailbox=mailbox, cache=cache)

        g, _ = setup()
        batch = g.slice(0, 200)
        boxes = CrossShardMailbox(3), CrossShardMailbox(3)
        got = Wrapped(3, g.num_nodes).split(batch, mailbox=boxes[0])
        want = ShardRouter(3, g.num_nodes).split(batch, boxes[1])
        assert [(sb.shard, sb.batch.eid.tolist(), sb.mail_edges)
                for sb in got] == [(sb.shard, sb.batch.eid.tolist(),
                                    sb.mail_edges) for sb in want]
        assert np.array_equal(boxes[0].counts, boxes[1].counts)


# --------------------------------------------------------------------------- #
class TestBackendRegistry:
    def test_builtin_names(self):
        assert DEFAULT_REGISTRY.available() == [
            "cpu-32t", "gpu", "measured", "software", "u200", "zcu104"]

    def test_create_builds_fresh_instances(self):
        g, model = setup()
        b1 = DEFAULT_REGISTRY.create("cpu-32t", model, g)
        b2 = DEFAULT_REGISTRY.create("cpu-32t", model, g)
        assert b1 is not b2
        assert b1.process_batch(g.slice(0, 50)) > 0

    def test_unknown_name_lists_available(self):
        g, model = setup()
        with pytest.raises(KeyError, match="software"):
            DEFAULT_REGISTRY.create("tpu", model, g)

    def test_custom_registry_and_duplicate_rejection(self):
        reg = BackendRegistry()

        @reg.register("const")
        def _const(model, graph, **_):
            class B:
                name = "const"

                def process_batch(self, batch):
                    return 1e-3
            return B()

        assert reg.available() == ["const"]
        assert reg.create("const", None, None).process_batch(None) == 1e-3
        with pytest.raises(ValueError):
            reg.register("const", _const)


# --------------------------------------------------------------------------- #
class TestServingEngine:
    @pytest.mark.parametrize("speedup, stable", [(40.0, True),
                                                 (1e6, False)])
    def test_single_shard_matches_a_single_server_queue(self, speedup,
                                                        stable):
        """Acceptance: shards=1 is one FIFO server fed the stream's window
        arrivals, exactly — past saturation too, where the backlog and the
        offered load that marks the run unstable are the single queue's."""
        g, model = setup()
        arrivals = make_stream_arrivals(g, 3600.0, start=300, speedup=speedup)
        modeled = modeled_backend()
        qs = simulate_queue(list(zip(arrivals.t.tolist(), arrivals)),
                            lambda a: modeled.process_batch(a.batch))
        engine = ServingEngine([modeled_backend()], g.num_nodes)
        rep = engine.run(g, window_s=3600.0, start=300, speedup=speedup)
        s0 = rep.shard_stats[0]
        assert rep.windows == qs.jobs
        assert (qs.offered_load < 1.0) is s0.stable is stable
        assert s0.offered_load == pytest.approx(qs.offered_load)
        assert s0.utilization == pytest.approx(qs.utilization)
        assert s0.mean_wait_s == pytest.approx(qs.mean_wait_s)
        assert s0.p95_response_s == pytest.approx(qs.p95_response_s)
        assert rep.p95_response_s == pytest.approx(qs.p95_response_s)
        assert rep.mean_response_s == pytest.approx(qs.mean_response_s)
        assert rep.cross_shard_edges == 0
        if not stable:
            assert s0.offered_load > 1.0 and s0.mean_wait_s > 0.0

    def test_four_shards_four_streams_end_to_end(self):
        """Acceptance: 4 shards x 4 streams at speedup=2.0 completes."""
        g, model = setup()
        engine = ServingEngine([modeled_backend()
                                for _ in range(4)], g.num_nodes)
        rep = engine.run(g, window_s=3600.0, speedup=2.0, num_streams=4)
        fresh = ServingEngine([modeled_backend()
                               for _ in range(4)], g.num_nodes)
        base = fresh.run(g, window_s=3600.0, speedup=2.0, num_streams=1)
        assert rep.num_shards == 4 and rep.num_streams == 4
        assert len(rep.shard_stats) == 4
        assert rep.windows == 4 * base.windows
        assert rep.dropped_windows == 0
        assert rep.p95_response_s > 0
        assert all(s.jobs > 0 for s in rep.shard_stats)
        assert rep.cross_shard_edges > 0
        assert rep.processed_edges == \
            rep.ingested_edges + rep.cross_shard_edges
        # Every stat the issue demands is populated per shard.
        for s in rep.shard_stats:
            assert 0.0 <= s.utilization <= 1.0
            assert s.p95_response_s <= s.p99_response_s or \
                s.p99_response_s == pytest.approx(s.p95_response_s, rel=1e-6)
            assert s.dropped_jobs == 0

    def test_heterogeneous_shards(self):
        """The constructor takes any list of backends; ``from_registry``
        builds one name per station."""
        g, model = setup()
        engine = ServingEngine(
            [DEFAULT_REGISTRY.create(name, model, g, functional=False)
             for name in ("cpu-32t", "gpu")], g.num_nodes)
        rep = engine.run(g, window_s=3600.0, speedup=2.0)
        names = [s.backend for s in rep.shard_stats]
        assert len(names) == 2 and names[0] != names[1]

    @pytest.mark.parametrize("topology, stations",
                             [("sharded", 3), ("pool", 1), ("hybrid", 4)])
    def test_station_count_sizes_the_registry_fleet(self, topology,
                                                    stations):
        """One rule counts stations: ``from_registry`` builds exactly
        ``station_count`` of them."""
        g, model = setup()
        assert ServingEngine.station_count(topology, 3) == stations
        kwargs = dict(num_shards=3, topology=topology,
                      backend_kwargs={"functional": False})
        engine = ServingEngine.from_registry("cpu-32t", model, g, **kwargs)
        assert engine.num_shards == stations

    @pytest.mark.parametrize("topology", ["sharded", "pool", "hybrid"])
    def test_fractional_num_shards_rejected(self, topology):
        """A shard count is a count: 2.5 used to die in ``range`` with a
        ``TypeError``."""
        g, model = setup()
        with pytest.raises(ValueError, match="num_shards must be a positive "
                                             "integer"):
            ServingEngine.from_registry("cpu-32t", model, g, num_shards=2.5,
                                        topology=topology)

    def test_deadline_batching_reduces_jobs(self):
        g, model = setup()
        passthrough = ServingEngine([modeled_backend()],
                                    g.num_nodes)
        coalescing = ServingEngine([modeled_backend()], g.num_nodes,
                                   batcher=DynamicBatcher(max_delay_s=1e4))
        r1 = passthrough.run(g, window_s=3600.0)
        r2 = coalescing.run(g, window_s=3600.0)
        assert r2.shard_stats[0].jobs < r1.shard_stats[0].jobs
        assert r2.windows == r1.windows    # no arrivals lost, just batched

    def test_queue_capacity_drops_windows(self):
        g, model = setup()

        class SlowBackend:
            name = "slow"

            def process_batch(self, batch):
                return 100.0

        engine = ServingEngine([SlowBackend()], g.num_nodes)
        rep = engine.run(g, window_s=3600.0, speedup=1e9, queue_capacity=2)
        assert rep.dropped_windows > 0
        assert not rep.stable

    def test_dropped_jobs_not_counted_as_processed(self):
        """Regression: traffic used to be recorded at split time, so edges
        rejected by a full queue inflated processed/cross-shard/throughput
        numbers."""
        g, model = setup()

        class SlowBackend:
            name = "slow"

            def process_batch(self, batch):
                return 100.0

        engine = ServingEngine([SlowBackend(), SlowBackend()], g.num_nodes)
        rep = engine.run(g, window_s=3600.0, speedup=1e9, queue_capacity=1)
        assert rep.dropped_windows > 0
        # Only the handful of actually-served jobs may count as processed.
        assert rep.processed_edges < rep.ingested_edges
        assert rep.processed_edges == sum(s.edges for s in rep.shard_stats)
        assert rep.cross_shard_edges == \
            sum(s.mail_in_edges for s in rep.shard_stats)
        assert 0 <= rep.served_edges <= rep.processed_edges
        assert rep.throughput_eps * rep.makespan_s == \
            pytest.approx(rep.served_edges)

    def test_cross_die_mail_penalty_increases_busy(self):
        g, model = setup()
        free = ServingEngine([modeled_backend() for _ in range(4)],
                             g.num_nodes)
        taxed = ServingEngine([modeled_backend() for _ in range(4)],
                              g.num_nodes, die_of=[0, 1, 0, 1],
                              mail_hop_s=1e-4)
        r0 = free.run(g, window_s=3600.0)
        r1 = taxed.run(g, window_s=3600.0)
        assert r1.cross_die_mail_edges > 0
        assert r0.cross_die_mail_edges == 0
        assert sum(s.busy_s for s in r1.shard_stats) > \
            sum(s.busy_s for s in r0.shard_stats)

    def test_validation(self):
        g, model = setup()
        with pytest.raises(ValueError):
            ServingEngine([], g.num_nodes)
        with pytest.raises(ValueError):
            ServingEngine.from_registry("cpu-32t", model, g, num_shards=0)
        with pytest.raises(ValueError):
            ServingEngine([modeled_backend()], g.num_nodes,
                          die_of=[0, 1])
        # A negative hop silently cut response times; NaN and inf died
        # mid-loop scheduling an event at t=nan.
        for bad in (-1e-7, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="mail_hop_s"):
                ServingEngine([modeled_backend() for _ in range(4)],
                              g.num_nodes, die_of=[0, 0, 1, 1],
                              mail_hop_s=bad)
        engine = ServingEngine([modeled_backend()], g.num_nodes)
        with pytest.raises(ValueError):
            engine.run(g, window_s=0.0)
        with pytest.raises(ValueError):
            engine.run(g, window_s=10.0, num_streams=0)
        # 2.5 streams used to build 3, with float ids and a 1/2.5 phase.
        for bad in (2.5, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="positive integer"):
                make_stream_arrivals(g, 10.0, num_streams=bad)
        # A 2.5 buffer held 3 jobs, a NaN one never filled, and 2.5 pool
        # servers built 2.
        for bad in (2.5, float("nan")):
            with pytest.raises(ValueError, match="non-negative integer"):
                engine.run(g, window_s=3600.0, queue_capacity=bad)
        with pytest.raises(ValueError, match="positive integer"):
            ServingEngine([modeled_backend()], g.num_nodes, topology="pool",
                          pool_servers=2.5)
        # A NaN cost died mid-loop scheduling an event at t=nan.
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                LinearCostBackend(per_edge_s=bad)
            with pytest.raises(ValueError, match="finite"):
                LinearCostBackend(overhead_s=bad)


# --------------------------------------------------------------------------- #
class TestPartialWindowAccounting:
    """Regression: when one shard's bounded queue dropped a sub-job, the
    other shards' served sub-jobs of the same window still inflated
    processed_edges, shard traffic, mailbox counts, and the replication
    factor even though the window was reported dropped."""

    def partial_drop_run(self, queue_capacity=1, end=None, **engine):
        from repro.graph import TemporalGraph
        from repro.serving import Placement
        # 10 single-edge windows 0 -> 1; vertex 0 on shard 0, vertex 1 on
        # shard 1, so every window forks into a local sub-job (shard 0)
        # and a mailed sub-job (shard 1).
        n = 10
        g = TemporalGraph(src=np.zeros(n, dtype=np.int64),
                          dst=np.ones(n, dtype=np.int64),
                          t=10.0 * np.arange(n), num_nodes=2)
        placement = Placement(assignment=np.array([0, 1]), num_shards=2)
        # Shard 0 needs 100 s per edge: its capacity-1 queue accepts the
        # first two windows and rejects the rest; shard 1 is fast and
        # serves its sub-job of *every* window.
        engine = ServingEngine(
            [LinearCostBackend(per_edge_s=100.0),
             LinearCostBackend(per_edge_s=1e-3)],
            g.num_nodes, placement=placement, **engine)
        return engine.run(g, window_s=5.0, queue_capacity=queue_capacity,
                          end=end)

    def test_dropped_window_subjobs_excluded_from_traffic(self):
        rep = self.partial_drop_run()
        assert rep.windows == 2 and rep.dropped_windows == 8
        # Shard 1 *served* all ten sub-jobs (queueing really happened)...
        assert rep.shard_stats[1].jobs == 10
        assert rep.shard_stats[0].dropped_jobs == 8
        # ...but only the two completed windows may count as traffic.
        assert rep.shard_stats[0].edges == 2      # local sub-jobs
        assert rep.shard_stats[1].edges == 2      # mailed sub-jobs
        assert rep.processed_edges == 4
        assert rep.cross_shard_edges == 2
        assert rep.served_edges == 2
        assert rep.replication_factor == pytest.approx(2.0)
        assert rep.processed_edges == sum(s.edges for s in rep.shard_stats)
        assert rep.cross_shard_edges == \
            sum(s.mail_in_edges for s in rep.shard_stats)

    @pytest.mark.parametrize("memsync", ["none", "invalidate", "push"])
    def test_dropped_windows_count_none_of_their_sync_or_die_traffic(
            self, memsync):
        """Sync rows, stale reads, version lag and cross-die mail count
        the two served windows only: the run reports what the same run
        cut to those two windows reports, and less than the run whose
        queue drops nothing."""
        engine = dict(memsync=memsync, die_of=[0, 1], mail_hop_s=1e-3)
        rep = self.partial_drop_run(**engine)
        cut = self.partial_drop_run(end=2, **engine)
        whole = self.partial_drop_run(queue_capacity=None, **engine)
        assert (rep.windows, rep.dropped_windows) == (2, 8)
        assert (cut.windows, cut.dropped_windows) == (2, 0)
        assert (whole.windows, whole.dropped_windows) == (10, 0)
        # One forwarded edge per window, and it crosses the die.
        assert rep.cross_die_mail_edges == 2
        assert whole.cross_die_mail_edges == 10
        for f in ("sync_edges", "stale_reads", "max_version_lag",
                  "cross_die_mail_edges"):
            assert getattr(rep, f) == getattr(cut, f), f
        # The policy's own traffic is in play, so the equality bites.
        counted = {"none": ("stale_reads", "max_version_lag"),
                   "invalidate": ("sync_edges",),
                   "push": ("sync_edges",)}[memsync]
        for f in counted:
            assert 0 < getattr(rep, f) < getattr(whole, f), f


# --------------------------------------------------------------------------- #
class CountingRouter(ShardRouter):
    """Counts the routing passes the engine asks for, and keeps each
    plan to count the jobs it covered and handed out."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.splits = 0
        self.routed: list = []

    @property
    def plans(self) -> int:
        return len(self.routed)

    def plan(self, *args, **kwargs):
        plan = super().plan(*args, **kwargs)
        self.routed.append(plan)
        return plan

    def split(self, *args, **kwargs):
        self.splits += 1
        return super().split(*args, **kwargs)


class TestOnePlanPerOwnershipEpoch:
    """Counted, not timed: a serial run never splits job by job.  Without
    a controller it routes one plan for the whole run; with one, an
    ownership epoch's plans cover doubling chunks of jobs, so the jobs
    planned stay within twice the jobs routed plus the first chunk per
    epoch.  The fleets are the ``serve-sim`` flags of the
    ``benchmarks/e2e`` priced workloads (cpu-32t, 4 hash shards, 8
    streams, push memsync)."""

    def run(self, num_edges, speedup, batcher=None, rebalancer=None,
            autoscaler=None, failures=None, **run_kwargs):
        from repro import datasets
        from repro.serving import VertexHeat, make_policy
        graph = datasets.load("wikipedia", num_edges=num_edges, seed=0)
        model = TGNN(ModelConfig(memory_dim=32, time_dim=32, embed_dim=32,
                                 edge_dim=graph.edge_dim,
                                 node_dim=graph.node_dim,
                                 simplified_attention=True,
                                 lut_time_encoder=True, pruning_budget=4),
                     rng=np.random.default_rng(0))
        # The autoscaler grows a fleet of two into four slots.
        placement = padded_hash_placement(graph.num_nodes, 2, 4) \
            if autoscaler is not None \
            else make_policy("hash").place(VertexHeat.from_graph(graph), 4)
        router = CountingRouter.from_placement(placement)
        engine = ServingEngine.from_registry(
            "cpu-32t", model, graph, num_shards=4, router=router,
            memsync="push", batcher=batcher, rebalancer=rebalancer,
            autoscaler=autoscaler, failures=failures)
        report = engine.run(graph, window_s=900.0, speedup=speedup,
                            num_streams=8, **run_kwargs)
        return report, engine, router

    def test_fleet_priced_push_routes_one_plan(self):
        report, _, router = self.run(
            100, 2.0, DynamicBatcher(max_edges=200, max_delay_s=5e-3))
        assert report.windows == 776
        assert (router.plans, router.splits) == (1, 0)

    def test_fleet_priced_push_hands_out_columns(self, monkeypatch):
        """A serial routed run builds no :class:`ShardBatch`, takes no
        feature rows (a priced sub-job reads only its length), and still
        prices every sub-job through one ``process_batch`` call."""
        from repro.serving.router import ShardBatch
        built, priced, gathers = [], [], []
        init, price = ShardBatch.__init__, LinearCostBackend.process_batch

        def counted_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        def counted_price(self, batch):
            priced.append(len(batch))
            return price(self, batch)

        class CountedFeatures:
            def __init__(self, feat):
                self.feat = feat

            def take(self, *args, **kwargs):
                gathers.append(1)
                return self.feat.take(*args, **kwargs)

        def counted_plan(router, *args, **kwargs):
            plan = ShardRouter.plan(router, *args, **kwargs)
            plan._feat = CountedFeatures(plan._feat)
            return plan

        monkeypatch.setattr(ShardBatch, "__init__", counted_init)
        monkeypatch.setattr(LinearCostBackend, "process_batch", counted_price)
        monkeypatch.setattr(CountingRouter, "plan", counted_plan)
        report, engine, _ = self.run(
            100, 2.0, DynamicBatcher(max_edges=200, max_delay_s=5e-3))
        assert built == []
        # Arrivals sit ~56 s apart and the deadline is 5 ms: every window
        # is a job of its own.
        assert report.windows == 776
        assert gathers == []
        assert len(priced) == 1400
        # Served as one pass: the 776 releases are the loop's only
        # events, delivered as one cohort (the event loop read 2952
        # events in 776 cohorts: arrivals, deadlines and service ends).
        sched = engine.last_scheduler
        assert (sched.events_processed, sched.cohort_calls,
                sched.cohort_events) == (776, 1, 776)

    def test_fleet_priced_push_report_calls_no_np_percentile(
            self, monkeypatch):
        """Every p95/p99 of the report, fleet and per station, is read off
        its one sorted array in closed form (``sorted_percentile``), so
        the run and its ``to_json`` leave numpy's quantile machinery
        alone."""
        calls = []
        honest = np.percentile

        def counted(*args, **kwargs):
            calls.append(1)
            return honest(*args, **kwargs)

        monkeypatch.setattr(np, "percentile", counted)
        report, _, _ = self.run(
            100, 2.0, DynamicBatcher(max_edges=200, max_delay_s=5e-3))
        assert report.windows == 776 and report.to_json()
        assert calls == []

    def test_fleet_priced_push_gathers_no_job_batch(self, monkeypatch):
        """A serial routed run without controllers takes each job's rows
        from its route plan, so no released job gathers its merged
        batch."""
        merged = []
        honest = ArrivalTrace.merged

        def counted(self):
            merged.append(len(self))
            return honest(self)

        monkeypatch.setattr(ArrivalTrace, "merged", counted)
        report, _, _ = self.run(
            100, 2.0, DynamicBatcher(max_edges=200, max_delay_s=5e-3))
        assert report.windows == 776 and merged == []

    def test_fleet_priced_push_traces_columns(self, monkeypatch):
        """A traced run records columns, not objects: until the trace is
        read, and through ``check_run``, it builds no arrival, flush,
        begin, mail or sync event and no :class:`StreamArrival` (a
        :class:`ServiceEndEvent` is a heap payload either way).  Read,
        the trace holds the events an object trace held."""
        from collections import Counter

        from repro.analysis.tracecheck import check_run
        from repro.serving import (ArrivalEvent, FlushEvent, MailEvent,
                                   ServiceBeginEvent, StreamArrival,
                                   SyncEvent)
        built = []
        for cls in (ArrivalEvent, StreamArrival, FlushEvent,
                    ServiceBeginEvent, MailEvent, SyncEvent):
            def counted_init(self, *args, _init=cls.__init__, **kwargs):
                built.append(type(self).__name__)
                _init(self, *args, **kwargs)
            monkeypatch.setattr(cls, "__init__", counted_init)
        report, engine, router = self.run(
            100, 2.0, DynamicBatcher(max_edges=200, max_delay_s=5e-3),
            trace=True)
        # No controller runs, so the ownership table never moved.
        check = check_run(engine=engine, report=report,
                          initial_assignment=router.assignment.copy())
        assert built == []
        assert check.ok and check.events == 6225
        assert Counter(type(e).__name__ for e in engine.last_event_trace) \
            == {"ArrivalEvent": 776, "FlushEvent": 776,
                "ServiceBeginEvent": 1400, "ServiceEndEvent": 1400,
                "MailEvent": 608, "SyncEvent": 1265}

    def test_online_rebalancing_plans_what_it_routes(self):
        """Each migration spends the plan, so a plan covering every job
        left would be thrown away 17 times (5150 jobs planned for 632
        routed); doubling chunks keep the jobs planned within twice
        those routed plus the first chunk per ownership epoch."""
        from repro.serving import OnlineRebalancer
        from repro.serving.engine import FIRST_PLAN_JOBS
        rebalancer = OnlineRebalancer(window_s=900.0 / 2000.0,
                                      util_threshold=0.05)
        report, _, router = self.run(80, 2000.0, rebalancer=rebalancer)
        planned = sum(plan.num_jobs for plan in router.routed)
        routed = sum(plan.position for plan in router.routed)
        assert rebalancer.migrations > 0 and router.splits == 0
        assert routed == report.windows == 632
        assert planned <= 2 * routed \
            + FIRST_PLAN_JOBS * (1 + rebalancer.migrations)

    def test_online_rebalancing_gathers_no_job_batch(self, monkeypatch):
        """The control plane samples a released job's endpoint ids off
        its arrival rows: no job gathers its merged batch."""
        from repro.serving import OnlineRebalancer
        merged = []
        honest = ArrivalTrace.merged

        def counted(self):
            merged.append(len(self))
            return honest(self)

        monkeypatch.setattr(ArrivalTrace, "merged", counted)
        rebalancer = OnlineRebalancer(window_s=900.0 / 2000.0,
                                      util_threshold=0.05)
        report, _, _ = self.run(80, 2000.0, rebalancer=rebalancer)
        assert rebalancer.migrations > 0
        assert report.windows == 632 and merged == []

    @pytest.mark.parametrize("controller", ["rebalance", "autoscale",
                                            "failover"])
    def test_plan_chunks_do_not_change_the_run(self, controller,
                                               monkeypatch):
        """Oracle for the chunking: a first chunk of one job, and one
        covering every job left (a plan per epoch), write the default's
        report and traced event order byte for byte."""
        import sys

        import repro.serving.engine as engine_module
        from repro.serving import (AutoScaler, CapacityConfig, FailurePlan,
                                   OnlineRebalancer)

        def controllers():
            if controller == "rebalance":
                return dict(rebalancer=OnlineRebalancer(
                    window_s=900.0 / 2000.0, util_threshold=0.05))
            if controller == "autoscale":
                return dict(autoscaler=AutoScaler(
                    CapacityConfig(micro_batch=1, replicas=2,
                                   max_replicas=4),
                    slo_p95_s=1e-3, scale_window_s=60.0))
            return dict(failures=FailurePlan(fail_at=400.0, shard=1,
                                             recover_at=800.0))

        def outputs():
            report, engine, router = self.run(80, 2000.0, trace=True,
                                              **controllers())
            return (report.to_json(),
                    [repr(e) for e in engine.last_event_trace],
                    router.generation, router.plans)

        want = outputs()
        assert want[2] > 0                  # ownership moved
        plans = {}
        for first in (1, sys.maxsize):
            monkeypatch.setattr(engine_module, "FIRST_PLAN_JOBS", first)
            report, events, generation, plans[first] = outputs()
            assert report == want[0]
            assert events == want[1]
            assert generation == want[2]
        # The three sizes really planned differently.
        assert plans[1] > want[3] > plans[sys.maxsize]

    def test_pipelined_ingest_routes_one_plan_per_job(self):
        from repro.serving import FlushEvent
        _, engine, router = self.run(
            100, 2.0, DynamicBatcher(max_edges=200, max_delay_s=5e-3),
            ingest="pipelined", trace=True)
        flushes = sum(isinstance(e, FlushEvent)
                      for e in engine.last_event_trace)
        assert flushes > 1 and (router.plans, router.splits) == (flushes, 0)


class TestPricedPoolJobsGatherNothing:
    def test_fleet_pool_ingest_gathers_no_job_batch(self, monkeypatch):
        """Counted, not timed: a priced pool run shaped like the
        ``benchmarks/e2e`` ``fleet_pool_ingest`` workload (a 1 µs/edge
        linear price, two replicas, a 2 s deadline, eight streams) hands
        each job to its station as a view, so no released job gathers its
        merged batch, and the backend still prices each job once, at its
        merged batch's length."""
        from repro.graph import TemporalGraph
        n = 600
        rng = np.random.default_rng(0)
        graph = TemporalGraph(src=rng.integers(0, 200, n),
                              dst=rng.integers(0, 200, n),
                              t=np.sort(rng.uniform(0, 1e4, n)),
                              edge_feat=np.zeros((n, 0)), num_nodes=200)
        run = dict(window_s=1e4 / (n // 2), speedup=50.0, num_streams=8)
        batcher = DynamicBatcher(max_delay_s=2.0)
        trace = make_stream_arrivals(graph, run["window_s"],
                                     num_streams=8, speedup=50.0)
        lo, hi = batcher.releases(trace)[:2]
        want = [len(trace.span(a, b).merged())
                for a, b in zip(lo.tolist(), hi.tolist())]
        want = [size for size in want if size]

        priced, merged = [], []
        honest = ArrivalTrace.merged

        def counted(self):
            merged.append(len(self))
            return honest(self)

        class Counting(LinearCostBackend):
            def process_batch(self, batch):
                priced.append(len(batch))
                return super().process_batch(batch)

        monkeypatch.setattr(ArrivalTrace, "merged", counted)
        engine = ServingEngine([Counting(1e-6)], graph.num_nodes,
                               topology="pool", pool_servers=2,
                               batcher=batcher)
        report = engine.run(graph, **run)
        assert report.windows == len(trace) and len(want) > 1
        assert merged == []
        assert priced == want


class TestArrivalTieBreak:
    """Regression: same-instant arrivals from different streams relied on
    sort stability; the key is now explicitly ``(t, stream)``."""

    def tie_graph(self):
        from repro.graph import TemporalGraph
        # Windows [1, 11) and [11, 21) close at t=9 and t=14; with two
        # streams (phase shift 5) stream 0's second window and stream 1's
        # first window both arrive at normalized t=5.
        return TemporalGraph(src=np.array([0, 1, 0]),
                             dst=np.array([1, 0, 1]),
                             t=np.array([1.0, 9.0, 14.0]), num_nodes=2)

    def test_same_instant_arrivals_order_by_stream(self):
        arrivals = make_stream_arrivals(self.tie_graph(), 10.0,
                                        num_streams=2)
        keys = [(a.t, a.stream) for a in arrivals]
        assert keys == [(0.0, 0), (5.0, 0), (5.0, 1), (10.0, 1)]
        assert keys == sorted(keys)

    def test_tied_workload_report_is_byte_stable(self):
        g = self.tie_graph()
        reports = []
        for _ in range(3):
            engine = ServingEngine(
                [LinearCostBackend(per_edge_s=1e-2) for _ in range(2)],
                g.num_nodes)
            reports.append(engine.run(g, window_s=10.0,
                                      num_streams=2).to_json())
        assert reports[0] == reports[1] == reports[2]

    def test_jobs_released_at_one_instant_report_strict_json(self):
        """A size-bound batcher with no deadline releases what is left at
        the stream's last instant, here as two jobs: a zero arrival span
        has no rate (``inf`` internally), which the report writes as
        ``null`` — never the non-JSON ``Infinity`` — and unstable."""
        import json

        engine = ServingEngine([LinearCostBackend(per_edge_s=1e-2)], 2,
                               batcher=DynamicBatcher(max_edges=4))
        report = engine.run(self.tie_graph(), window_s=100.0, num_streams=2)
        assert report.shard_stats[0].jobs == 2
        assert report.shard_stats[0].offered_load == float("inf")

        def reject(constant):
            raise AssertionError(f"{constant} in the report")

        for text in (report.to_json(), structure_json(report)):
            shard, = json.loads(text, parse_constant=reject)["shard_stats"]
            assert shard["offered_load"] is None
            assert shard["stable"] is False


class TestWarmStateRerun:
    """``ServingEngine.run`` documents that a second run continues from
    warm backend state; pin that contract."""

    class RampBackend:
        """Service time grows with every call — observable warm state."""

        name = "ramp"

        def __init__(self):
            self.calls = 0

        def process_batch(self, batch):
            self.calls += 1
            return 1e-3 * self.calls

    def test_second_run_continues_from_warm_state(self):
        g = wikipedia_like(num_edges=300, num_users=40, num_items=10)
        engine = ServingEngine([self.RampBackend()], g.num_nodes)
        first = engine.run(g, window_s=3600.0)
        second = engine.run(g, window_s=3600.0)
        fresh = ServingEngine([self.RampBackend()],
                              g.num_nodes).run(g, window_s=3600.0)
        # Deterministic baseline: a fresh engine reproduces the first run.
        assert fresh.to_json() == first.to_json()
        # The warm rerun kept the backend's state: services are longer.
        assert second.to_json() != first.to_json()
        assert second.shard_stats[0].busy_s > first.shard_stats[0].busy_s

    def test_from_registry_rebuilds_cleanly(self):
        g, model = setup()
        runs = []
        for _ in range(2):
            engine = ServingEngine.from_registry(
                "cpu-32t", model, g, num_shards=2,
                backend_kwargs={"functional": False})
            runs.append(engine.run(g, window_s=3600.0, speedup=2.0,
                                   num_streams=2).to_json())
        assert runs[0] == runs[1]


class TestPoolServersReport:
    def test_pool_replica_count_is_top_level(self):
        g = wikipedia_like(num_edges=300, num_users=40, num_items=10)
        rep = ServingEngine([LinearCostBackend()], g.num_nodes,
                            topology="pool", pool_servers=4).run(
            g, window_s=3600.0, num_streams=2)
        assert rep.pool_servers == 4
        assert rep.pool_servers == rep.shard_stats[0].servers
        assert rep.to_dict()["pool_servers"] == 4
        assert b'"pool_servers": 4' in rep.to_json().encode()

    def test_sharded_reports_one_server_per_shard(self):
        g, model = setup()
        rep = ServingEngine([modeled_backend()
                             for _ in range(2)], g.num_nodes).run(
            g, window_s=3600.0)
        assert rep.pool_servers == 1


class TestReportFieldGates:
    """Omit-when-off is declared on the field, not policed after the fact:
    a defaulted ``ServingReport`` field serializes only once its gate has
    left its default, so a feature that is off (or a field added later)
    cannot put a key into a pinned golden."""

    DERIVED = {"stable", "served_edges", "throughput_eps",
               "replication_factor"}
    GATES = {
        "ingest": ("pipelined", {"ingest"}),
        "rebalance": ("online", {"rebalance", "migrations",
                                 "migrated_vertices", "handoff_rows"}),
        "chaos": ("dead", {"chaos", "failures", "recoveries",
                           "promoted_vertices", "rebuilt_vertices",
                           "recovery_rows", "outage_windows",
                           "outage_p99_response_s"}),
        "measured": ({"workers": 0}, {"measured"}),
        "scaling": ({"scale_ups": 0}, {"scaling"}),
    }

    @staticmethod
    def required():
        import dataclasses
        from repro.serving import ServingReport
        sample = {"str": "x", "int": 1, "float": 1.0}
        return {f.name: sample.get(f.type, ())
                for f in dataclasses.fields(ServingReport)
                if f.default is dataclasses.MISSING}

    def test_required_fields_only(self):
        from repro.serving import ServingReport
        required = self.required()
        assert {"topology", "placement", "replicated_vertices", "memsync",
                "sync_edges", "stale_reads", "max_version_lag",
                "pool_servers"} <= set(required)
        assert set(ServingReport(**required).to_dict()) \
            == set(required) | self.DERIVED

    @pytest.mark.parametrize("gate", sorted(GATES))
    def test_gate_adds_exactly_its_group(self, gate):
        from repro.serving import ServingReport
        required = self.required()
        on, group = self.GATES[gate]
        d = ServingReport(**required, **{gate: on}).to_dict()
        assert set(d) == set(required) | self.DERIVED | group
        # Counters inside an open gate print even at zero ("online with
        # zero migrations" still reports ``migrations: 0``).
        assert all(d[key] == 0 for key in group - {gate})


# --------------------------------------------------------------------------- #
class TestReplayWrapperRegressions:
    """The single-server replay is a one-shard engine; its regressions."""

    def test_single_window_stream_sane_utilization(self):
        """Regression: one-window streams divided busy time by 1e-12."""
        g = wikipedia_like(num_edges=30, num_users=10, num_items=4)

        class ConstBackend:
            def process_batch(self, batch):
                return 0.5

        rep = ServingEngine([ConstBackend()], g.num_nodes).run(
            g, window_s=1e9)
        stats = rep.shard_stats[0]
        assert rep.windows == 1
        assert stats.utilization == 1.0
        assert stats.stable

    def test_overload_utilization_bounded(self):
        """Regression: utilization could exceed 1 when service spilled past
        the last arrival; offered load now carries the overload signal."""
        g, model = setup()

        class SlowBackend:
            def process_batch(self, batch):
                return 10.0

        stats = replay(SlowBackend(), g, window_s=3600.0, speedup=1e9)
        assert stats.utilization <= 1.0
        assert stats.offered_load > 1.0
        assert not stats.stable


# --------------------------------------------------------------------------- #
def topology_tests(path):
    """``(qualified function, line)`` of every place ``path`` branches on a
    topology name: a comparison with a ``TOPOLOGIES`` member as an operand
    (bare, or inside a tuple/list/set literal), a dict literal keyed by
    one, or any use of the identifier ``pooled``."""
    def names_one(node):
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return any(names_one(item) for item in node.elts)
        return isinstance(node, ast.Constant) and node.value in TOPOLOGIES

    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = scope + (node.name,)
        hit = False
        if isinstance(node, ast.Compare):
            hit = any(names_one(x) for x in (node.left, *node.comparators))
        elif isinstance(node, ast.Dict):
            hit = any(key is not None and names_one(key)
                      for key in node.keys)
        elif isinstance(node, (ast.Name, ast.Attribute)):
            hit = getattr(node, "id", getattr(node, "attr", "")) == "pooled"
        if hit:
            found.append((".".join(scope), node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text()), ())
    return found


def router_is_none_tests(path):
    """Lines where ``path`` tests ``<...>router is [not] None``."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Compare)
        and isinstance(node.ops[0], (ast.Is, ast.IsNot))
        and getattr(node.left, "id",
                    getattr(node.left, "attr", "")) == "router"
        and isinstance(node.comparators[0], ast.Constant)
        and node.comparators[0].value is None)


KERNELS = {"new_runtime", "update_memory", "embed", "infer_batch"}


def kernel_names(path):
    """Lines where ``path`` names a model kernel entry point: a name,
    attribute, import or definition spelled as one of ``KERNELS``."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.Name, ast.Attribute, ast.alias,
                             ast.FunctionDef))
        and getattr(node, "id", getattr(node, "attr", getattr(
            node, "name", ""))) in KERNELS)


class TestOneFleetPath:
    """A fleet is a server-count vector: the topology names are read
    where the vector is built and nowhere downstream, and the control
    plane always has a router.  Serving prices batches; the measured
    backend executes the model's kernels, through the one timed call in
    ``repro.pipeline`` (``SoftwareBackend.compute``), so no serving
    module names a kernel — ``measured.py`` included."""

    SERVING = Path(repro.serving.__file__).parent
    BUILDERS = {"ServingEngine.__init__", "ServingEngine.from_registry",
                "ServingEngine.station_count"}

    @pytest.mark.parametrize("path", sorted(SERVING.glob("*.py")),
                             ids=lambda p: p.name)
    def test_topology_is_read_only_where_the_vector_is_built(self, path):
        strays = [(where, line) for where, line in topology_tests(path)
                  if where not in self.BUILDERS]
        assert not strays, strays

    @pytest.mark.parametrize("name", ["control.py", "autoscale.py"])
    def test_the_control_plane_always_has_a_router(self, name):
        assert router_is_none_tests(self.SERVING / name) == []

    @pytest.mark.parametrize("path", sorted(SERVING.glob("*.py")),
                             ids=lambda p: p.name)
    def test_only_the_measured_backend_executes_kernels(self, path):
        assert kernel_names(path) == []

    def test_the_resolvers_see_every_spelling(self, tmp_path):
        src = tmp_path / "probe.py"
        src.write_text(
            "class Engine:\n"
            "    def run(self):\n"
            "        if self.topology == 'pool': pass\n"
            "        if 'hybrid' != kind: pass\n"
            "        if self.topology in ('sharded', 'hybrid'): pass\n"
            "        n = {'pool': 1}.get(self.topology, 2)\n"
            "        pooled = False\n"
            "        if self.pooled: pass\n"
            "        if mode == 'serial' or self.router is None: pass\n"
            "def free():\n"
            "    return plane.router is not None and router is None\n"
            "rt = model.new_runtime(graph)\n"
            "from repro.models.tgn import embed\n"
            "def infer_batch(): return update_memory\n"
            "note = 'embed', embedding\n")
        assert topology_tests(src) == [
            ("Engine.run", 3), ("Engine.run", 4), ("Engine.run", 5),
            ("Engine.run", 6), ("Engine.run", 7), ("Engine.run", 8)]
        assert router_is_none_tests(src) == [9, 11, 11]
        assert kernel_names(src) == [12, 13, 14, 14]
