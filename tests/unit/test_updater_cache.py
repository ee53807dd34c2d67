"""Unit tests for the Updater's rotating-pointer commit cache (§IV-B)."""

import numpy as np
import pytest

from repro.hw import UpdaterCache


class TestFunctionalDedup:
    def test_unique_ids_all_commit(self):
        u = UpdaterCache(lines=8, scan_width=3)
        r = u.process(np.array([1, 2, 3, 4]))
        assert r.committed == 4
        assert r.invalidated == 0
        assert np.array_equal(r.survivors, [0, 1, 2, 3])

    def test_duplicate_within_window_invalidated(self):
        u = UpdaterCache(lines=8, scan_width=3)
        r = u.process(np.array([5, 5, 5]))
        assert r.committed == 1
        assert r.invalidated == 2
        assert np.array_equal(r.survivors, [2])   # last write wins

    def test_duplicate_outside_window_both_commit(self):
        u = UpdaterCache(lines=2, scan_width=3)
        ids = np.array([7, 1, 2, 3, 7])  # second 7 arrives 4 slots later
        r = u.process(ids)
        assert r.invalidated == 0
        assert r.committed == 5

    def test_survivors_match_last_write_oracle(self):
        rng = np.random.default_rng(0)
        ids = rng.integers(0, 6, size=40)
        u = UpdaterCache(lines=64, scan_width=3)
        r = u.process(ids)
        # Window >= sequence length -> exactly the last occurrences survive.
        expected = sorted({v: i for i, v in enumerate(ids)}.values())
        assert np.array_equal(r.survivors, expected)

    def test_empty_batch(self):
        u = UpdaterCache(lines=4, scan_width=2)
        r = u.process(np.array([], dtype=int))
        assert r.cycles == 0 and r.committed == 0


class TestTiming:
    def test_cycles_lower_bound_is_arrivals(self):
        u = UpdaterCache(lines=64, scan_width=3)
        r = u.process(np.arange(50))
        assert r.cycles >= 50

    def test_wider_scan_never_slower(self):
        ids = np.random.default_rng(1).integers(0, 20, size=200)
        slow = UpdaterCache(lines=16, scan_width=1).process(ids)
        fast = UpdaterCache(lines=16, scan_width=4).process(ids)
        assert fast.cycles <= slow.cycles

    def test_small_cache_with_slow_scan_stalls(self):
        ids = np.arange(100)
        r = UpdaterCache(lines=2, scan_width=1).process(ids)
        # scan 1/cycle vs arrivals 1/cycle with 2 lines: tight but no loss;
        # stalls bounded, cycles bounded by 2x arrivals + drain.
        assert r.cycles <= 2 * len(ids) + 2
        assert r.committed == 100

    def test_validation(self):
        with pytest.raises(ValueError):
            UpdaterCache(lines=0, scan_width=1)
        with pytest.raises(ValueError):
            UpdaterCache(lines=4, scan_width=0)


class TestHostCommitSet:
    """The memory stage commits the mailbox rows the hardware Updater does:
    of a vertex's endpoint rows in a batch, the last one."""

    @staticmethod
    def mailbox_rows_changed(seed):
        from repro.graph import TemporalGraph
        from repro.models import TGNN, ModelConfig

        rng = np.random.default_rng(seed)
        n, nodes = 60, 9              # ~13 endpoint rows per vertex
        graph = TemporalGraph(
            rng.integers(0, nodes, n), rng.integers(0, nodes, n),
            np.cumsum(rng.exponential(50.0, n)),
            edge_feat=rng.normal(size=(n, 3)), num_nodes=nodes + 3)
        model = TGNN(ModelConfig(memory_dim=4, time_dim=3, embed_dim=4,
                                 edge_dim=3, num_neighbors=3), rng=rng)
        rt = model.new_runtime(graph)
        model.update_memory(graph.slice(0, 30), rt)   # warm: rows have mail
        batch = graph.slice(30, n)
        before = rt.state.snapshot()
        model.update_memory(batch, rt)
        changed = np.nonzero(
            (rt.state.mailbox != before["mailbox"]).any(axis=1)
            | (rt.state.mail_time != before["mail_time"]))[0]
        return batch, rt, changed

    @pytest.mark.parametrize("seed", range(8))
    def test_mail_commits_are_the_updater_survivors(self, seed):
        batch, rt, changed = self.mailbox_rows_changed(seed)
        nodes = batch.nodes
        report = UpdaterCache(lines=2 * len(batch)).process(nodes)
        assert report.invalidated > len(nodes) // 2       # heavy repeats
        survivors = report.survivors
        assert np.array_equal(changed, np.sort(nodes[survivors]))
        # ... and each holds the message of its surviving row: own memory,
        # the partner endpoint's, the edge's features, at the edge's time.
        mem = rt.state.memory
        for r in survivors:
            expect = np.concatenate([mem[nodes[r]], mem[nodes[r ^ 1]],
                                     batch.edge_feat[r >> 1]])
            assert np.array_equal(rt.state.mailbox[nodes[r]], expect)
            assert rt.state.mail_time[nodes[r]] == batch.t[r >> 1]

    def test_committing_the_first_occurrence_fails(self, monkeypatch):
        """Mutation check: keep each vertex's *first* endpoint row instead
        and the committed messages are no longer the survivors'."""
        from repro.models import tgn

        honest = tgn.last_occurrence
        monkeypatch.setattr(tgn, "last_occurrence",
                            lambda v: honest(v[::-1])[::-1])
        with pytest.raises(AssertionError):
            self.test_mail_commits_are_the_updater_survivors(0)
