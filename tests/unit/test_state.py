"""Unit tests for the vertex state tables (memory + mailbox)."""

import numpy as np

from repro.graph import VertexState
from repro.graph.state import last_occurrence


class TestVertexState:
    def test_initial_state(self):
        s = VertexState(4, memory_dim=3, raw_message_dim=5)
        assert not s.has_mail(np.array([0, 1])).any()
        assert s.memory.shape == (4, 3) and s.mailbox.shape == (4, 5)
        assert s.mail_time[0] == -np.inf and s.last_update[0] == 0.0

    def test_write_and_read_memory(self):
        s = VertexState(4, 3, 5)
        s.write_memory(np.array([1, 2]), np.arange(6.0).reshape(2, 3),
                       np.array([10.0, 11.0]))
        assert np.allclose(s.memory[1:3], [[0, 1, 2], [3, 4, 5]])
        assert np.allclose(s.last_update[1:3], [10.0, 11.0])

    def test_duplicate_write_last_wins(self):
        s = VertexState(4, 2, 3)
        vals = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        s.write_memory(np.array([1, 1, 1]), vals, np.array([1.0, 2.0, 3.0]))
        assert np.allclose(s.memory[1], [3.0, 3.0])
        assert s.last_update[1] == 3.0

    def test_mailbox_most_recent_aggregator(self):
        s = VertexState(4, 2, 3)
        msgs = np.array([[1.0, 0, 0], [0, 2.0, 0]])
        s.write_mail(np.array([2, 2]), msgs, np.array([5.0, 6.0]))
        assert np.allclose(s.mailbox[2], [0, 2.0, 0])
        assert s.mail_time[2] == 6.0
        assert s.has_mail(np.array([2]))[0]

    def test_snapshot_restore(self):
        s = VertexState(3, 2, 2)
        s.write_memory(np.array([0]), np.ones((1, 2)), np.array([1.0]))
        snap = s.snapshot()
        s.write_memory(np.array([0]), np.full((1, 2), 9.0), np.array([2.0]))
        s.restore(snap)
        assert np.allclose(s.memory[0], 1.0)
        assert s.last_update[0] == 1.0

    def test_reset(self):
        s = VertexState(3, 2, 2)
        s.write_mail(np.array([1]), np.ones((1, 2)), np.array([4.0]))
        s.reset()
        assert not s.has_mail(np.array([1]))[0]
        assert np.allclose(s.mailbox, 0.0)

    def test_rows_copy_and_reset_without_touching_the_rest(self):
        src, dst = VertexState(3, 2, 2), VertexState(3, 2, 2)
        v = np.array([0, 1])
        src.write_memory(v, np.ones((2, 2)), np.array([1.0, 2.0]))
        src.write_mail(v, np.full((2, 2), 3.0), np.array([1.0, 2.0]))
        dst.copy_rows(src, np.array([1]))
        assert dst.has_mail(np.arange(3)).tolist() == [False, True, False]
        assert dst.memory[1].tolist() == [1.0, 1.0]
        assert dst.last_update.tolist() == [0.0, 2.0, 0.0]
        src.reset(1)
        assert src.has_mail(np.arange(3)).tolist() == [True, False, False]
        assert src.memory[1].tolist() == [0.0, 0.0]
        assert src.last_update.tolist() == [1.0, 0.0, 0.0]

    def test_memory_words(self):
        s = VertexState(10, 4, 6)
        assert s.memory_words() == 10 * (4 + 6 + 2)


class TestLastOccurrence:
    def test_unique_all_last(self):
        assert np.array_equal(last_occurrence(np.array([3, 1, 2])),
                              [True, True, True])

    def test_duplicates(self):
        mask = last_occurrence(np.array([1, 2, 1, 3, 2]))
        assert np.array_equal(mask, [False, False, True, True, True])

    def test_empty(self):
        assert len(last_occurrence(np.array([], dtype=int))) == 0
