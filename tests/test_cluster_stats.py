"""Communication statistics: payload sizing and aggregation."""

import numpy as np

from repro.cluster.stats import CommStats, payload_nbytes


class TestPayloadSizing:
    def test_numpy_arrays_exact(self):
        assert payload_nbytes(np.zeros(10, dtype=np.int64)) == 80
        assert payload_nbytes(np.zeros(0, dtype=np.float32)) == 0

    def test_structured_arrays_exact(self):
        from repro.records.format import RecordFormat

        fmt = RecordFormat("u8", 64)
        assert payload_nbytes(fmt.empty(5)) == 320

    def test_bytes_like(self):
        assert payload_nbytes(b"abcd") == 4
        assert payload_nbytes(bytearray(7)) == 7
        assert payload_nbytes(memoryview(b"xy")) == 2

    def test_containers_recurse(self):
        payload = [np.zeros(2, dtype=np.int64), (b"abc", np.zeros(1))]
        assert payload_nbytes(payload) == 16 + 3 + 8

    def test_control_plane_objects_are_free(self):
        assert payload_nbytes(None) == 0
        assert payload_nbytes({"op": "barrier"}) == 0
        assert payload_nbytes(42) == 0


class TestCommStats:
    def test_self_vs_network_accounting(self):
        stats = CommStats(rank=2)
        stats.record_send(2, np.zeros(4, dtype=np.int64), "send")  # self
        stats.record_send(0, np.zeros(2, dtype=np.int64), "send")  # network
        snap = stats.snapshot()
        assert snap["messages"] == 2
        assert snap["network_messages"] == 1
        assert snap["bytes"] == 48
        assert snap["network_bytes"] == 16

    def test_by_op_breakdown(self):
        stats = CommStats(rank=0)
        for _ in range(3):
            stats.record_send(1, b"", "alltoallv")
        stats.record_send(1, b"", "send")
        assert stats.snapshot()["by_op"] == {"alltoallv": 3, "send": 1}

    def test_combined(self):
        a, b = CommStats(rank=0), CommStats(rank=1)
        a.record_send(1, b"1234", "send")
        b.record_send(1, b"12", "send")  # self for rank 1
        total = CommStats.total([a.snapshot(), b.snapshot()])
        assert total["messages"] == 2
        assert total["bytes"] == 6
        assert total["network_messages"] == 1
        assert total["network_bytes"] == 4

    def test_snapshot_is_isolated_copy(self):
        stats = CommStats(rank=0)
        stats.record_send(0, b"x", "send")
        snap = stats.snapshot()
        snap["by_op"]["send"] = 99
        assert stats.snapshot()["by_op"]["send"] == 1
