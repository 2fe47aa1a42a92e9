"""The one counter type (repro.telemetry.Counters): snapshot, delta,
merge and total, for counters and for high-water marks."""

from repro.cluster.stats import CommStats
from repro.telemetry import Counters


class Meter(Counters):
    KEYS = ("ops", "peak")
    PEAKS = ("peak",)


def test_counters_subtract_add_and_sum_peaks_take_the_later_or_larger():
    assert Meter().snapshot() == {"ops": 0, "peak": 0}
    assert Meter.delta({"ops": 2, "peak": 9}, {"ops": 5, "peak": 4}) == {
        "ops": 3, "peak": 4,
    }
    meter = Meter()
    meter.merge({"ops": 3, "peak": 4})
    meter.merge({"ops": 1, "peak": 2})
    meter.merge({})  # a rank that reported nothing adds nothing
    assert meter.snapshot() == {"ops": 4, "peak": 4}
    assert Meter.total([{"ops": 1, "peak": 7}, {"ops": 2, "peak": 3}]) == {
        "ops": 3, "peak": 7,
    }


def test_comm_merge_carries_the_per_operation_breakdown():
    sent = CommStats(rank=1)
    sent.record_send(0, b"1234", "alltoallv")
    sent.record_send(1, b"12", "send")
    home = CommStats(rank=1)
    home.merge(sent.snapshot())
    assert home.snapshot() == sent.snapshot()
    assert CommStats.total([home.snapshot(), sent.snapshot()]) == {
        "messages": 4, "bytes": 12, "network_messages": 2, "network_bytes": 8,
    }
