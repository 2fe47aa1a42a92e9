"""The pipeline simulator, against hand-computed schedules."""

import pytest

from repro.errors import ConfigError
from repro.simulate.des import PipelineSimulator
from repro.simulate.hardware import HardwareModel
from repro.simulate.trace import PassTrace, RoundWork, StageSpec

#: A hardware model where costs are literal: 1 byte of disk work = 1 s,
#: no overheads — so schedules are hand-checkable integers.
UNIT = HardwareModel(
    name="unit",
    disk_bandwidth=1.0,
    disk_access_overhead=0.0,
    net_bandwidth=1.0,
    net_latency=0.0,
    sync_factor=1.0,
    sort_ops_per_sec=1e18,  # sorts are free
    mem_bandwidth=1.0,
    stage_overhead=0.0,
    ram_bytes=2**30,
)


def trace(stages, works):
    """Build a PassTrace from [(name, kind, thread)] and per-round work
    dicts."""
    return PassTrace(
        name="t",
        stages=[StageSpec(*s) for s in stages],
        rounds=[RoundWork(work=w) for w in works],
    )


class TestHandSchedules:
    def test_single_stage_serializes(self):
        t = trace([("r", "read", "io")], [{"r": 5}] * 3)
        res = PipelineSimulator(UNIT, max_inflight=4).run(t)
        assert res.makespan == 15
        assert res.thread_busy["io"] == 15

    def test_two_threads_overlap(self):
        # read 4s, permute 4s on different threads: pipeline of 3 rounds
        # = 4 (fill) + 3·4 = 16.
        t = trace(
            [("r", "read", "io"), ("p", "permute", "mem")],
            [{"r": 4, "p": 4}] * 3,
        )
        res = PipelineSimulator(UNIT, max_inflight=4).run(t)
        assert res.makespan == 16

    def test_same_thread_no_overlap(self):
        # read + write share the io thread: 3 rounds × (4+4).
        t = trace(
            [("r", "read", "io"), ("w", "write", "io")],
            [{"r": 4, "w": 4}] * 3,
        )
        res = PipelineSimulator(UNIT, max_inflight=4).run(t)
        assert res.makespan == 24

    def test_bottleneck_thread_dominates(self):
        # slow middle stage (10s) between fast io stages (1s each).
        t = trace(
            [("r", "read", "io"), ("s", "permute", "mem"), ("w", "write", "io")],
            [{"r": 1, "s": 10, "w": 1}] * 4,
        )
        res = PipelineSimulator(UNIT, max_inflight=8).run(t)
        # fill 1 + 4×10 + drain 1 = 42.
        assert res.makespan == 42
        assert res.bottleneck_thread == "mem"

    def test_inflight_one_serializes_rounds(self):
        t = trace(
            [("r", "read", "io"), ("p", "permute", "mem")],
            [{"r": 4, "p": 4}] * 3,
        )
        res = PipelineSimulator(UNIT, max_inflight=1).run(t)
        assert res.makespan == 24  # no overlap at all

    def test_io_thread_interleaves_read_and_write(self):
        """read(t+1) runs while round t sits in the long middle stage —
        the io thread must not idle waiting for write(t)."""
        t = trace(
            [("r", "read", "io"), ("s", "permute", "mem"), ("w", "write", "io")],
            [{"r": 2, "s": 100, "w": 2}] * 2,
        )
        res = PipelineSimulator(UNIT, max_inflight=4).run(t)
        # reads at 0-2 and 2-4; s(0) 2-102; w(0) 102-104; s(1) 102-202;
        # w(1) 202-204. Without interleaving it would be 206+.
        assert res.makespan == 204

    def test_empty_trace(self):
        t = trace([("r", "read", "io")], [])
        assert PipelineSimulator(UNIT).run(t).makespan == 0


class TestInvariants:
    def _any_trace(self):
        return trace(
            [
                ("r", "read", "io"),
                ("c", "comm", "net"),
                ("w", "write", "io"),
            ],
            [{"r": 3, "c": 2, "w": 3}] * 5,
        )

    def test_makespan_at_least_busiest_thread(self):
        res = PipelineSimulator(UNIT, max_inflight=8).run(self._any_trace())
        assert res.makespan >= max(res.thread_busy.values())

    def test_makespan_at_most_serial_time(self):
        t = self._any_trace()
        res = PipelineSimulator(UNIT, max_inflight=8).run(t)
        serial = sum(sum(rw.work.values()) for rw in t.rounds)
        assert res.makespan <= serial

    def test_more_inflight_never_slower(self):
        t = self._any_trace()
        times = [
            PipelineSimulator(UNIT, max_inflight=k).run(t).makespan for k in (1, 2, 4, 8)
        ]
        assert times == sorted(times, reverse=True)

    def test_stage_totals_sum_to_thread_busy(self):
        res = PipelineSimulator(UNIT, max_inflight=4).run(self._any_trace())
        assert res.thread_busy["io"] == pytest.approx(
            res.stage_total["r"] + res.stage_total["w"]
        )

    def test_utilization_bounded(self):
        res = PipelineSimulator(UNIT, max_inflight=4).run(self._any_trace())
        for thread in res.thread_busy:
            assert 0 < res.utilization(thread) <= 1

    def test_invalid_inflight(self):
        with pytest.raises(ConfigError):
            PipelineSimulator(UNIT, max_inflight=0)


class TestHardwareCosts:
    def test_stage_kinds_priced(self):
        hw = HardwareModel(stage_overhead=0.0, disk_access_overhead=0.0)
        read = StageSpec("r", "read", "io")
        assert hw.stage_seconds(read, 100e6) == pytest.approx(2.0)
        comm = StageSpec("c", "comm", "net")
        assert hw.stage_seconds(comm, 100e6, messages=10) == pytest.approx(
            1.0 + 10 * hw.net_latency
        )
        sort = StageSpec("s", "sort", "cpu")
        assert hw.stage_seconds(sort, 0) == 0.0

    def test_sync_factor_multiplies_comm(self):
        base = HardwareModel(sync_factor=1.0, stage_overhead=0.0)
        synced = HardwareModel(sync_factor=2.0, stage_overhead=0.0)
        comm = StageSpec("c", "comm", "net")
        assert synced.stage_seconds(comm, 1e6) == pytest.approx(
            2 * base.stage_seconds(comm, 1e6)
        )

    def test_negative_work_rejected(self):
        with pytest.raises(ConfigError):
            HardwareModel().stage_seconds(StageSpec("r", "read", "io"), -1)

    def test_invalid_rates_rejected(self):
        with pytest.raises(ConfigError):
            HardwareModel(disk_bandwidth=0)

    def test_buffers_available(self):
        hw = HardwareModel(ram_bytes=2**30)
        assert hw.buffers_available(2**25) == 32
        assert hw.buffers_available(2**40) == 2  # floor of 2
