"""The SPMD launcher: results, failures, per-rank arguments."""

import threading

import numpy as np
import pytest

from repro.cluster.config import ClusterConfig
from repro.cluster.spmd import run_spmd
from repro.cluster.stats import combined
from repro.errors import CommError, ConfigError, SpmdError


class TestLaunch:
    def test_returns_in_rank_order(self):
        res = run_spmd(4, lambda comm: comm.rank * 10)
        assert res.returns == [0, 10, 20, 30]

    def test_shared_args(self):
        res = run_spmd(2, lambda comm, a, b: a + b + comm.rank, 100, b=1)
        assert res.returns == [101, 102]

    def test_rank_args(self):
        res = run_spmd(
            3, lambda comm, extra: (comm.rank, extra), rank_args=[("a",), ("b",), ("c",)]
        )
        assert res.returns == [(0, "a"), (1, "b"), (2, "c")]

    def test_rank_args_wrong_length(self):
        with pytest.raises(ConfigError):
            run_spmd(3, lambda comm: None, rank_args=[()])

    def test_zero_ranks_rejected(self):
        with pytest.raises(ConfigError):
            run_spmd(0, lambda comm: None)

    def test_single_rank_runs_inline(self):
        main_thread = threading.current_thread()

        def prog(comm):
            return threading.current_thread() is main_thread

        assert run_spmd(1, prog).returns == [True]

    def test_multi_rank_runs_on_threads(self):
        def prog(comm):
            return threading.current_thread().name

        names = run_spmd(3, prog).returns
        assert names == [f"spmd-rank-{p}" for p in range(3)]

    def test_ranks_actually_communicate(self):
        def prog(comm):
            total = comm.allreduce(np.array([comm.rank]))
            return int(total[0])

        assert run_spmd(5, prog).returns == [10] * 5


class TestFailures:
    def test_failure_carries_rank_and_cause(self):
        def prog(comm):
            if comm.rank == 2:
                raise ValueError("kapow")
            comm.barrier()

        with pytest.raises(SpmdError) as exc_info:
            run_spmd(4, prog, timeout=5)
        assert exc_info.value.rank == 2
        assert isinstance(exc_info.value.cause, ValueError)

    def test_failure_unblocks_waiting_ranks_quickly(self):
        """Ranks blocked in recv are released by the shutdown, not the
        full deadlock timeout."""
        import time

        def prog(comm):
            if comm.rank == 0:
                raise RuntimeError("early death")
            comm.recv(source=0)

        t0 = time.monotonic()
        with pytest.raises(SpmdError):
            run_spmd(3, prog, timeout=60)
        assert time.monotonic() - t0 < 10

    def test_collateral_comm_errors_not_reported_as_primary(self):
        def prog(comm):
            if comm.rank == 1:
                raise KeyError("root cause")
            comm.recv(source=1)

        with pytest.raises(SpmdError) as exc_info:
            run_spmd(2, prog, timeout=5)
        assert exc_info.value.rank == 1
        assert isinstance(exc_info.value.cause, KeyError)

    def test_deadlock_times_out(self):
        def prog(comm):
            comm.recv(source=(comm.rank + 1) % comm.size)  # everyone waits

        with pytest.raises(SpmdError) as exc_info:
            run_spmd(2, prog, timeout=0.5)
        assert isinstance(exc_info.value.cause, CommError)


class TestStatsAggregation:
    def test_result_totals(self):
        def prog(comm):
            comm.send(np.zeros(8, dtype=np.int64), dest=(comm.rank + 1) % comm.size)
            comm.recv(source=(comm.rank - 1) % comm.size)

        res = run_spmd(4, prog)
        totals = combined(res.stats)
        assert totals["network_messages"] == 4
        assert totals["network_bytes"] == 4 * 64


class TestClusterConfig:
    def test_defaults(self):
        cfg = ClusterConfig(p=4)
        assert cfg.d == 4
        assert cfg.m == 4 * 2**20

    def test_virtual_disks_when_fewer_physical(self):
        cfg = ClusterConfig(p=8, d=2, mem_per_proc=2**10)
        assert cfg.virtual_disks == 8

    def test_disks_of_round_robin(self):
        cfg = ClusterConfig(p=2, d=8, mem_per_proc=2**10)
        assert list(cfg.disks_of(0)) == [0, 2, 4, 6]
        assert list(cfg.disks_of(1)) == [1, 3, 5, 7]

    def test_owners(self):
        cfg = ClusterConfig(p=4, d=4, mem_per_proc=2**10)
        assert cfg.owner_of_disk(3) == 3

    def test_validation(self):
        with pytest.raises(ConfigError):
            ClusterConfig(p=3)
        with pytest.raises(ConfigError):
            ClusterConfig(p=4, d=6)
        with pytest.raises(ConfigError):
            ClusterConfig(p=4, mem_per_proc=1000)
        with pytest.raises(ConfigError):
            ClusterConfig(p=2).check_rank(2)
        with pytest.raises(ConfigError):
            ClusterConfig(p=2).owner_of_disk(5)
