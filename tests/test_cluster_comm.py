"""The MPI-like communicator: point-to-point, collectives, metering."""

import numpy as np
import pytest

from repro.cluster.comm import Comm
from repro.cluster.mailbox import MailboxRouter
from repro.cluster.spmd import run_spmd
from repro.errors import CommError


def pair():
    router = MailboxRouter(timeout=5)
    return Comm(0, 2, router), Comm(1, 2, router)


class TestPointToPoint:
    def test_send_recv(self):
        a, b = pair()
        a.send({"x": 1}, dest=1)
        assert b.recv(source=0) == {"x": 1}

    def test_fifo_order_per_tag(self):
        a, b = pair()
        for k in range(5):
            a.send(k, dest=1, tag=3)
        assert [b.recv(0, tag=3) for _ in range(5)] == list(range(5))

    def test_tags_independent(self):
        a, b = pair()
        a.send("late", 1, tag=1)
        a.send("early", 1, tag=2)
        assert b.recv(0, tag=2) == "early"
        assert b.recv(0, tag=1) == "late"

    def test_copy_on_send(self):
        a, b = pair()
        arr = np.zeros(3)
        a.send(arr, 1)
        arr[:] = 7
        assert np.all(b.recv(0) == 0)

    def test_copy_on_send_nested(self):
        a, b = pair()
        arrs = [np.zeros(2), np.ones(2)]
        a.send(arrs, 1)
        arrs[0][:] = 9
        got = b.recv(0)
        assert np.all(got[0] == 0)

    def test_self_send(self):
        a, _ = pair()
        a.send(42, dest=0)
        assert a.recv(source=0) == 42

    def test_bad_rank(self):
        a, _ = pair()
        with pytest.raises(CommError):
            a.send(1, dest=2)
        with pytest.raises(CommError):
            a.recv(source=-1)

    def test_recv_timeout_is_comm_error(self):
        router = MailboxRouter(timeout=0.2)
        c = Comm(0, 1, router)
        with pytest.raises(CommError, match="timed out"):
            c.recv(source=0, tag=9)


class TestCollectives:
    def test_bcast_non_root_payload_ignored(self):
        def prog(comm):
            return comm.bcast("truth" if comm.rank == 1 else "noise", root=1)

        assert run_spmd(3, prog).returns == ["truth"] * 3

    def test_gather_and_scatter(self):
        def prog(comm):
            got = comm.gather(comm.rank * 2, root=0)
            back = comm.scatter(
                [x + 1 for x in got] if comm.rank == 0 else None, root=0
            )
            return back

        assert run_spmd(4, prog).returns == [1, 3, 5, 7]

    def test_scatter_wrong_count(self):
        def prog(comm):
            comm.scatter([1], root=0)

        from repro.errors import SpmdError

        with pytest.raises(SpmdError):
            run_spmd(2, prog, timeout=5)

    def test_allgather(self):
        def prog(comm):
            return comm.allgather(chr(ord("a") + comm.rank))

        assert run_spmd(3, prog).returns == [["a", "b", "c"]] * 3

    def test_alltoall(self):
        def prog(comm):
            out = comm.alltoall([f"{comm.rank}->{d}" for d in range(comm.size)])
            return out

        res = run_spmd(3, prog)
        for me, got in enumerate(res.returns):
            assert got == [f"{src}->{me}" for src in range(3)]

    def test_alltoallv_lengths_and_values(self):
        def prog(comm):
            parts = [
                np.full(d + 1, comm.rank, dtype=np.int64)
                for d in range(comm.size)
            ]
            got = comm.alltoallv(parts)
            for src, arr in enumerate(got):
                assert len(arr) == comm.rank + 1
                assert np.all(arr == src)
            return True

        assert all(run_spmd(4, prog).returns)

    def test_alltoallv_empty_arrays_delivered(self):
        def prog(comm):
            parts = [np.empty(0, dtype=np.int64) for _ in range(comm.size)]
            got = comm.alltoallv(parts)
            return all(len(a) == 0 for a in got)

        assert all(run_spmd(3, prog).returns)

    def test_alltoallv_wrong_count(self):
        def prog(comm):
            comm.alltoallv([np.zeros(1)])

        from repro.errors import SpmdError

        with pytest.raises(SpmdError):
            run_spmd(2, prog, timeout=5)

    def test_allreduce_default_sum(self):
        def prog(comm):
            return comm.allreduce(comm.rank + 1)

        assert run_spmd(4, prog).returns == [10] * 4

    def test_allreduce_custom_op(self):
        def prog(comm):
            return comm.allreduce(comm.rank, op=max)

        assert run_spmd(4, prog).returns == [3] * 4

    def test_exscan(self):
        def prog(comm):
            return comm.exscan(10)

        assert run_spmd(4, prog).returns == [0, 10, 20, 30]

    def test_barrier_many_times(self):
        def prog(comm):
            for _ in range(20):
                comm.barrier()
            return comm.rank

        assert run_spmd(4, prog).returns == [0, 1, 2, 3]

    def test_collective_mismatch_detected(self):
        def prog(comm):
            if comm.rank == 0:
                comm.bcast("x", root=0)
            else:
                comm.allgather("y")

        from repro.errors import SpmdError

        with pytest.raises(SpmdError) as exc_info:
            run_spmd(2, prog, timeout=5)
        assert isinstance(exc_info.value.cause, CommError)


class TestStats:
    def test_network_vs_self_split(self):
        def prog(comm):
            comm.send(np.zeros(4, dtype=np.int64), dest=comm.rank)  # self: 32 B
            comm.send(np.zeros(2, dtype=np.int64), dest=(comm.rank + 1) % 2)
            comm.recv(source=comm.rank)
            comm.recv(source=(comm.rank + 1) % 2)
            return comm.stats.snapshot()

        res = run_spmd(2, prog)
        for snap in res.returns:
            assert snap["messages"] == 2
            assert snap["network_messages"] == 1
            assert snap["bytes"] == 32 + 16
            assert snap["network_bytes"] == 16

    def test_alltoallv_empty_not_metered(self):
        def prog(comm):
            parts = [np.empty(0, dtype=np.int64) for _ in range(comm.size)]
            parts[(comm.rank + 1) % comm.size] = np.zeros(4, dtype=np.int64)
            comm.alltoallv(parts)
            return comm.stats.snapshot()

        res = run_spmd(3, prog)
        for snap in res.returns:
            assert snap["by_op"].get("alltoallv", 0) == 1
            assert snap["network_bytes"] == 32

    def test_by_op_counters(self):
        def prog(comm):
            comm.barrier()
            comm.allgather(1)
            comm.allgather(2)
            return comm.stats.snapshot()

        snap = run_spmd(2, prog).returns[0]
        assert snap["by_op"]["barrier"] == 2
        assert snap["by_op"]["allgather"] == 4


class TestAlltoallvPacked:
    """The contiguous (packed) alltoallv fast path and its edge cases."""

    def test_mixed_empty_and_nonempty_partitions(self):
        def prog(comm):
            # Rank r sends r+1 records only to even destinations.
            parts = [
                np.full(comm.rank + 1, comm.rank, dtype=np.int64)
                if d % 2 == 0
                else np.empty(0, dtype=np.int64)
                for d in range(comm.size)
            ]
            got = comm.alltoallv(parts)
            if comm.rank % 2 == 0:
                return all(
                    len(a) == src + 1 and np.all(a == src)
                    for src, a in enumerate(got)
                )
            return all(len(a) == 0 for a in got)

        assert all(run_spmd(4, prog).returns)

    def test_all_empty_partitions(self):
        def prog(comm):
            got = comm.alltoallv(
                [np.empty(0, dtype=np.int64) for _ in range(comm.size)]
            )
            return all(len(a) == 0 for a in got)

        assert all(run_spmd(3, prog).returns)

    def test_single_rank_world(self):
        def prog(comm):
            got = comm.alltoallv([np.arange(5, dtype=np.int64)])
            ok = len(got) == 1 and np.array_equal(got[0], np.arange(5))
            snap = comm.stats.snapshot()
            return ok and snap["network_bytes"] == 0

        assert all(run_spmd(1, prog).returns)

    def test_structured_dtype_packs(self):
        from repro.records.format import RecordFormat

        fmt = RecordFormat("u8", 32)

        def prog(comm):
            parts = []
            for d in range(comm.size):
                part = fmt.empty(2)
                part["key"][:] = comm.rank * 100 + d
                parts.append(part)
            got = comm.alltoallv(parts)
            return all(
                np.all(a["key"] == src * 100 + comm.rank)
                for src, a in enumerate(got)
            )

        assert all(run_spmd(3, prog).returns)

    def test_receiver_mutation_does_not_leak(self):
        """Receivers get disjoint views of the packed buffer: mutating
        one received array must not corrupt what other ranks received,
        and must not reach back into the sender's input arrays."""

        def prog(comm):
            parts = [
                np.full(3, comm.rank * 10 + d, dtype=np.int64)
                for d in range(comm.size)
            ]
            got = comm.alltoallv(parts)
            got[0][:] = -1  # mutate the slice received from rank 0
            comm.barrier()  # everyone has mutated before anyone checks
            others_ok = all(
                np.all(got[src] == src * 10 + comm.rank)
                for src in range(1, comm.size)
            )
            mine_ok = all(
                np.all(parts[d] == comm.rank * 10 + d)
                for d in range(comm.size)
            )
            return others_ok and mine_ok

        assert all(run_spmd(3, prog).returns)

    def test_sender_mutation_after_send_is_isolated(self):
        def prog(comm):
            parts = [
                np.full(4, comm.rank, dtype=np.int64)
                for _ in range(comm.size)
            ]
            got_promise = comm.alltoallv(parts)
            for part in parts:
                part[:] = -7  # scribble after the collective
            comm.barrier()
            return all(
                np.all(a == src) for src, a in enumerate(got_promise)
            )

        assert all(run_spmd(3, prog).returns)

    def test_stats_parity_with_legacy_path(self):
        """CommStats meters payload bytes identically whether the
        collective packed or fell back to per-destination copies
        (parts of two dtypes cannot share one packed buffer)."""

        def prog(comm, dtypes):
            parts = [
                np.full(d + 1, comm.rank, dtype=dtypes[d % len(dtypes)])
                for d in range(comm.size)
            ]
            comm.alltoallv(parts)
            return comm.stats.snapshot()

        packed = run_spmd(3, prog, (np.int64,)).returns
        fallback = run_spmd(3, prog, (np.int64, np.uint64)).returns
        for snap_p, snap_f in zip(packed, fallback):
            for key in ("messages", "bytes", "network_messages",
                        "network_bytes", "by_op"):
                assert snap_p[key] == snap_f[key]

    def test_packed_path_meters_pack_and_transit(self):
        from repro.membuf import copy_stats

        def prog(comm):
            parts = [
                np.full(8, comm.rank, dtype=np.int64)
                for _ in range(comm.size)
            ]
            comm.alltoallv(parts)

        before = copy_stats().snapshot()
        run_spmd(2, prog)
        after = copy_stats().snapshot()
        # 2 ranks × 2 destinations × 64 B: every byte is packed (one
        # physical copy) and then transits the fabric as a view.
        moved = 2 * 2 * 8 * 8
        assert after["bytes_copied"] - before["bytes_copied"] == moved
        assert after["bytes_zero_copy"] - before["bytes_zero_copy"] >= moved
