"""Cross-backend transport conformance suite.

Every :class:`~repro.cluster.transport.Transport` must satisfy one
contract (DESIGN §11): same collective semantics, same byte-exact
``CommStats``, same failure taxonomy, same resilience hooks. These
tests run each requirement against every backend — and, where the
contract says "identical", against both at once.
"""

from __future__ import annotations

import pickle
import threading
import time

import numpy as np
import pytest

from repro.cluster import available_backends, get_transport, run_spmd
from repro.cluster.mailbox import MailboxRouter
from repro.cluster.process_backend import ProcessRouter, RemoteRankError, _Fabric
from repro.cluster.stats import CommStats
from repro.cluster.transport import ThreadTransport
from repro.errors import (
    AdmissionRejected,
    BudgetExceeded,
    CancelledError,
    CommError,
    ConfigError,
    CorruptionError,
    DeadlineExceeded,
    SpmdError,
    WatchdogTimeout,
)
from repro.governor import CancelToken
from repro.membuf import get_pool
from repro.resilience import FaultPlan, RetryPolicy
from repro.resilience.faults import FaultSpec

BACKENDS = available_backends()

pytestmark = pytest.mark.parametrize("backend", BACKENDS)


def run_both(size, program, *args, **kwargs):
    """Run the same program on every backend; return {backend: result}."""
    return {
        b: run_spmd(size, program, *args, backend=b, **kwargs) for b in BACKENDS
    }


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_get_transport_resolves_every_listed_backend(self, backend):
        assert get_transport(backend).name == backend

    def test_unknown_backend_rejected(self, backend):
        with pytest.raises(ConfigError, match="unknown transport backend"):
            get_transport("carrier-pigeon")
        with pytest.raises(ConfigError, match="unknown transport backend"):
            run_spmd(2, lambda comm: comm.rank, backend="carrier-pigeon")


# ---------------------------------------------------------------------------
# alltoallv: shapes, zero-length slices, dtypes
# ---------------------------------------------------------------------------


def _alltoallv_program(comm, counts, dtype):
    """Send counts[comm.rank][d] records to each d; return a digest."""
    parts = [
        (np.arange(counts[comm.rank][d], dtype=np.int64) + 1000 * comm.rank + d)
        .astype(dtype)
        for d in range(comm.size)
    ]
    got = comm.alltoallv(parts)
    return [g.tolist() for g in got]


class TestAlltoallv:
    @pytest.mark.parametrize(
        "counts",
        [
            [[3, 1, 2], [2, 2, 2], [5, 0, 1]],  # mixed, one zero-length
            [[0, 0, 0], [0, 0, 0], [0, 0, 0]],  # all empty
            [[0, 7, 0], [0, 0, 0], [9, 0, 0]],  # sparse
        ],
    )
    def test_shapes_and_zero_length(self, backend, counts):
        res = run_spmd(3, _alltoallv_program, counts, np.int64, backend=backend)
        for dest in range(3):
            got = res.returns[dest]
            for source in range(3):
                expect = [
                    int(v) + 1000 * source + dest
                    for v in range(counts[source][dest])
                ]
                assert got[source] == expect

    def test_structured_dtype(self, backend):
        dtype = np.dtype([("key", "<u8"), ("pad", "V24")])

        def program(comm):
            parts = []
            for d in range(comm.size):
                arr = np.zeros(comm.rank + d + 1, dtype=dtype)
                arr["key"] = np.arange(len(arr)) + 100 * comm.rank + d
                parts.append(arr)
            got = comm.alltoallv(parts)
            return [g["key"].tolist() for g in got]

        res = run_spmd(3, program, backend=backend)
        for dest in range(3):
            for source in range(3):
                n = source + dest + 1
                assert res.returns[dest][source] == [
                    v + 100 * source + dest for v in range(n)
                ]

    def test_receiver_may_mutate_without_corrupting_others(self, backend):
        def program(comm):
            parts = [
                np.full(4, comm.rank, dtype=np.int64) for _ in range(comm.size)
            ]
            got = comm.alltoallv(parts)
            got[0][:] = -1  # scribble over one received slice
            comm.barrier()
            return [int(g[0]) for g in got[1:]]

        res = run_spmd(3, program, backend=backend)
        # Every rank's scribble stayed local: slices from ranks 1, 2 intact.
        assert all(r == [1, 2] for r in res.returns)


# ---------------------------------------------------------------------------
# Point-to-point and collective semantics
# ---------------------------------------------------------------------------


class TestSemantics:
    def test_p2p_fifo_per_tag_any_order_across_tags(self, backend):
        def program(comm):
            if comm.rank == 0:
                for i in range(5):
                    comm.send(i, dest=1, tag=7)
                comm.send("other", dest=1, tag=9)
                return None
            if comm.rank == 1:
                other = comm.recv(0, tag=9)  # later send, earlier receive
                seq = [comm.recv(0, tag=7) for _ in range(5)]
                return (other, seq)
            return None

        res = run_spmd(2, program, backend=backend)
        assert res.returns[1] == ("other", [0, 1, 2, 3, 4])

    def test_collectives_roundtrip(self, backend):
        def program(comm):
            comm.barrier()
            word = comm.bcast("hello" if comm.rank == 0 else None)
            everyone = comm.allgather(comm.rank)
            total = comm.allreduce(comm.rank)
            prefix = comm.exscan(1)
            return (word, everyone, total, prefix)

        res = run_spmd(3, program, backend=backend)
        for p, r in enumerate(res.returns):
            assert r[0] == "hello"
            assert r[1] == [0, 1, 2]
            assert r[2] == 3
            assert r[3] == p

    def test_collective_mismatch_is_commerror_not_deadlock(self, backend):
        def program(comm):
            if comm.rank == 0:
                comm.bcast("x")
            else:
                comm.barrier()
            return comm.rank

        with pytest.raises(SpmdError) as err:
            run_spmd(2, program, backend=backend, timeout=10)
        assert isinstance(err.value.cause, CommError)
        assert "collective mismatch" in str(err.value.cause)

    def test_receive_timeout_is_commerror(self, backend):
        def program(comm):
            if comm.rank == 1:
                return comm.recv(0, tag=3)  # nobody ever sends
            return None

        with pytest.raises(SpmdError) as err:
            run_spmd(2, program, backend=backend, timeout=0.5)
        assert isinstance(err.value.cause, CommError)
        assert "timed out" in str(err.value.cause)

    def test_message_tables_stay_bounded(self, backend):
        """Every collective sends on a fresh tag, so a router that kept
        its drained queues would hold P² more entries per collective."""
        p = 4

        def program(comm):
            parts = [np.arange(3) for _ in range(comm.size)]
            for _ in range(500):
                comm.alltoallv(parts)
                comm.barrier()
            router = comm._router
            if isinstance(router, MailboxRouter):
                return len(router._queues)
            return len(router._local)

        res = run_spmd(p, program, backend=backend)
        assert max(res.returns) <= 2 * p * p

    def test_subcommunicator_split(self, backend):
        def program(comm):
            sub = comm.split(color=comm.rank % 2)
            return sub.allgather(comm.rank)

        res = run_spmd(4, program, backend=backend)
        assert res.returns == [[0, 2], [1, 3], [0, 2], [1, 3]]


# ---------------------------------------------------------------------------
# Accounting: CommStats byte-exact across backends, oob ops unmetered,
# lease hygiene
# ---------------------------------------------------------------------------


def _mixed_traffic_program(comm):
    parts = [
        np.arange(8 * (d + 1), dtype=np.int64) for d in range(comm.size)
    ]
    comm.alltoallv(parts)
    comm.send(np.ones(16, dtype=np.int64), dest=(comm.rank + 1) % comm.size)
    comm.recv((comm.rank - 1) % comm.size)
    comm.bcast(b"control" if comm.rank == 0 else None)
    comm.barrier()
    return comm.stats.snapshot()


class TestAccounting:
    def test_commstats_byte_identical_across_backends(self, backend):
        del backend  # cross-backend by construction
        results = run_both(4, _mixed_traffic_program)
        reference = [s.snapshot() for s in results[BACKENDS[0]].stats]
        for b in BACKENDS[1:]:
            assert [s.snapshot() for s in results[b].stats] == reference
        # The returned (in-program) snapshots agree with the merged ones.
        for b, res in results.items():
            assert res.returns == [s.snapshot() for s in res.stats]

    def test_oob_ops_are_unmetered(self, backend):
        def program(comm):
            before = comm.stats.snapshot()
            comm.gather_oob({"rank": comm.rank})
            comm.barrier_oob()
            return comm.stats.snapshot() == before

        res = run_spmd(3, program, backend=backend)
        assert all(res.returns)

    def test_gather_oob_delivers_in_rank_order(self, backend):
        def program(comm):
            return comm.gather_oob(("payload", comm.rank))

        res = run_spmd(3, program, backend=backend)
        assert res.returns[0] == [("payload", p) for p in range(3)]
        assert res.returns[1] is None and res.returns[2] is None

    def test_arena_counters_operational_byte_meters_identical(self, backend):
        """The arena/attach/landing counters are transport-operational:
        zero on the thread backend (no segments exist), nonzero on the
        process backend for packed alltoallv traffic — while the
        data-plane *byte* meters stay identical across backends."""
        del backend  # cross-backend by construction
        from repro.membuf import ARENA_KEYS, CopyStats, copy_stats

        deltas = {}
        for b in BACKENDS:
            before = copy_stats().snapshot()
            run_spmd(3, _mixed_traffic_program, backend=b)
            deltas[b] = CopyStats.delta(before, copy_stats().snapshot())
        reference = deltas[BACKENDS[0]]
        for b in BACKENDS[1:]:
            for key in ("bytes_copied", "bytes_zero_copy"):
                assert deltas[b][key] == reference[key], (
                    f"{key} diverged on {b}"
                )
        assert all(deltas["thread"][k] == 0 for k in ARENA_KEYS)
        if "process" in BACKENDS:
            proc = deltas["process"]
            assert proc["arena_misses"] > 0
            assert proc["attach_count"] > 0
            assert proc["bytes_landed_zero_extra_copy"] > 0

    def test_no_leases_leak_across_a_run(self, backend):
        pool = get_pool()
        baseline = pool.outstanding()

        def program(comm):
            parts = [np.arange(64, dtype=np.int64) for _ in range(comm.size)]
            comm.alltoallv(parts)
            comm.send(np.arange(32, dtype=np.int64), dest=(comm.rank + 1) % 2)
            comm.recv((comm.rank + 1) % 2)
            return True

        run_spmd(2, program, backend=backend)
        assert pool.outstanding() == baseline


# ---------------------------------------------------------------------------
# Failures: propagation, surrogates, cancellation, watchdog, retries
# ---------------------------------------------------------------------------


class _Unpicklable(Exception):
    """Round-trip-hostile: constructor signature != args."""

    def __init__(self, a, b):
        super().__init__(f"{a}/{b}")


class TestFailures:
    def test_rank_failure_keeps_type_and_rank(self, backend):
        def program(comm):
            comm.barrier()
            if comm.rank == 1:
                raise ValueError("deliberate")
            comm.barrier()

        with pytest.raises(SpmdError) as err:
            run_spmd(3, program, backend=backend, timeout=10)
        assert err.value.rank == 1
        assert isinstance(err.value.cause, ValueError)
        assert "deliberate" in str(err.value.cause)

    def test_unpicklable_failure_becomes_surrogate_on_process(self, backend):
        def program(comm):
            if comm.rank == 0:
                raise _Unpicklable("x", "y")
            comm.recv(0)

        with pytest.raises(SpmdError) as err:
            run_spmd(2, program, backend=backend, timeout=10)
        assert err.value.rank == 0
        if backend == "thread":
            assert isinstance(err.value.cause, _Unpicklable)
        else:
            # The type cannot cross the process boundary; the surrogate
            # names it and carries the traceback.
            assert isinstance(err.value.cause, RemoteRankError)
            assert "_Unpicklable" in str(err.value.cause)

    def test_cancellation_unwrapped(self, backend):
        token = CancelToken()

        def program(comm, tok):
            comm.barrier()
            if comm.rank == 0:
                tok.cancel("enough")
            while True:
                tok.check()
                time.sleep(0.01)

        with pytest.raises(CancelledError):
            run_spmd(
                3, program, token, backend=backend, cancel=token, timeout=10
            )

    def test_deadline_exceeded_keeps_type(self, backend):
        token = CancelToken(deadline_s=0.3)

        def program(comm, tok):
            while True:
                tok.check()
                time.sleep(0.01)

        with pytest.raises(DeadlineExceeded):
            run_spmd(
                2, program, token, backend=backend, cancel=token, timeout=10
            )

    def test_watchdog_names_a_stuck_world(self, backend):
        def program(comm):
            comm.recv((comm.rank + 1) % comm.size)  # everyone waits forever

        with pytest.raises(SpmdError) as err:
            run_spmd(
                2, program, backend=backend, timeout=60, watchdog_deadline=0.6
            )
        assert isinstance(err.value.cause, WatchdogTimeout)

    def test_comm_fault_retried_and_counted(self, backend):
        plan = FaultPlan(
            [FaultSpec(op="comm", probability=1.0, count=1, transient=True)]
        )

        def program(comm):
            comm.barrier()
            return comm.rank

        res = run_spmd(
            2,
            program,
            backend=backend,
            fault_plan=plan,
            retry_policy=RetryPolicy(max_attempts=3, base_delay_s=0.001),
        )
        assert res.returns == [0, 1]
        # Fault-plan state is per address space, so the retry *count*
        # may differ between backends (each forked rank fires its own
        # nth-op trigger); the contract is that retries happen and are
        # surfaced, not their exact number.
        assert res.comm_retries >= 1

    def test_size_one_runs_inline(self, backend):
        def program(comm):
            return (comm.rank, comm.size, threading.current_thread().name)

        res = run_spmd(1, program, backend=backend)
        rank, size, thread_name = res.returns[0]
        assert (rank, size) == (0, 1)
        assert thread_name == "MainThread"  # inline on every backend


# ---------------------------------------------------------------------------
# Error pickling: the process transport's failure channel
# ---------------------------------------------------------------------------


ERROR_SAMPLES = [
    CorruptionError(2, "col-3", [(0, 4096), (8192, 4096)], repairable=True),
    SpmdError(3, ValueError("inner")),
    WatchdogTimeout(1, 12.5, 10.0),
    CancelledError("user said stop"),
    DeadlineExceeded(2.5),
    BudgetExceeded(1024, 512, 400, "backpressure timeout"),
    AdmissionRejected("queue_full", "3 jobs waiting"),
]


class TestErrorPickling:
    @pytest.mark.parametrize(
        "exc", ERROR_SAMPLES, ids=lambda e: type(e).__name__
    )
    def test_roundtrip_preserves_type_attrs_message(self, backend, exc):
        del backend  # backend-independent, but part of the contract
        clone = pickle.loads(pickle.dumps(exc))
        assert type(clone) is type(exc)
        assert str(clone) == str(exc)
        for attr, value in vars(exc).items():
            cloned = getattr(clone, attr)
            if isinstance(value, BaseException):
                assert type(cloned) is type(value) and str(cloned) == str(value)
            else:
                assert cloned == value


# ---------------------------------------------------------------------------
# Activity stamps: monotonic under concurrent / out-of-order delivery
# ---------------------------------------------------------------------------


class TestActivityStamps:
    def _router_for(self, backend):
        if backend == "thread":
            return MailboxRouter(timeout=5.0)
        return ProcessRouter(_Fabric(4, timeout=5.0), rank=0)

    def test_stale_stamp_never_moves_activity_backwards(self, backend):
        router = self._router_for(backend)
        now = time.monotonic()
        router.touch(2, stamp=now)
        router.touch(2, stamp=now - 10.0)  # stale delivery
        assert router.activity()[2] == pytest.approx(now)
        router.touch(2, stamp=now + 5.0)
        assert router.activity()[2] == pytest.approx(now + 5.0)

    def test_concurrent_touches_end_at_global_max(self, backend):
        router = self._router_for(backend)
        base = time.monotonic()
        stamps = [base + i * 1e-4 for i in range(400)]

        def worker(chunk):
            for s in chunk:
                router.touch(1, stamp=s)

        threads = [
            threading.Thread(target=worker, args=(stamps[i::4],))
            for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert router.activity()[1] == pytest.approx(max(stamps))

    def test_live_touch_supersedes_old_explicit_stamp(self, backend):
        router = self._router_for(backend)
        router.touch(0, stamp=time.monotonic() - 30.0)
        router.touch(0)  # a real delivery happening now
        assert time.monotonic() - router.activity()[0] < 5.0


# ---------------------------------------------------------------------------
# SpmdResult surface
# ---------------------------------------------------------------------------


class TestResultSurface:
    def test_returns_and_stats_in_rank_order(self, backend):
        def program(comm, offset):
            comm.send(np.arange(4, dtype=np.int64), (comm.rank + 1) % comm.size)
            comm.recv((comm.rank - 1) % comm.size)
            return comm.rank + offset

        res = run_spmd(
            3, program, rank_args=[(10,), (20,), (30,)], backend=backend
        )
        assert res.returns == [10, 21, 32]
        assert [s.rank for s in res.stats] == [0, 1, 2]
        totals = CommStats.total(s.snapshot() for s in res.stats)
        assert totals["network_messages"] == 3
        assert totals["network_bytes"] == 3 * 32

    def test_rank_args_length_validated(self, backend):
        with pytest.raises(ConfigError, match="rank_args"):
            run_spmd(3, lambda comm: None, rank_args=[(1,)], backend=backend)

    def test_thread_transport_is_the_default(self, backend):
        del backend
        assert get_transport("thread").__class__ is ThreadTransport
        assert BACKENDS[0] == "thread"


# ---------------------------------------------------------------------------
# The caller's disks after a run
# ---------------------------------------------------------------------------


class TestCallerDiskState:
    """The ranks of a non-shared-memory backend own the only up-to-date
    disk sizes and checksum catalogs while they run; once ``run``
    returns — or raises — the caller's disks must describe what is on
    disk, as they do on the shared-memory backend."""

    def test_output_read_back_is_fully_verified(self, backend):
        from repro import ClusterConfig, RecordFormat, generate, sort_out_of_core

        fmt = RecordFormat("u8", 64)
        recs = generate("uniform", fmt, 8192, seed=1)
        res = sort_out_of_core(
            "threaded", recs, ClusterConfig(p=2, mem_per_proc=2**12), fmt,
            buffer_records=512, backend=backend, verify=False,
        )
        disks = res.output.disks
        for disk in disks:
            for name in disk.files():
                assert disk.size(name) > 0
                assert disk.checksums.extents(name)
        before = sum(d.stats.snapshot()["bytes_hashed"] for d in disks)
        res.output_records()
        after = sum(d.stats.snapshot()["bytes_hashed"] for d in disks)
        # The same number on every backend: every byte read is hashed.
        assert after - before == len(recs) * 64

    def test_failed_cohort_still_leaves_current_disk_state(
        self, backend, tmp_path
    ):
        from repro.disks.virtual_disk import make_disk_array

        disks = make_disk_array(tmp_path, 2)

        def program(comm, disks):
            disk = disks[comm.rank]
            disk.write_at("obj", 0, bytes([65 + comm.rank]) * 96)
            disk.flush()
            comm.barrier()
            if comm.rank == 1:
                raise ValueError("rank 1 gives up")

        with pytest.raises(SpmdError):
            run_spmd(2, program, disks, backend=backend, disks=disks)
        for rank, disk in enumerate(disks):
            assert disk.files() == ["obj"]
            assert disk.size("obj") == 96
            assert [e[:2] for e in disk.checksums.extents("obj")] == [(0, 96)]
            assert disk.read_at("obj", 0, 96) == bytes([65 + rank]) * 96
