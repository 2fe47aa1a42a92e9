"""The overlapped pass pipeline: buffer-pool contracts, depth
equivalence, deadlock regression, and thread hygiene.

The pipeline's load-bearing promise is that depth only changes *when*
I/O happens, never *what* is computed — so every algorithm must produce
byte-identical output at every depth, and a fault or stall inside a
pool thread must surface as a structured error with no threads left
behind.
"""

from __future__ import annotations

import threading
import time
from functools import partial

import numpy as np
import pytest

from repro.cluster.config import ClusterConfig
from repro.cluster.spmd import run_spmd
from repro.disks.iostats import IoStats
from repro.disks.matrixfile import ColumnStore
from repro.disks.virtual_disk import make_disk_array
from repro.errors import ConfigError, DiskFullError, PipelineError, SpmdError
from repro.oocs.api import sort_out_of_core
from repro.oocs.base import OocJob, make_workspace, pass_step2_deal
from repro.pipeline import (
    CATEGORIES,
    COMPUTE,
    READ_WAIT,
    SYNCHRONOUS,
    PipelinePlan,
    ReadAhead,
    StageClock,
    WriteBehind,
)
from repro.records.format import RecordFormat
from repro.records.generators import generate
from repro.simulate.trace import PassTrace, RunTrace

FMT = RecordFormat("u8", 16)


def pipeline_threads() -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.name.startswith("pipeline-")]


def assert_no_pipeline_threads(deadline_s: float = 5.0) -> None:
    """Poll until every pool worker is gone (close() joins with a
    timeout, so allow a grace period before declaring a leak)."""
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        if not pipeline_threads():
            return
        time.sleep(0.01)
    raise AssertionError(f"leaked pipeline threads: {pipeline_threads()}")


# -- plan --------------------------------------------------------------------


class TestPipelinePlan:
    def test_synchronous_is_depth_zero(self):
        assert SYNCHRONOUS.depth == 0

    def test_negative_depth_rejected(self):
        with pytest.raises(ConfigError):
            PipelinePlan(depth=-1)

    def test_nonpositive_timeout_rejected(self):
        with pytest.raises(ConfigError):
            PipelinePlan(depth=1, timeout=0)

    def test_job_rejects_negative_depth(self):
        cluster = ClusterConfig(p=2, mem_per_proc=2**10)
        with pytest.raises(ConfigError):
            OocJob(cluster=cluster, fmt=FMT, n=128, buffer_records=32,
                   pipeline_depth=-1)

    def test_job_plan_roundtrip(self):
        cluster = ClusterConfig(p=2, mem_per_proc=2**10)
        job = OocJob(cluster=cluster, fmt=FMT, n=128, buffer_records=32,
                     pipeline_depth=3)
        assert job.pipeline_plan().depth == 3
        job0 = OocJob(cluster=cluster, fmt=FMT, n=128, buffer_records=32)
        assert job0.pipeline_plan() is SYNCHRONOUS


# -- read-ahead --------------------------------------------------------------


class TestReadAhead:
    @pytest.mark.parametrize("depth", [0, 1, 2, 4])
    def test_results_delivered_in_submission_order(self, depth):
        tasks = [partial(lambda k: k, k) for k in range(10)]
        reader = ReadAhead(tasks, PipelinePlan(depth=depth))
        try:
            assert [reader.get() for _ in range(10)] == list(range(10))
        finally:
            reader.close()

    def test_worker_error_reraised_as_same_object(self):
        boom = DiskFullError("disk 0 full")

        def fail():
            raise boom

        tasks = [partial(lambda: 1), fail, partial(lambda: 3)]
        reader = ReadAhead(tasks, PipelinePlan(depth=2))
        try:
            assert reader.get() == 1
            with pytest.raises(DiskFullError) as exc_info:
                reader.get()
            assert exc_info.value is boom
        finally:
            reader.close()
        assert_no_pipeline_threads()

    def test_get_past_end_raises(self):
        reader = ReadAhead([partial(lambda: 1)], SYNCHRONOUS)
        assert reader.get() == 1
        with pytest.raises(PipelineError):
            reader.get()

    def test_close_is_idempotent_and_unblocks_producer(self):
        # Five tasks behind a depth-1 queue, none consumed: the worker is
        # blocked on a full queue when close() arrives.
        tasks = [partial(lambda k: k, k) for k in range(5)]
        reader = ReadAhead(tasks, PipelinePlan(depth=1))
        time.sleep(0.05)  # let the worker fill the queue
        reader.close()
        reader.close()
        assert_no_pipeline_threads()

    def test_stalled_read_times_out_with_pipeline_error(self):
        release = threading.Event()

        def stalled():
            release.wait()
            return 42

        reader = ReadAhead([stalled], PipelinePlan(depth=1, timeout=0.3))
        try:
            with pytest.raises(PipelineError, match="stalled"):
                reader.get()
        finally:
            release.set()
            reader.close()
        assert_no_pipeline_threads()

    def test_read_wait_recorded(self):
        clock = StageClock()
        reader = ReadAhead([partial(lambda: 7)], SYNCHRONOUS, clock)
        reader.get()
        assert clock.totals[READ_WAIT] >= 0


# -- write-behind ------------------------------------------------------------


class TestWriteBehind:
    @pytest.mark.parametrize("depth", [0, 1, 2, 4])
    def test_writes_retired_in_submission_order(self, depth):
        retired: list[int] = []
        with WriteBehind(PipelinePlan(depth=depth)) as writer:
            for k in range(20):
                writer.put(partial(retired.append, k))
        assert retired == list(range(20))
        assert_no_pipeline_threads()

    def test_worker_error_surfaces_from_drain_as_same_object(self):
        boom = DiskFullError("disk 1 full")

        def fail():
            raise boom

        writer = WriteBehind(PipelinePlan(depth=2))
        try:
            writer.put(fail)
            with pytest.raises(DiskFullError) as exc_info:
                writer.drain()
            assert exc_info.value is boom
        finally:
            writer.close()
        assert_no_pipeline_threads()

    def test_error_fails_subsequent_puts_and_skips_backlog(self):
        boom = DiskFullError("disk 2 full")
        retired: list[int] = []

        def fail():
            raise boom

        writer = WriteBehind(PipelinePlan(depth=1))
        try:
            writer.put(fail)
            with pytest.raises(DiskFullError) as exc_info:
                # The error lands while these queue up; one of the puts
                # (or the drain) must re-raise it.
                for k in range(50):
                    writer.put(partial(retired.append, k))
                writer.drain()
            assert exc_info.value is boom
        finally:
            writer.close()
        assert_no_pipeline_threads()

    def test_stalled_write_times_out_on_drain(self):
        release = threading.Event()
        writer = WriteBehind(PipelinePlan(depth=1, timeout=0.3))
        try:
            writer.put(release.wait)
            with pytest.raises(PipelineError, match="drain timed out"):
                writer.drain()
        finally:
            release.set()
            writer.close()
        assert_no_pipeline_threads()

    def test_context_manager_skips_drain_on_error_exit(self):
        release = threading.Event()
        with pytest.raises(RuntimeError, match="unrelated"):
            with WriteBehind(PipelinePlan(depth=1, timeout=0.3)) as writer:
                writer.put(release.wait)
                raise RuntimeError("unrelated failure mid-pass")
        release.set()
        assert_no_pipeline_threads()

    def test_synchronous_put_runs_inline(self):
        clock = StageClock()
        retired: list[int] = []
        writer = WriteBehind(SYNCHRONOUS, clock)
        writer.put(partial(retired.append, 1))
        assert retired == [1]  # already retired — no thread involved
        assert not pipeline_threads()
        writer.close()

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_depth_counts_rounds_not_writes(self, depth):
        """With the writer stalled in round 0, `depth` further rounds of
        k writes each queue without blocking and the next one blocks;
        everything then retires in submission order."""
        k = 5
        gate = threading.Event()
        retired: list[tuple[int, int]] = []

        def round_of(t: int) -> list:
            return [partial(retired.append, (t, i)) for i in range(k)]

        writer = WriteBehind(PipelinePlan(depth=depth, timeout=30.0))
        try:
            writer.put(gate.wait, *round_of(0))
            accepted = threading.Event()

            def producer():
                for t in range(1, depth + 1):
                    writer.put(*round_of(t))
                accepted.set()
                writer.put(*round_of(depth + 1))

            thread = threading.Thread(target=producer)
            thread.start()
            assert accepted.wait(10.0), "a round within depth blocked"
            thread.join(0.3)
            assert thread.is_alive(), "round depth+1 did not block"
            assert retired == []
            gate.set()
            thread.join(10.0)
            assert not thread.is_alive()
            writer.drain()
        finally:
            gate.set()
            writer.close()
        assert retired == [(t, i) for t in range(depth + 2) for i in range(k)]
        assert_no_pipeline_threads()

    def test_failure_mid_round_keeps_object_and_releases_every_round(self):
        """A write failing in the middle of a round abandons the rest of
        that round, surfaces as the same exception object from the next
        put/drain, skips the writes of the rounds queued behind it — and
        still releases every round's buffer, exactly once."""
        depth = 2
        boom = DiskFullError("disk 3 full")
        gate = threading.Event()
        retired: list[str] = []
        released: list[int] = []

        def fail():
            raise boom

        writer = WriteBehind(PipelinePlan(depth=depth, timeout=30.0))
        try:
            writer.put(
                gate.wait, partial(retired.append, "before"), fail,
                partial(retired.append, "after"),
                release=partial(released.append, 0),
            )
            for t in range(1, depth + 1):  # queued behind the failure
                writer.put(
                    partial(retired.append, f"round{t}"),
                    release=partial(released.append, t),
                )
            gate.set()
            with pytest.raises(DiskFullError) as from_drain:
                writer.drain()
            assert from_drain.value is boom
            with pytest.raises(DiskFullError) as from_put:
                writer.put(
                    partial(retired.append, "late"),
                    release=partial(released.append, 99),
                )
            assert from_put.value is boom
        finally:
            gate.set()
            writer.close()
        assert retired == ["before"]
        assert released == [0, 1, 2, 99]
        assert_no_pipeline_threads()

    def test_inline_failure_mid_round_releases(self):
        boom = DiskFullError("disk 4 full")
        retired: list[str] = []
        released: list[int] = []

        def fail():
            raise boom

        writer = WriteBehind(SYNCHRONOUS)
        with pytest.raises(DiskFullError) as exc_info:
            writer.put(
                partial(retired.append, "before"), fail,
                partial(retired.append, "after"),
                release=partial(released.append, 0),
            )
        assert exc_info.value is boom
        assert (retired, released) == (["before"], [0])

    def test_put_timeout_reports_rounds_in_flight(self):
        gate = threading.Event()
        released: list[int] = []
        writer = WriteBehind(PipelinePlan(depth=1, timeout=0.3))
        try:
            writer.put(gate.wait)  # being written
            writer.put(lambda: None)  # queued
            with pytest.raises(PipelineError, match="with 2 rounds in flight"):
                writer.put(lambda: None, release=partial(released.append, 1))
            assert released == [1]  # refused, so released by put itself
            gate.set()
            writer.drain()  # the refused round is not waited for
        finally:
            gate.set()
            writer.close()
        assert_no_pipeline_threads()

    def test_cancelled_put_releases_the_round(self):
        class Token:
            def cancelled(self):
                return True

            def exception(self):
                return RuntimeError("cancelled")

        released: list[int] = []
        for depth in (0, 1):
            writer = WriteBehind(PipelinePlan(depth=depth, cancel=Token()))
            try:
                with pytest.raises(RuntimeError, match="cancelled"):
                    writer.put(lambda: None, release=partial(released.append, depth))
            finally:
                writer.close()
        assert released == [0, 1]
        assert_no_pipeline_threads()


# -- stage clock -------------------------------------------------------------


class TestStageClock:
    def test_stage_accumulates(self):
        clock = StageClock()
        with clock.stage(COMPUTE):
            pass
        with clock.stage(COMPUTE):
            pass
        assert set(clock.totals) == {COMPUTE}
        assert clock.totals[COMPUTE] >= 0

    def test_merge_into_adds(self):
        clock = StageClock()
        clock.add(COMPUTE, 1.5)
        wall = {COMPUTE: 1.0}
        clock.merge_into(wall)
        assert wall[COMPUTE] == pytest.approx(2.5)

    def test_measured_wall_aggregates_passes(self):
        run = RunTrace("t", 0, 64, 1, 0, passes=[
            PassTrace("a", [], wall={"compute": 1.0, "comm": 2.0}),
            PassTrace("b", [], wall={"compute": 0.5}),
        ])
        assert run.measured_wall() == {"compute": 1.5, "comm": 2.0}


# -- depth equivalence -------------------------------------------------------

EQUIVALENCE_CONFIGS = [
    ("threaded", 2, 32, 128),  # algorithm, P, buffer_records, N
    ("subblock", 2, 32, 128),
    ("m", 2, 32, 256),
    ("hybrid", 2, 128, 1024),
]


@pytest.mark.parametrize(
    "algorithm,p,buf,n", EQUIVALENCE_CONFIGS, ids=[c[0] for c in EQUIVALENCE_CONFIGS]
)
def test_output_byte_identical_across_depths(algorithm, p, buf, n, tmp_path):
    """Acceptance: depths {0, 1, 2, 4} produce byte-identical PDM output
    for every out-of-core algorithm."""
    fmt = RecordFormat("u8", 16)
    cluster = ClusterConfig(p=p, mem_per_proc=2**12)
    recs = generate("uniform", fmt, n, seed=11)
    baseline = None
    for depth in (0, 1, 2, 4):
        res = sort_out_of_core(
            algorithm, recs, cluster, fmt, buffer_records=buf,
            workdir=tmp_path / f"d{depth}", pipeline_depth=depth,
        )
        blob = fmt.to_bytes(res.output.read_all())
        if baseline is None:
            baseline = blob
        else:
            assert blob == baseline, f"depth {depth} diverged for {algorithm}"
    assert_no_pipeline_threads()


def test_stage_wall_recorded_at_all_depths(tmp_path):
    """Every traced run carries a wall breakdown; pipelined runs spend
    their waits in read_wait/write_wait like the synchronous ones."""
    fmt = RecordFormat("u8", 16)
    cluster = ClusterConfig(p=2, mem_per_proc=2**12)
    recs = generate("uniform", fmt, 128, seed=5)
    for depth in (0, 2):
        res = sort_out_of_core(
            "threaded", recs, cluster, fmt, buffer_records=32,
            workdir=tmp_path / f"w{depth}", pipeline_depth=depth,
        )
        wall = res.stage_wall()
        assert wall and set(wall) <= set(CATEGORIES)
        assert sum(wall.values()) > 0
        for pass_trace in res.trace.passes:
            assert pass_trace.wall  # every pass measured, not just the run


# -- deadlock regression -----------------------------------------------------


def test_stalled_reader_raises_spmd_error_not_hang(tmp_path, hard_timeout):
    """A depth-1 pipeline whose underlying read stalls must surface a
    PipelineError through the SPMD error path — never hang the world."""
    cluster = ClusterConfig(p=2, mem_per_proc=2**10)
    r, s = 32, 4
    recs = generate("uniform", FMT, r * s, seed=3)
    ws = make_workspace(cluster, FMT, recs, r, s, workdir=tmp_path)
    release = threading.Event()
    real_read = ws.input.read_portion

    def stalling_read(rank, j, **kwargs):
        if rank == 1:
            release.wait()  # rank 1's prefetcher never comes back
        return real_read(rank, j, **kwargs)

    ws.input.read_portion = stalling_read
    dst = ColumnStore(cluster, FMT, r, s, ws.disks, name="stall-t1")
    plan = PipelinePlan(depth=1, timeout=1.0)

    def prog(comm):
        pass_step2_deal(comm, ws.input, dst, FMT, None, plan=plan)

    try:
        with hard_timeout(60, "stalled reader hung the SPMD world"):
            with pytest.raises(SpmdError) as exc_info:
                run_spmd(cluster.p, prog, timeout=10)
            assert isinstance(exc_info.value.cause, PipelineError)
            assert exc_info.value.rank == 1
    finally:
        release.set()
    assert_no_pipeline_threads()


def test_normal_pipelined_run_leaves_no_threads(tmp_path):
    before = set(threading.enumerate())
    fmt = RecordFormat("u8", 16)
    cluster = ClusterConfig(p=2, mem_per_proc=2**12)
    recs = generate("uniform", fmt, 256, seed=9)
    sort_out_of_core(
        "subblock", recs, cluster, fmt, buffer_records=64,
        workdir=tmp_path, pipeline_depth=4,
    )
    assert_no_pipeline_threads()
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        extra = set(threading.enumerate()) - before
        if not extra:
            break
        time.sleep(0.01)
    assert not extra, f"leaked threads: {extra}"


# -- concurrency stress ------------------------------------------------------


def _hammer(n_threads: int, fn) -> None:
    """Run ``fn(thread_index)`` on ``n_threads`` threads, started on a
    barrier so the critical sections genuinely collide."""
    barrier = threading.Barrier(n_threads)
    errors: list[BaseException] = []

    def body(k):
        barrier.wait()
        try:
            fn(k)
        except BaseException as exc:  # noqa: BLE001 — surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=body, args=(k,)) for k in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not errors, errors


class TestConcurrencyStress:
    def test_iostats_totals_exact_under_contention(self):
        stats = IoStats()
        n_threads, per_thread = 8, 500

        def work(_):
            for _ in range(per_thread):
                stats.record_read(3)
                stats.record_write(5)

        _hammer(n_threads, work)
        snap = stats.snapshot()
        assert snap["reads"] == snap["writes"] == n_threads * per_thread
        assert snap["bytes_read"] == 3 * n_threads * per_thread
        assert snap["bytes_written"] == 5 * n_threads * per_thread

    def test_column_append_cursor_race(self, tmp_path):
        """Concurrent appenders (rank thread + flusher, here amplified
        to 8 threads) must land in disjoint rows: nothing lost, nothing
        overwritten."""
        cluster = ClusterConfig(p=1, mem_per_proc=2**10)
        disks = make_disk_array(tmp_path, cluster.virtual_disks)
        n_threads, per_thread, chunk = 8, 16, 4
        r = n_threads * per_thread * chunk
        store = ColumnStore(cluster, FMT, r, 1, disks, name="race")

        def work(k):
            for i in range(per_thread):
                keys = np.full(chunk, k * per_thread + i, dtype=np.uint64)
                store.append_to_portion(0, 0, FMT.make(keys))

        _hammer(n_threads, work)
        assert store.cursor(0, 0) == r
        got = np.sort(store.read_portion(0, 0)["key"])
        want = np.sort(np.repeat(np.arange(n_threads * per_thread,
                                           dtype=np.uint64), chunk))
        assert np.array_equal(got, want)

    def test_striped_append_cursor_race(self, tmp_path):
        cluster = ClusterConfig(p=2, mem_per_proc=2**10)
        disks = make_disk_array(tmp_path, cluster.virtual_disks)
        n_threads, per_thread, chunk = 4, 16, 2
        portion = n_threads * per_thread * chunk
        store = ColumnStore(
            cluster, FMT, portion * cluster.p, 1, disks, name="srace",
            group_size=cluster.p,
        )

        def work(k):
            for i in range(per_thread):
                keys = np.full(chunk, k * per_thread + i, dtype=np.uint64)
                store.append_to_portion(0, 0, FMT.make(keys))

        _hammer(n_threads, work)
        assert store.cursor(0, 0) == portion
        got = np.sort(store.read_portion(0, 0)["key"])
        want = np.sort(np.repeat(np.arange(n_threads * per_thread,
                                           dtype=np.uint64), chunk))
        assert np.array_equal(got, want)


# -- faults through the async path (unit level) ------------------------------


def test_disk_full_through_flusher_thread(tmp_path):
    """A DiskFullError raised inside the write-behind worker reaches the
    caller as the same DiskFullError."""
    cluster = ClusterConfig(p=1, mem_per_proc=2**10)
    r = 64
    disks = make_disk_array(tmp_path, cluster.virtual_disks,
                            capacity_bytes=FMT.nbytes(r // 2))
    store = ColumnStore(cluster, FMT, r, 1, disks, name="full")
    writer = WriteBehind(PipelinePlan(depth=2))
    recs = FMT.make(np.arange(r // 4, dtype=np.uint64))
    try:
        with pytest.raises(DiskFullError):
            for _ in range(8):
                writer.put(partial(store.append_to_portion, 0, 0, recs))
            writer.drain()
    finally:
        writer.close()
    assert_no_pipeline_threads()


@pytest.mark.parametrize("depth", [0, 2])
def test_write_failing_mid_round_strands_no_lease(tmp_path, depth):
    """A deal pass whose k-th segment write fails — in the middle of a
    round, with later rounds' buffers queued behind it — unwinds through
    the SPMD error path with every pool lease returned (no crash-path
    ``forget_leases`` here: the pass bodies themselves must release)."""
    from repro.membuf import get_pool

    cluster = ClusterConfig(p=2, mem_per_proc=2**10)
    r, s = 128, 8
    recs = generate("zipf", FMT, r * s, seed=4)
    ws = make_workspace(cluster, FMT, recs, r, s, workdir=tmp_path)
    dst = ColumnStore(cluster, FMT, r, s, ws.disks, name="fail-t1")
    boom = DiskFullError("disk 0 full")
    real_write = dst.append_segments
    rounds = {0: 0, 1: 0}

    def failing_write(rank, segments):
        rounds[rank] += 1
        if rank == 0 and rounds[rank] == 2:  # second segment write of round 1
            real_write(rank, segments[:1])  # the first segment lands
            raise boom
        real_write(rank, segments)

    dst.append_segments = failing_write
    plan = PipelinePlan(depth=depth, timeout=10.0)
    with pytest.raises(SpmdError) as exc_info:
        run_spmd(
            cluster.p,
            lambda comm: pass_step2_deal(comm, ws.input, dst, FMT, None, plan=plan),
            timeout=10,
        )
    assert exc_info.value.cause is boom
    assert get_pool().outstanding() == 0
    assert_no_pipeline_threads()
