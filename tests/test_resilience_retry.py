"""RetryPolicy: classification, backoff determinism, and disk wiring."""

import time

import pytest

from repro.cluster.config import ClusterConfig
from repro.cluster.spmd import run_spmd
from repro.disks.iostats import IoStats
from repro.disks.matrixfile import ColumnStore
from repro.disks.virtual_disk import VirtualDisk
from repro.errors import (
    CommError,
    DiskError,
    DiskFullError,
    RankKilled,
    ResilienceError,
    SpmdError,
)
from repro.membuf import get_pool
from repro.oocs.api import sort_out_of_core
from repro.oocs.base import make_workspace, pass_step2_deal
from repro.oocs.subblock import pass_subblock
from repro.pipeline import PipelinePlan
from repro.records.format import RecordFormat
from repro.records.generators import generate
from repro.resilience import FaultPlan, FaultSpec, RetryPolicy


class TestClassification:
    def test_transient_attr_wins(self):
        exc = DiskError("anything at all")
        exc.transient = True
        assert RetryPolicy.retryable(exc)
        exc.transient = False
        assert not RetryPolicy.retryable(exc)

    def test_disk_full_is_fatal(self):
        assert not RetryPolicy.retryable(DiskFullError("disk 0 full"))

    @pytest.mark.parametrize(
        "msg",
        [
            "disk 0 is read-only",
            "invalid object name 'x/y'",
            "negative write offset -1",
            "no object 'gone' on disk 0",
            "invalid read range (-1, 4)",
            "read buffer holds 3 bytes, wanted 4",
        ],
    )
    def test_structural_disk_errors_fatal(self, msg):
        assert not RetryPolicy.retryable(DiskError(msg))

    def test_short_read_is_transient(self):
        assert RetryPolicy.retryable(
            DiskError("short read of 'obj' on disk 0: wanted 8, got 3")
        )

    def test_non_disk_errors_fatal_by_default(self):
        assert not RetryPolicy.retryable(ValueError("nope"))
        assert not RetryPolicy.retryable(CommError("communicator has been shut down"))

    def test_transient_comm_fault_retryable(self):
        exc = CommError("injected transient comm fault")
        exc.transient = True
        assert RetryPolicy.retryable(exc)


class TestBackoff:
    def test_validation(self):
        with pytest.raises(ResilienceError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ResilienceError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ResilienceError):
            RetryPolicy(base_delay_s=-1)

    def test_exponential_with_ceiling(self):
        policy = RetryPolicy(base_delay_s=0.01, max_delay_s=0.04, jitter=0.0)
        assert policy.delay_s(1) == pytest.approx(0.01)
        assert policy.delay_s(2) == pytest.approx(0.02)
        assert policy.delay_s(3) == pytest.approx(0.04)
        assert policy.delay_s(4) == pytest.approx(0.04)  # capped

    def test_seeded_jitter_is_deterministic(self):
        a = RetryPolicy(seed=7)
        b = RetryPolicy(seed=7)
        assert [a.delay_s(i) for i in (1, 2, 3)] == [b.delay_s(i) for i in (1, 2, 3)]

    def test_jitter_bounded(self):
        policy = RetryPolicy(base_delay_s=0.1, max_delay_s=0.1, jitter=0.25, seed=3)
        for i in range(1, 20):
            assert 0.075 <= policy.delay_s(i) <= 0.125


class TestRun:
    def test_succeeds_after_transient_failures(self):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                exc = DiskError("injected read fault (transient)")
                exc.transient = True
                raise exc
            return "ok"

        policy = RetryPolicy(max_attempts=3, base_delay_s=0.0)
        retries = []
        assert policy.run(flaky, on_retry=lambda a, e: retries.append(a)) == "ok"
        assert retries == [1, 2]

    def test_budget_exhaustion_reraises_original(self):
        def always():
            exc = DiskError("injected write fault (transient)")
            exc.transient = True
            raise exc

        with pytest.raises(DiskError, match="injected write fault"):
            RetryPolicy(max_attempts=2, base_delay_s=0.0).run(always)

    def test_fatal_not_retried(self):
        calls = {"n": 0}

        def fatal():
            calls["n"] += 1
            raise DiskFullError("disk 0 full")

        with pytest.raises(DiskFullError):
            RetryPolicy(max_attempts=5, base_delay_s=0.0).run(fatal)
        assert calls["n"] == 1


class TestDiskWiring:
    def test_transient_faults_recovered_and_metered(self, tmp_path):
        disk = VirtualDisk(tmp_path)
        disk.retry_policy = RetryPolicy(max_attempts=3, base_delay_s=0.0)
        disk.fault_plan = FaultPlan(
            [FaultSpec(op="read", probability=1.0, count=2, transient=True)]
        )
        disk.write_at("obj", 0, b"abcd")
        assert disk.read_at("obj", 0, 4) == b"abcd"
        snap = disk.stats.snapshot()
        assert snap["read_retries"] == 2
        assert snap["reads"] == 1  # only the success is metered as a read

    def test_permanent_fault_not_retried(self, tmp_path):
        disk = VirtualDisk(tmp_path)
        disk.retry_policy = RetryPolicy(max_attempts=5, base_delay_s=0.0)
        disk.fault_plan = FaultPlan(
            [FaultSpec(op="write", probability=1.0, count=None, transient=False)]
        )
        with pytest.raises(DiskError, match="injected write fault"):
            disk.write_at("obj", 0, b"abcd")
        assert disk.stats.snapshot()["write_retries"] == 0

    def test_retry_budget_exhaustion_surfaces_fault(self, tmp_path):
        disk = VirtualDisk(tmp_path)
        disk.retry_policy = RetryPolicy(max_attempts=2, base_delay_s=0.0)
        disk.fault_plan = FaultPlan(
            [FaultSpec(op="read", probability=1.0, count=None, transient=True)]
        )
        disk.write_at("obj", 0, b"abcd")
        with pytest.raises(DiskError, match="injected read fault"):
            disk.read_at("obj", 0, 4)
        assert disk.stats.snapshot()["read_retries"] == 1

    def test_no_policy_means_no_retry(self, tmp_path):
        disk = VirtualDisk(tmp_path)
        disk.fault_plan = FaultPlan(
            [FaultSpec(op="read", probability=1.0, count=1, transient=True)]
        )
        disk.write_at("obj", 0, b"abcd")
        with pytest.raises(DiskError):
            disk.read_at("obj", 0, 4)


class TestEndToEndRetry:
    def test_sort_completes_under_transient_faults(self, tmp_path):
        """A whole threaded sort survives a burst of transient faults,
        with the retries visible in the result's I/O accounting."""
        import numpy as np

        from repro.cluster.config import ClusterConfig
        from repro.oocs.api import sort_out_of_core
        from repro.records.format import RecordFormat
        from repro.records.generators import generate

        fmt = RecordFormat("u8", 16)
        cluster = ClusterConfig(p=2, mem_per_proc=2**10)
        recs = generate("uniform", fmt, 128 * 4, seed=5)
        plan = FaultPlan(
            [FaultSpec(op=op, probability=0.05, count=None)
             for op in ("read", "write")],
            seed=11,
        )
        res = sort_out_of_core(
            "threaded", recs, cluster, fmt, buffer_records=128,
            workdir=tmp_path / "w", retry_policy=RetryPolicy(base_delay_s=0.0),
            fault_plan=plan,
        )
        assert np.array_equal(
            res.output_records()["key"], np.sort(recs["key"], kind="stable")
        )
        assert res.io["read_retries"] + res.io["write_retries"] > 0
        assert plan.snapshot()["fired_total"] > 0

    def test_spmd_error_when_budget_exhausted(self, tmp_path):
        from repro.cluster.config import ClusterConfig
        from repro.oocs.api import sort_out_of_core
        from repro.records.format import RecordFormat
        from repro.records.generators import generate

        fmt = RecordFormat("u8", 16)
        cluster = ClusterConfig(p=2, mem_per_proc=2**10)
        recs = generate("uniform", fmt, 128 * 4, seed=5)
        plan = FaultPlan(
            [FaultSpec(op="read", probability=1.0, count=None, transient=True)]
        )
        with pytest.raises(SpmdError) as err:
            sort_out_of_core(
                "threaded", recs, cluster, fmt, buffer_records=128,
                workdir=tmp_path / "w",
                retry_policy=RetryPolicy(max_attempts=2, base_delay_s=0.0),
                fault_plan=plan,
            )
        assert isinstance(err.value.cause, DiskError)


#: program → (buffer_records, N) on P = 2: s = 4 columns, the input
#: striped across both ranks for the programs whose r is P × buffer.
PROGRAMS = {
    "threaded": (256, 1024),
    "subblock": (256, 1024),
    "m": (128, 1024),
    "hybrid": (128, 1024),
}

WATCHDOG_DEADLINE = 10.0


def sort_program(program, recs, depth, workdir, **kwargs):
    buf, _ = PROGRAMS[program]
    return sort_out_of_core(
        program, recs, ClusterConfig(p=2, mem_per_proc=2**12),
        RecordFormat("u8", 64), buffer_records=buf, pipeline_depth=depth,
        workdir=workdir, watchdog_deadline=WATCHDOG_DEADLINE, **kwargs,
    )


def program_records(program, seed=1):
    return generate("uniform", RecordFormat("u8", 64), PROGRAMS[program][1],
                    seed=seed)


@pytest.mark.parametrize("depth", [0, 2])
@pytest.mark.parametrize("program", sorted(PROGRAMS))
class TestEveryProgramUnderFaults:
    def test_transient_faults_are_retried_byte_identically(
        self, program, depth, tmp_path
    ):
        """The sort survives a burst of transient faults byte-identically,
        with the retries visible in the result's accounting."""
        recs = program_records(program)
        clean = sort_program(program, recs, depth, tmp_path / "clean")
        expected = clean.output_records().tobytes()
        clean.output.delete()
        plan = FaultPlan(
            [FaultSpec(op=op, probability=0.05, count=None)
             for op in ("read", "write")],
            seed=11,
        )
        res = sort_program(
            program, recs, depth, tmp_path / "w", fault_plan=plan,
            retry_policy=RetryPolicy(max_attempts=6, base_delay_s=0.0),
        )
        assert res.output_records().tobytes() == expected
        assert plan.snapshot()["fired_total"] > 0
        assert (
            res.io["read_retries"] + res.io["write_retries"]
            + res.comm_total["retries"]
        ) > 0
        res.output.delete()

    def test_permanent_fault_fails_within_the_deadline(
        self, program, depth, tmp_path
    ):
        """A read that fails for good from its nth attempt on ends the
        run with a structured error naming a rank, well inside the
        watchdog deadline: no hang, no retry loop."""
        plan = FaultPlan(
            [FaultSpec(op="read", probability=1.0, nth=4, count=None,
                       transient=False)]
        )
        started = time.monotonic()
        with pytest.raises(SpmdError) as err:
            sort_program(
                program, program_records(program), depth, tmp_path / "w",
                fault_plan=plan,
                retry_policy=RetryPolicy(max_attempts=6, base_delay_s=0.0),
            )
        assert time.monotonic() - started < WATCHDOG_DEADLINE + 5.0
        assert err.value.rank is not None
        assert isinstance(err.value.cause, DiskError)


# -- fault counting inside a round -------------------------------------------

ROUND_FMT = RecordFormat("u8", 16)

#: pass → (body, r, s) on P = 2 with one disk per rank, so rank 0's
#: segment writes are disk 0's writes. Either pass appends 4 segments
#: per round (the deal: s/P targets; the subblock pass: the √s classes
#: of the one source column per round whose classes rank 0 owns).
ROUND_PASSES = {
    "deal": (pass_step2_deal, 128, 8),
    "subblock": (pass_subblock, 256, 16),
}

#: The first, a middle and the last segment write of rank 0's second
#: round, counted from the pass's first write.
ROUND_ONE = (5, 6, 8)


def round_pass(name, depth, workdir, spec=None):
    """Run one pass on fresh disks with ``spec`` armed on disk 0 and a
    3-attempt retry policy; return ``(disks, dst, error or None)``."""
    body, r, s = ROUND_PASSES[name]
    cluster = ClusterConfig(p=2, mem_per_proc=2**10)
    ws = make_workspace(
        cluster, ROUND_FMT, generate("zipf", ROUND_FMT, r * s, seed=7), r, s,
        workdir=workdir,
    )
    dst = ColumnStore(cluster, ROUND_FMT, r, s, ws.disks, name="out")
    plan = FaultPlan([] if spec is None else [spec])
    for disk in ws.disks:
        disk.stats = IoStats()  # count the pass, not the input load
        disk.fault_plan = plan
        disk.retry_policy = RetryPolicy(max_attempts=3, base_delay_s=0.0)
    pipeline = PipelinePlan(depth=depth, timeout=10.0)
    error = None
    try:
        run_spmd(
            cluster.p,
            lambda comm: body(comm, ws.input, dst, ROUND_FMT, None, plan=pipeline),
            timeout=10,
        )
    except SpmdError as exc:
        error = exc
    finally:
        for disk in ws.disks:
            disk.close_handles()
    return ws.disks, dst, error


def landed_on_disk0(disks, dst) -> tuple[int, int]:
    """``(writes, output bytes)`` on rank 0's disk."""
    disk = disks[0]
    out = sum(disk.size(f) for f in disk.files() if f.startswith(f"{dst.name}."))
    return disk.stats.snapshot()["writes"], out


@pytest.mark.parametrize("k", ROUND_ONE)
@pytest.mark.parametrize("depth", [0, 2])
@pytest.mark.parametrize("name", sorted(ROUND_PASSES))
class TestFaultCountingInsideARound:
    """A round's segments are one disk operation, but the fault plan
    still counts one op per segment: a fault armed at the kth write
    lands on the kth segment, and a retry resumes there."""

    def segment_bytes(self, name):
        _body, r, s = ROUND_PASSES[name]
        # The deal's segment gathers P bands of r/s records; the
        # subblock pass's is one class of r/√s records.
        records = 2 * r // s if name == "deal" else r // 4
        return ROUND_FMT.nbytes(records)

    def test_transient_fault_is_retried_at_its_segment(
        self, name, depth, k, tmp_path
    ):
        disks, clean, error = round_pass(name, depth, tmp_path / "clean")
        assert error is None
        want = IoStats.total(d.stats.snapshot() for d in disks)
        _body, r, s = ROUND_PASSES[name]
        half = ROUND_FMT.nbytes(r * s // 2)  # rank 0's columns
        assert landed_on_disk0(disks, clean) == (half // self.segment_bytes(name), half)
        disks, dst, error = round_pass(
            name, depth, tmp_path / "w",
            FaultSpec(op="write", nth=k, disk=0, transient=True),
        )
        assert error is None
        got = IoStats.total(d.stats.snapshot() for d in disks)
        assert (got["writes"], got["bytes_written"]) == (
            want["writes"], want["bytes_written"],
        )
        assert got["write_retries"] == 1
        assert dst.to_records().tobytes() == clean.to_records().tobytes()

    def test_permanent_fault_lands_on_its_segment(self, name, depth, k, tmp_path):
        disks, dst, error = round_pass(
            name, depth, tmp_path,
            FaultSpec(op="write", nth=k, disk=0, transient=False),
        )
        assert isinstance(error, SpmdError)
        assert error.rank == 0 and isinstance(error.cause, DiskError)
        assert get_pool().outstanding() == 0
        assert landed_on_disk0(disks, dst) == (k - 1, (k - 1) * self.segment_bytes(name))

    def test_rank_kill_lands_on_its_segment(self, name, depth, k, tmp_path):
        disks, dst, error = round_pass(
            name, depth, tmp_path,
            FaultSpec(op="write", nth=k, disk=0, kind="rank_kill"),
        )
        assert isinstance(error, SpmdError)
        assert error.rank == 0 and isinstance(error.cause, RankKilled)
        assert get_pool().outstanding() == 0
        assert landed_on_disk0(disks, dst) == (k - 1, (k - 1) * self.segment_bytes(name))
