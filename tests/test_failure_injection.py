"""Failure paths of full out-of-core runs: disk faults, disk-full, and
misbehaving rank programs must surface as structured errors, never
hangs or silent corruption — including when the fault fires inside a
read-ahead or write-behind pool thread rather than on the rank thread
itself."""

import threading
import time

import pytest

from repro.cluster.config import ClusterConfig
from repro.cluster.spmd import run_spmd
from repro.disks.matrixfile import ColumnStore
from repro.errors import DiskError, DiskFullError, SpmdError
from repro.oocs.api import ALGORITHMS
from repro.oocs.base import OocJob, make_workspace, run_pass_program
from repro.records.format import RecordFormat
from repro.records.generators import generate
from tests.conftest import arm_fault

FMT = RecordFormat("u8", 64)


def setup_run(tmp_path, p=2, r=128, s=4, pipeline_depth=0):
    cluster = ClusterConfig(p=p, mem_per_proc=2**10)
    recs = generate("uniform", FMT, r * s, seed=1)
    ws = make_workspace(cluster, FMT, recs, r, s, workdir=tmp_path)
    job = OocJob(cluster=cluster, fmt=FMT, n=r * s, buffer_records=r,
                 pipeline_depth=pipeline_depth)
    return cluster, recs, ws, job


def assert_no_new_threads(before: set, deadline_s: float = 5.0) -> None:
    """All threads spawned since ``before`` must wind down (pool workers
    join with a timeout, so poll rather than snapshot)."""
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        extra = set(threading.enumerate()) - before
        if not extra:
            return
        time.sleep(0.01)
    raise AssertionError(f"leaked threads: {set(threading.enumerate()) - before}")


class TestDiskFaults:
    def test_read_fault_propagates_with_failing_rank(self, tmp_path):
        cluster, recs, ws, job = setup_run(tmp_path)
        arm_fault(ws.disks[1], "read")
        with pytest.raises(SpmdError) as exc_info:
            run_pass_program(ALGORITHMS["threaded"], job, ws.input)
        assert isinstance(exc_info.value.cause, DiskError)
        assert exc_info.value.rank == 1  # disk 1 belongs to rank 1

    def test_write_fault_propagates(self, tmp_path):
        cluster, recs, ws, job = setup_run(tmp_path)
        arm_fault(ws.disks[0], "write")
        with pytest.raises(SpmdError) as exc_info:
            run_pass_program(ALGORITHMS["threaded"], job, ws.input)
        assert isinstance(exc_info.value.cause, DiskError)

    def test_fault_mid_run_does_not_hang(self, tmp_path):
        """Even when one rank dies halfway through a pass, the others
        unblock promptly (the shutdown path, exercised at full-run
        scale)."""
        import time

        cluster, recs, ws, job = setup_run(tmp_path, p=4, r=128, s=8)
        arm_fault(ws.disks[3], "read")
        t0 = time.monotonic()
        with pytest.raises(SpmdError):
            run_pass_program(ALGORITHMS["threaded"], job, ws.input)
        assert time.monotonic() - t0 < 30


class TestDiskFull:
    def test_full_disk_aborts_run(self, tmp_path):
        from repro.disks.virtual_disk import VirtualDisk

        cluster = ClusterConfig(p=2, mem_per_proc=2**10)
        r, s = 128, 4
        recs = generate("uniform", FMT, r * s, seed=1)
        # Capacity fits the input but not the intermediates (the paper's
        # own runs were bounded by the 3× disk-space requirement).
        disks = [
            VirtualDisk(tmp_path / f"d{d}", disk_id=d,
                        capacity_bytes=FMT.nbytes(r * s // 2) + 100)
            for d in range(2)
        ]
        store = ColumnStore.from_records(cluster, FMT, recs, r, s, disks)
        job = OocJob(cluster=cluster, fmt=FMT, n=r * s, buffer_records=r)
        with pytest.raises(SpmdError) as exc_info:
            run_pass_program(ALGORITHMS["threaded"], job, store)
        assert isinstance(exc_info.value.cause, DiskFullError)


class TestFaultsThroughPipelineThreads:
    """The same injections as above, but with the pass pipeline enabled:
    the fault fires inside a pool worker and must surface as the same
    exception type, shut the SPMD world down, and leak no threads."""

    @pytest.mark.parametrize("depth", [1, 2])
    def test_read_fault_through_prefetcher(self, tmp_path, depth):
        before = set(threading.enumerate())
        cluster, recs, ws, job = setup_run(tmp_path, pipeline_depth=depth)
        arm_fault(ws.disks[1], "read")
        with pytest.raises(SpmdError) as exc_info:
            run_pass_program(ALGORITHMS["threaded"], job, ws.input)
        assert isinstance(exc_info.value.cause, DiskError)
        assert exc_info.value.rank == 1
        assert_no_new_threads(before)

    @pytest.mark.parametrize("depth", [1, 2])
    def test_write_fault_through_flusher(self, tmp_path, depth):
        before = set(threading.enumerate())
        cluster, recs, ws, job = setup_run(tmp_path, pipeline_depth=depth)
        arm_fault(ws.disks[0], "write")
        with pytest.raises(SpmdError) as exc_info:
            run_pass_program(ALGORITHMS["threaded"], job, ws.input)
        assert isinstance(exc_info.value.cause, DiskError)
        assert_no_new_threads(before)

    def test_disk_full_through_flusher(self, tmp_path):
        from repro.disks.virtual_disk import VirtualDisk

        before = set(threading.enumerate())
        cluster = ClusterConfig(p=2, mem_per_proc=2**10)
        r, s = 128, 4
        recs = generate("uniform", FMT, r * s, seed=1)
        disks = [
            VirtualDisk(tmp_path / f"d{d}", disk_id=d,
                        capacity_bytes=FMT.nbytes(r * s // 2) + 100)
            for d in range(2)
        ]
        store = ColumnStore.from_records(cluster, FMT, recs, r, s, disks)
        job = OocJob(cluster=cluster, fmt=FMT, n=r * s, buffer_records=r,
                     pipeline_depth=2)
        with pytest.raises(SpmdError) as exc_info:
            run_pass_program(ALGORITHMS["threaded"], job, store)
        assert isinstance(exc_info.value.cause, DiskFullError)
        assert_no_new_threads(before)

    def test_input_preserved_after_pipelined_failure(self, tmp_path):
        import numpy as np

        cluster, recs, ws, job = setup_run(tmp_path, pipeline_depth=2)
        arm_fault(ws.disks[0], "write")
        with pytest.raises(SpmdError):
            run_pass_program(ALGORITHMS["threaded"], job, ws.input)
        assert np.array_equal(ws.input.to_records(), recs)


class TestRankMisbehavior:
    def test_store_access_from_wrong_rank(self, tmp_path):
        cluster, recs, ws, job = setup_run(tmp_path)

        def prog(comm):
            # Rank 0 tries to read rank 1's column.
            ws.input.read_portion(comm.rank, (comm.rank + 1) % 2)

        with pytest.raises(SpmdError) as exc_info:
            run_spmd(2, prog, timeout=5)
        assert isinstance(exc_info.value.cause, DiskError)

    def test_input_preserved_after_failed_run(self, tmp_path):
        """A failed sort must not corrupt the input store (the paper
        kept inputs for verification; so do we)."""
        import numpy as np

        cluster, recs, ws, job = setup_run(tmp_path)
        arm_fault(ws.disks[0], "write")
        with pytest.raises(SpmdError):
            run_pass_program(ALGORITHMS["threaded"], job, ws.input)
        assert np.array_equal(ws.input.to_records(), recs)
