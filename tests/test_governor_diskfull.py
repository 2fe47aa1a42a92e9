"""Disk-full handling: fault-spec validation, retry classification, and
a run's failure on ENOSPC.

ENOSPC is deliberately *not* a retryable fault — backing off cannot
conjure free space — so the error surfaces structurally, naming the
disk. A run's scratch is planned instead: each intermediate is deleted
at the pass boundary after its last reader
(``tests/test_scratch_lifecycle.py``).
"""

import pytest

from repro.cluster.config import ClusterConfig
from repro.disks.virtual_disk import VirtualDisk
from repro.errors import DiskFullError, ResilienceError, SpmdError
from repro.oocs.api import sort_out_of_core
from repro.records.format import RecordFormat
from repro.records.generators import generate
from repro.resilience import FaultPlan, FaultSpec
from repro.resilience.retry import RetryPolicy

FMT = RecordFormat("u8", 16)


def run_sort(records, depth=0, **kwargs):
    cluster = ClusterConfig(p=2, mem_per_proc=2**10)
    return sort_out_of_core(
        "threaded", records, cluster, FMT, buffer_records=128,
        pipeline_depth=depth, **kwargs,
    )


class TestFaultSpecValidation:
    def test_disk_full_must_target_write_side(self):
        FaultSpec(op="write", kind="disk_full")  # fine
        FaultSpec(op="any", kind="disk_full")  # fine
        with pytest.raises(ResilienceError, match="write-side"):
            FaultSpec(op="read", kind="disk_full")
        with pytest.raises(ResilienceError, match="write-side"):
            FaultSpec(op="comm", kind="disk_full")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ResilienceError, match="unknown fault kind"):
            FaultSpec(kind="meteor")

    def test_any_spec_skips_reads(self):
        """An op="any" disk_full rule must not fire on reads — reads
        never allocate space — and the skipped read must not consume
        the nth-write trigger either."""
        plan = FaultPlan(
            [FaultSpec(op="any", kind="disk_full", nth=1, transient=False)]
        )
        plan.check("read", disk_id=0)  # does not raise
        with pytest.raises(DiskFullError):
            plan.check("write", disk_id=0)

    def test_injected_error_names_the_disk(self):
        plan = FaultPlan(
            [FaultSpec(op="write", kind="disk_full", nth=1, transient=False)]
        )
        with pytest.raises(DiskFullError, match="on disk 3"):
            plan.check("write", where="on disk 3", disk_id=3)


class TestRetryClassification:
    def test_disk_full_is_never_retryable(self):
        assert not RetryPolicy.retryable(DiskFullError("enospc"))

    def test_transient_flag_does_not_override(self):
        """Even a fault plan that (mis)labels ENOSPC transient must not
        burn the backoff budget: space does not free itself."""
        exc = DiskFullError("enospc")
        exc.transient = True
        assert not RetryPolicy.retryable(exc)

    def test_real_capacity_overflow_is_not_retried(self, tmp_path):
        disk = VirtualDisk(tmp_path / "d0", capacity_bytes=64)
        disk.retry_policy = RetryPolicy(max_attempts=5, base_delay_s=0.0)
        with pytest.raises(DiskFullError, match="disk 0 full"):
            disk.write_at("obj", 0, b"x" * 100)
        assert disk.stats.snapshot()["write_retries"] == 0


@pytest.mark.parametrize("depth", [0, 2])
class TestReclaimLadder:
    def test_nothing_to_reclaim_fails_naming_the_disk(self, depth):
        """The very first write fails: the error surfaces structurally,
        with the failing disk named."""
        records = generate("uniform", FMT, 512, seed=7)
        plan = FaultPlan(
            [FaultSpec(op="write", kind="disk_full", nth=1, count=1,
                       transient=False, disk=0)]
        )
        with pytest.raises(SpmdError) as err:
            run_sort(records, depth, fault_plan=plan)
        assert isinstance(err.value.cause, DiskFullError)
        assert "disk 0" in str(err.value.cause)

