"""RetryPolicy: classification, backoff determinism, and disk wiring."""

import pytest

from repro.disks.virtual_disk import VirtualDisk
from repro.errors import (
    CommError,
    DiskError,
    DiskFullError,
    ResilienceError,
    SpmdError,
)
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
        from repro.resilience import transient_plan

        fmt = RecordFormat("u8", 16)
        cluster = ClusterConfig(p=2, mem_per_proc=2**10)
        recs = generate("uniform", fmt, 128 * 4, seed=5)
        plan = transient_plan(read_p=0.05, write_p=0.05, seed=11)
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
