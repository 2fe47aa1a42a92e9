"""FaultPlan / FaultSpec: validation, triggering, and the legacy shim."""

import pytest

from repro.errors import CommError, DiskError, ResilienceError
from repro.resilience import FaultPlan, FaultSpec, transient_plan
from tests.conftest import arm_fault


class TestFaultSpecValidation:
    def test_defaults(self):
        spec = FaultSpec()
        assert spec.op == "any"
        assert spec.probability == 1.0
        assert spec.nth is None
        assert spec.count == 1
        assert spec.transient

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"op": "explode"},
            {"probability": -0.1},
            {"probability": 1.5},
            {"nth": 0},
            {"count": 0},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ResilienceError):
            FaultSpec(**kwargs)

    def test_matches(self):
        assert FaultSpec(op="any").matches("read")
        assert FaultSpec(op="any").matches("write")
        assert not FaultSpec(op="any").matches("comm")  # comm is opt-in
        assert FaultSpec(op="comm").matches("comm")
        assert not FaultSpec(op="read").matches("write")


class TestTriggering:
    def test_nth_op_trigger(self):
        plan = FaultPlan([FaultSpec(op="read", nth=3, count=1)])
        plan.check("read")  # 1st
        plan.check("read")  # 2nd
        with pytest.raises(DiskError, match="injected read fault"):
            plan.check("read")  # 3rd fires
        plan.check("read")  # count exhausted, 4th is clean

    def test_nth_counts_only_matching_ops(self):
        plan = FaultPlan([FaultSpec(op="write", nth=2, count=1)])
        plan.check("read")
        plan.check("read")
        plan.check("write")  # 1st write
        with pytest.raises(DiskError):
            plan.check("write")  # 2nd write fires

    def test_count_limits_firings(self):
        plan = FaultPlan([FaultSpec(op="read", probability=1.0, count=2)])
        for _ in range(2):
            with pytest.raises(DiskError):
                plan.check("read")
        plan.check("read")  # budget spent

    def test_unlimited_count(self):
        plan = FaultPlan([FaultSpec(op="read", probability=1.0, count=None)])
        for _ in range(5):
            with pytest.raises(DiskError):
                plan.check("read")

    def test_probabilistic_seeded_and_deterministic(self):
        def fired(seed):
            plan = FaultPlan(
                [FaultSpec(op="read", probability=0.3, count=None)], seed=seed
            )
            hits = []
            for i in range(200):
                try:
                    plan.check("read")
                except DiskError:
                    hits.append(i)
            return hits

        a, b = fired(42), fired(42)
        assert a == b  # same seed, same firing pattern
        assert 20 < len(a) < 100  # ~30% of 200, loosely
        assert fired(43) != a  # a different seed really reseeds

    def test_transient_flag_on_exception(self):
        plan = FaultPlan([FaultSpec(op="read", transient=True)])
        with pytest.raises(DiskError) as err:
            plan.check("read")
        assert err.value.transient is True

        plan = FaultPlan([FaultSpec(op="write", transient=False, count=1)])
        with pytest.raises(DiskError) as err:
            plan.check("write")
        assert err.value.transient is False

    def test_comm_fault_raises_commerror(self):
        plan = FaultPlan([FaultSpec(op="comm", transient=True)])
        with pytest.raises(CommError, match="injected transient comm fault") as err:
            plan.check("comm", where="0->1 tag='x'")
        assert err.value.transient
        assert "0->1" in str(err.value)

    def test_where_appears_in_message(self):
        plan = FaultPlan([FaultSpec(op="read")])
        with pytest.raises(DiskError, match="on disk 3"):
            plan.check("read", where="on disk 3")

    def test_snapshot_and_reset(self):
        plan = FaultPlan([FaultSpec(op="read", count=1)])
        with pytest.raises(DiskError):
            plan.check("read")
        plan.check("write")
        snap = plan.snapshot()
        assert snap["fired_total"] == 1
        assert snap["ops"]["read"] == 1
        assert snap["ops"]["write"] == 1
        plan.reset_counters()
        assert plan.snapshot()["fired_total"] == 0


class TestTransientPlanFactory:
    def test_builds_specs_for_requested_ops(self):
        plan = transient_plan(read_p=0.1, write_p=0.2, comm_p=0.3, seed=9)
        ops = sorted(spec.op for spec in plan.specs)
        assert ops == ["comm", "read", "write"]
        assert all(spec.transient for spec in plan.specs)

    def test_zero_probability_ops_omitted(self):
        plan = transient_plan(read_p=0.5)
        assert [spec.op for spec in plan.specs] == ["read"]


class TestLegacyInjectFaultShim:
    """`FaultPlan.arm_once` on a disk's plan keeps the one-shot
    semantics of the `VirtualDisk.inject_fault` shim it replaced
    (tests/test_failure_injection.py depends on them)."""

    def test_one_shot_permanent(self, tmp_path):
        from repro.disks.virtual_disk import VirtualDisk

        disk = VirtualDisk(tmp_path)
        disk.write_at("obj", 0, b"abcd")
        arm_fault(disk, "read")
        with pytest.raises(DiskError, match="injected read fault") as err:
            disk.read_at("obj", 0, 4)
        assert err.value.transient is False  # not retried away by a policy
        assert disk.read_at("obj", 0, 4) == b"abcd"  # one-shot

    def test_any_matches_both_ops(self, tmp_path):
        from repro.disks.virtual_disk import VirtualDisk

        disk = VirtualDisk(tmp_path)
        arm_fault(disk, "any")
        with pytest.raises(DiskError):
            disk.write_at("obj", 0, b"abcd")

    def test_unknown_kind_rejected_eagerly(self, tmp_path):
        from repro.disks.virtual_disk import VirtualDisk

        disk = VirtualDisk(tmp_path)
        with pytest.raises(ResilienceError, match="unknown fault op"):
            arm_fault(disk, "explode")
        assert not disk.fault_plan.specs  # nothing was armed

    def test_shim_survives_a_retry_policy(self, tmp_path):
        """An armed one-shot fault is permanent: a retry policy must not
        silently absorb it."""
        from repro.disks.virtual_disk import VirtualDisk
        from repro.resilience import RetryPolicy

        disk = VirtualDisk(tmp_path)
        disk.retry_policy = RetryPolicy(max_attempts=5, base_delay_s=0.0)
        disk.write_at("obj", 0, b"abcd")
        arm_fault(disk, "read")
        with pytest.raises(DiskError, match="injected read fault"):
            disk.read_at("obj", 0, 4)
