"""A disk lost permanently mid-pass fails the run and names the disk;
plus the online pass audits."""

import numpy as np
import pytest

from repro.cluster.config import ClusterConfig
from repro.disks.matrixfile import ColumnStore
from repro.disks.virtual_disk import make_disk_array
from repro.durability.audit import PassAuditor
from repro.errors import AuditError, DiskError, SpmdError
from repro.oocs.api import sort_out_of_core
from repro.records.format import RecordFormat
from repro.records.generators import generate
from repro.resilience import FaultPlan, FaultSpec, RetryPolicy

#: algorithm → (p, buffer_records, s, striped input?, record size)
CONFIGS = {
    "threaded": (2, 256, 4, False, 16),
    "subblock": (2, 256, 4, False, 16),
    "m": (2, 128, 4, True, 64),
    "hybrid": (2, 128, 4, True, 64),
}

ALGORITHMS = sorted(CONFIGS)


def records_for(algorithm: str, seed: int = 1):
    p, buf, s, striped, rsize = CONFIGS[algorithm]
    fmt = RecordFormat("u8", rsize)
    n = p * buf * s if striped else buf * s
    return fmt, generate("uniform", fmt, n, seed=seed)


def run_sort(algorithm: str, fmt, records, depth: int = 0, **kwargs):
    p, buf, _, _, _ = CONFIGS[algorithm]
    cluster = ClusterConfig(p=p, mem_per_proc=2**12)
    return sort_out_of_core(
        algorithm, records, cluster, fmt, buffer_records=buf,
        pipeline_depth=depth, **kwargs,
    )


def disk_kill_plan(seed: int = 1) -> FaultPlan:
    """Disk 1 fails permanently at its third read and never recovers."""
    return FaultPlan(
        [FaultSpec(op="read", probability=1.0, nth=3, count=None,
                   transient=False, disk=1)],
        seed=seed,
    )


class TestDiskKill:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_dead_disk_fails_structurally(self, algorithm, tmp_path):
        """A dead disk fails the run with a structured error that names
        the disk as permanently failed, well inside the watchdog
        deadline, at either depth."""
        import time

        fmt, records = records_for(algorithm)
        for depth in (0, 2):
            started = time.monotonic()
            with pytest.raises(SpmdError) as err:
                run_sort(
                    algorithm, fmt, records, depth=depth,
                    workdir=tmp_path / f"d{depth}",
                    fault_plan=disk_kill_plan(),
                    retry_policy=RetryPolicy(max_attempts=4, base_delay_s=0.0),
                    watchdog_deadline=10.0,
                )
            assert isinstance(err.value.cause, DiskError)
            assert "disk 1" in str(err.value)
            assert "permanent" in str(err.value)
            assert time.monotonic() - started < 15.0


class TestAudit:
    def test_clean_run_audits_every_pass(self, tmp_path):
        fmt, records = records_for("threaded")
        res = run_sort("threaded", fmt, records, workdir=tmp_path, audit=True)
        dur = res.durability
        assert dur["audited_passes"] == res.passes
        assert dur["audited_units"] > 0
        res.output.delete()

    def test_audit_failure_surfaces_as_spmd_error(self, monkeypatch, tmp_path):
        def poisoned(self, algorithm, store, index, total):
            raise AuditError(f"{algorithm} pass {index}/{total}: poisoned")

        monkeypatch.setattr(PassAuditor, "audit_pass", poisoned)
        fmt, records = records_for("threaded")
        with pytest.raises(SpmdError) as err:
            run_sort("threaded", fmt, records, workdir=tmp_path, audit=True)
        assert isinstance(err.value.cause, AuditError)

    def test_auditor_catches_lost_records(self, tmp_path, small_fmt):
        cluster = ClusterConfig(p=2, mem_per_proc=2**12)
        disks = make_disk_array(tmp_path, cluster.virtual_disks)
        recs = generate("uniform", small_fmt, 256, seed=5)
        store = ColumnStore.from_records(
            cluster, small_fmt, recs, 64, 4, disks, name="out"
        )
        # drop half of column 1: the exhaustive size check must fire
        disk = store._disk_for(1, 1)
        disk.delete(store._file(1, 0))
        disk.write_at(store._file(1, 0), 0, recs[:32].tobytes())
        with pytest.raises(AuditError, match="lost or duplicated"):
            PassAuditor().audit_pass("threaded", store, 1, 3)

    def test_auditor_catches_run_structure_violation(self, tmp_path, small_fmt):
        cluster = ClusterConfig(p=2, mem_per_proc=2**12)
        disks = make_disk_array(tmp_path, cluster.virtual_disks)
        recs = generate("uniform", small_fmt, 256, seed=6)
        store = ColumnStore.from_records(
            cluster, small_fmt, recs, 64, 4, disks, name="out"
        )
        # a sawtooth column has ~r/2 maximal runs, far beyond the s bound
        saw = np.sort(recs[:64], order="key")[::-1].copy()
        for j in range(4):
            store.write_portion(store.rank_of(j, 0), j, saw)
        with pytest.raises(AuditError, match="sorted runs"):
            PassAuditor().audit_pass("threaded", store, 1, 3)

    def test_auditor_passes_legal_store(self, tmp_path, small_fmt):
        cluster = ClusterConfig(p=2, mem_per_proc=2**12)
        disks = make_disk_array(tmp_path, cluster.virtual_disks)
        recs = np.sort(generate("uniform", small_fmt, 256, seed=7), order="key")
        store = ColumnStore.from_records(
            cluster, small_fmt, recs, 64, 4, disks, name="out"
        )
        auditor = PassAuditor()
        auditor.audit_pass("threaded", store, 1, 3)
        assert auditor.audited_passes == 1
        assert auditor.audited_units == 2

    def test_auditor_refuses_a_store_it_cannot_audit(self):
        """An unauditable store must not count as a clean pass."""

        class Opaque:
            name = "mystery"

        auditor = PassAuditor()
        with pytest.raises(AuditError, match="no audit for a Opaque"):
            auditor.audit_pass("threaded", Opaque(), 1, 3)
        assert auditor.audited_passes == 0
