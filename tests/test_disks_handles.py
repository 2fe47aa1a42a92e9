"""Write descriptors: one per object per pass, none left behind.

``VirtualDisk.write_at`` keeps an object's descriptor open from its
first write to the pass boundary (``flush()``). Raw descriptors raise no
``ResourceWarning`` when leaked, so these tests look at ``/proc/self/fd``
directly: whatever way a run ends — returned, faulted mid-pass,
cancelled, restarted by the supervisor — nothing under its workdir may
still be open in the calling process.
"""

import errno
import gc
import os

import pytest

from repro.cluster.config import ClusterConfig
from repro.disks import virtual_disk
from repro.disks.virtual_disk import VirtualDisk, make_disk_array
from repro.durability.hashing import block_checksum
from repro.errors import Cancellation, DiskError, SpmdError
from repro.governor import CancelToken
from repro.oocs.api import run_baseline_io, sort_out_of_core
from repro.records.format import RecordFormat
from repro.records.generators import generate
from repro.resilience import FaultPlan, FaultSpec, RestartPolicy

FMT = RecordFormat("u8", 16)

#: algorithm → (records, buffer) on P = 2 (the verify skill's shape table)
SHAPES = {
    "threaded": (2048, 256),
    "subblock": (4096, 256),
    "m": (4096, 1024),
}
BACKENDS = ["thread", "process"]


def open_under(root) -> list[str]:
    """What this process's descriptors point at under ``root`` (an
    unlinked file still shows, as ``<path> (deleted)``)."""
    prefix = os.path.realpath(root) + os.sep
    found = []
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:  # the listing's own descriptor, already closed
            continue
        if target.startswith(prefix):
            found.append(target)
    return found


def run_sort(algorithm, workdir, **kwargs):
    n, buffer = SHAPES[algorithm]
    records = generate("uniform", FMT, n, seed=11)
    cluster = ClusterConfig(p=2, mem_per_proc=2**12)
    return sort_out_of_core(
        algorithm, records, cluster, FMT, buffer_records=buffer,
        workdir=workdir, **kwargs,
    )


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("algorithm", sorted(SHAPES))
class TestNothingLeftOpen:
    def test_after_a_sort_and_a_baseline(self, algorithm, backend, tmp_path):
        res = run_sort(algorithm, tmp_path / "sort", backend=backend)
        assert open_under(tmp_path) == []
        assert all(not d._handles for d in res.workspace.disks)

        n, buffer = SHAPES["threaded"]
        base = run_baseline_io(
            generate("uniform", FMT, n, seed=11),
            ClusterConfig(p=2, mem_per_proc=2**12), FMT, buffer,
            workdir=tmp_path / "base", backend=backend,
        )
        assert open_under(tmp_path) == []
        assert all(not d._handles for d in base.workspace.disks)

    def test_after_a_write_fault_mid_pass(self, algorithm, backend, tmp_path):
        """The seventh write of pass 1 fails for good: by then the pass
        has descriptors open, and it never reaches its boundary."""
        plan = FaultPlan(
            [FaultSpec(op="write", nth=7, count=1, transient=False)]
        )
        with pytest.raises(SpmdError) as err:
            run_sort(algorithm, tmp_path, backend=backend, fault_plan=plan)
        assert isinstance(err.value.cause, DiskError)
        assert open_under(tmp_path) == []

    def test_after_a_cancel_at_pass_one(self, algorithm, backend, tmp_path):
        with pytest.raises(Cancellation):
            run_sort(
                algorithm, tmp_path / "w", backend=backend,
                cancel=CancelToken(cancel_at_pass=1),
                checkpoint_dir=tmp_path / "ck",
            )
        assert open_under(tmp_path) == []

    def test_after_a_supervised_restart(self, algorithm, backend, tmp_path):
        plan = FaultPlan(
            [FaultSpec(op="write", nth=5, count=1, kind="rank_kill")]
        )
        res = run_sort(
            algorithm, tmp_path, backend=backend, fault_plan=plan,
            watchdog_deadline=15.0,
            restart_policy=RestartPolicy(
                max_restarts=3, base_backoff_s=0.001, max_backoff_s=0.01
            ),
        )
        assert res.supervisor["restarts"] >= 1
        assert open_under(tmp_path) == []


class TestHandleTable:
    def test_one_descriptor_per_object_until_flush(self, tmp_path):
        disk = VirtualDisk(tmp_path, disk_id=0)
        for offset in range(0, 4096, 1024):
            disk.write_at("obj.a", offset, b"a" * 1024)
        disk.write_at("obj.b", 0, b"b" * 10)
        assert sorted(disk._handles) == ["obj.a", "obj.b"]
        assert len(open_under(tmp_path)) == 2
        # pwrite is unbuffered: readers see the bytes before any flush
        assert disk.read_at("obj.a", 1000, 48) == b"a" * 48

        disk.flush()
        assert not disk._handles
        assert open_under(tmp_path) == []
        assert (tmp_path / ".meta").is_dir()  # the sidecars went out too
        disk.write_at("obj.a", 4096, b"c" * 8)  # reopened on the next write
        assert (tmp_path / "obj.a").read_bytes() == b"a" * 4096 + b"c" * 8
        disk.refresh()
        assert not disk._handles
        assert open_under(tmp_path) == []

    def test_delete_then_write_recreates_the_file(self, tmp_path):
        disk = VirtualDisk(tmp_path, disk_id=0)
        disk.write_at("obj", 0, b"old!" * 4)
        disk.delete("obj")
        assert not (tmp_path / "obj").exists()
        assert open_under(tmp_path) == []
        disk.write_at("obj", 0, b"new")
        assert (tmp_path / "obj").read_bytes() == b"new"  # not the dead inode
        assert disk.read_at("obj", 0, 3) == b"new"
        disk.flush()

    def test_invalid_name_is_refused_before_any_open(self, tmp_path):
        disk = VirtualDisk(tmp_path, disk_id=0)
        for name in ("../escape", ".hidden", "a/b"):
            with pytest.raises(DiskError, match="invalid object name"):
                disk.write_at(name, 0, b"x")
        assert not disk._handles

    def test_least_recently_used_goes_first(self, tmp_path):
        disk = VirtualDisk(tmp_path, disk_id=0)
        disk.handle_budget = 2
        for name in ("a", "b", "a", "c"):
            disk.write_at(name, disk.size(name), b"x")
        assert list(disk._handles) == ["a", "c"]
        assert len(open_under(tmp_path)) == 2
        assert (tmp_path / "a").read_bytes() == b"xx"
        disk.flush()

    def test_emfile_empties_the_table_and_retries_once(self, tmp_path, monkeypatch):
        disk = VirtualDisk(tmp_path, disk_id=0)
        disk.write_at("a", 0, b"x")
        disk.write_at("b", 0, b"x")
        real_open, refusals = os.open, [1]

        def starved(path, flags, *args, **kwargs):
            if refusals[0]:
                refusals[0] -= 1
                raise OSError(errno.EMFILE, "Too many open files")
            return real_open(path, flags, *args, **kwargs)

        monkeypatch.setattr(os, "open", starved)
        disk.write_at("c", 0, b"y")
        assert list(disk._handles) == ["c"]
        assert (tmp_path / "c").read_bytes() == b"y"

        refusals[0] = 2
        with pytest.raises(OSError):
            disk.write_at("d", 0, b"z")  # the second refusal is the caller's
        assert disk.size("d") == 0
        monkeypatch.undo()
        disk.flush()

    def test_garbage_collection_closes_what_flush_did_not(self, tmp_path):
        disk = VirtualDisk(tmp_path, disk_id=0)
        disk.write_at("obj", 0, b"x")
        assert open_under(tmp_path)
        del disk
        gc.collect()
        assert open_under(tmp_path) == []

    def test_one_batch_over_three_budgets_of_objects(self, tmp_path, monkeypatch):
        """A single ``write_extents`` call touching 3 × budget objects,
        each twice (so evicted descriptors reopen mid-batch): the table
        never exceeds its budget, no open runs out of descriptors, every
        ``pwrite`` goes through a live descriptor of its own object, and
        every byte and catalog CRC lands and reads back verified."""
        disk = VirtualDisk(tmp_path, disk_id=0)
        disk.handle_budget = 16
        names = [f"obj{i:03d}" for i in range(3 * disk.handle_budget)]
        extents = [
            (name, half * 64, bytes([i % 251 + 1, half + 1]) * 32)
            for half in (0, 1)
            for i, name in enumerate(names)
        ]
        real_open, real_pwrite = os.open, os.pwrite
        emfile, landed = [], []

        def watched_open(path, flags, *args, **kwargs):
            try:
                return real_open(path, flags, *args, **kwargs)
            except OSError as exc:
                if exc.errno in (errno.EMFILE, errno.ENFILE):
                    emfile.append(path)
                raise

        def watched_pwrite(fd, data, offset):
            assert len(disk._handles) <= disk.handle_budget
            # The descriptor is open, kept, and names this extent's file.
            target = os.path.basename(os.readlink(f"/proc/self/fd/{fd}"))
            assert disk._handles.get(target) == fd
            landed.append((target, offset))
            return real_pwrite(fd, data, offset)

        monkeypatch.setattr(os, "open", watched_open)
        monkeypatch.setattr(os, "pwrite", watched_pwrite)
        disk.write_extents(extents)
        monkeypatch.undo()

        assert landed == [(name, offset) for name, offset, _data in extents]
        assert emfile == []
        assert len(disk._handles) == disk.handle_budget
        snap = disk.stats.snapshot()
        assert (snap["writes"], snap["bytes_written"]) == (len(extents), 64 * len(extents))
        for name in names:
            want = b"".join(data for n, _o, data in extents if n == name)
            assert disk.checksums.extents(name) == [
                (offset, 64, block_checksum(data))
                for n, offset, data in extents
                if n == name
            ]
            assert disk.read_at(name, 0, 128) == want  # verified against the CRCs
        assert disk.stats.snapshot()["checksum_failures"] == 0
        disk.flush()
        assert open_under(tmp_path) == []

    def test_an_array_shares_one_budget(self, tmp_path, monkeypatch):
        monkeypatch.setattr(virtual_disk, "_fd_budget", lambda: 12)
        assert [d.handle_budget for d in make_disk_array(tmp_path / "a", 4)] == [3] * 4
        assert [d.handle_budget for d in make_disk_array(tmp_path / "b", 16)] == [1] * 16


class TestTightBudget:
    def test_s16_sort_is_byte_identical_with_four_descriptors(
        self, tmp_path, monkeypatch
    ):
        """M-columnsort at s = 16 appends to 16 objects per rank per
        pass; with 4 descriptors for the whole array the table thrashes
        — today's open-per-write cost at worst — and nothing else
        changes."""
        records = generate("zipf", FMT, 8192, seed=3)
        cluster = ClusterConfig(p=2, mem_per_proc=2**12)

        def sort(workdir):
            return sort_out_of_core(
                "m", records, cluster, FMT, buffer_records=256, workdir=workdir
            )

        free = sort(tmp_path / "free")
        assert free.job.n // (2 * 256) == 16  # s

        monkeypatch.setattr(virtual_disk, "_fd_budget", lambda: 4)
        seen, peak = set(), [0]
        real_write = VirtualDisk.write_at

        def watched(self, name, offset, data):
            seen.add(self)
            real_write(self, name, offset, data)
            peak[0] = max(peak[0], sum(len(d._handles) for d in seen))

        monkeypatch.setattr(VirtualDisk, "write_at", watched)
        tight = sort(tmp_path / "tight")
        assert 0 < peak[0] <= 4
        assert {d.handle_budget for d in tight.workspace.disks} == {2}
        assert tight.output_records().tobytes() == free.output_records().tobytes()
        assert tight.io == free.io
        assert open_under(tmp_path) == []

