"""Virtual disks: block I/O, accounting, capacity, fault injection."""

import pytest

from repro.disks.iostats import IoStats
from repro.disks.virtual_disk import VirtualDisk, make_disk_array
from repro.errors import DiskError, DiskFullError, ResilienceError
from tests.conftest import arm_fault


@pytest.fixture
def disk(tmp_path):
    return VirtualDisk(tmp_path / "d0", disk_id=0)


class TestBasicIO:
    def test_write_read_roundtrip(self, disk):
        disk.write_at("obj", 0, b"hello world")
        assert disk.read_at("obj", 0, 11) == b"hello world"
        assert disk.read_at("obj", 6, 5) == b"world"

    def test_overwrite_at_offset(self, disk):
        disk.write_at("obj", 0, b"aaaaaa")
        disk.write_at("obj", 2, b"BB")
        assert disk.read_at("obj", 0, 6) == b"aaBBaa"

    def test_gap_is_zero_filled(self, disk):
        disk.write_at("obj", 4, b"xy")
        assert disk.read_at("obj", 0, 6) == b"\0\0\0\0xy"

    def test_size_tracking(self, disk):
        assert disk.size("obj") == 0
        disk.write_at("obj", 0, b"12345")
        assert disk.size("obj") == 5
        disk.write_at("obj", 3, b"67890")
        assert disk.size("obj") == 8
        assert disk._used == 8

    def test_short_read_raises(self, disk):
        disk.write_at("obj", 0, b"123")
        with pytest.raises(DiskError, match="short read"):
            disk.read_at("obj", 0, 4)

    def test_missing_object_raises(self, disk):
        with pytest.raises(DiskError, match="no object"):
            disk.read_at("ghost", 0, 1)

    def test_delete(self, disk):
        disk.write_at("obj", 0, b"x")
        disk.delete("obj")
        assert disk.files() == []
        disk.delete("obj")  # idempotent

    def test_invalid_names(self, disk):
        with pytest.raises(DiskError):
            disk.write_at("a/b", 0, b"")
        with pytest.raises(DiskError):
            disk.read_at(".hidden", 0, 0)

    def test_negative_ranges(self, disk):
        with pytest.raises(DiskError):
            disk.write_at("obj", -1, b"x")
        with pytest.raises(DiskError):
            disk.read_at("obj", 0, -2)

    def test_persistence_across_instances(self, tmp_path):
        d1 = VirtualDisk(tmp_path / "d", disk_id=0)
        d1.write_at("obj", 0, b"persist")
        d2 = VirtualDisk(tmp_path / "d", disk_id=0)
        assert d2.size("obj") == 7
        assert d2.read_at("obj", 0, 7) == b"persist"

    def test_sync_skips_an_object_deleted_through_another_copy(self, tmp_path):
        """Each process-backend rank holds its own copy of a disk; when
        one copy deletes an object (at a pass boundary), the others'
        size tables still list it, and their sync barrier must flush
        what is left rather than fail on the missing file."""
        mine = VirtualDisk(tmp_path / "d", disk_id=0)
        mine.write_at("kept", 0, b"k")
        mine.write_at("gone", 0, b"g")
        theirs = VirtualDisk(tmp_path / "d", disk_id=0)
        theirs.delete("gone")
        assert mine.files() == ["gone", "kept"]
        assert mine.sync() >= 1
        assert mine.read_at("kept", 0, 1) == b"k"


class TestAccounting:
    def test_bytes_and_ops_counted(self, disk):
        disk.write_at("obj", 0, b"abcd")
        disk.write_at("obj", 4, b"ef")
        disk.read_at("obj", 0, 6)
        snap = disk.stats.snapshot()
        assert snap == {
            "reads": 1, "writes": 2, "bytes_read": 6, "bytes_written": 6,
            "read_retries": 0, "write_retries": 0,
            # Each write hashes its extent (4 + 2 bytes) and the read
            # verifies both extents again: write_at never chains.
            "bytes_hashed": 12, "checksum_failures": 0, "extents_verified": 2,
        }

    def test_combine(self, tmp_path):
        disks = make_disk_array(tmp_path, 3)
        for d in disks:
            d.write_at("x", 0, b"ab")
        total = IoStats.total(d.stats.snapshot() for d in disks)
        assert total["writes"] == 3 and total["bytes_written"] == 6



class TestCapacityAndFaults:
    def test_capacity_enforced(self, tmp_path):
        d = VirtualDisk(tmp_path / "d", capacity_bytes=10)
        d.write_at("a", 0, b"12345")
        with pytest.raises(DiskFullError):
            d.write_at("b", 0, b"1234567")
        # In-place overwrite does not grow usage.
        d.write_at("a", 0, b"54321")

    def test_capacity_frees_on_delete(self, tmp_path):
        d = VirtualDisk(tmp_path / "d", capacity_bytes=10)
        d.write_at("a", 0, b"1234567890")
        d.delete("a")
        d.write_at("b", 0, b"abcdefghij")

    def test_used_bytes_total_tracks_every_mutation(self, tmp_path):
        """The used-bytes total the capacity check reads is a running
        total, not a sum over the catalog: it must agree with the files
        after growth, in-place overwrite, a gap write, a refused write,
        delete, and a refresh from the directory."""
        d = VirtualDisk(tmp_path / "d", capacity_bytes=64)

        def on_disk() -> int:
            return sum(p.stat().st_size for p in d.root.iterdir() if p.is_file())

        d.write_at("a", 0, b"12345")
        d.write_at("a", 2, b"xy")  # inside: no growth
        d.write_at("a", 3, b"1234567")  # grows to 10
        d.write_at("b", 4, b"zz")  # gap write: 6 bytes incl. the zero fill
        assert d._used == on_disk() == 16
        with pytest.raises(DiskFullError):
            d.write_at("c", 0, bytes(49))
        assert d._used == 16
        d.refresh()
        assert d._used == on_disk() == 16
        d.delete("a")
        assert d._used == on_disk() == 6
        d.delete("missing")
        d.write_at("c", 0, bytes(58))  # exactly full
        assert d._used == 64

    def test_read_only(self, disk):
        disk.write_at("obj", 0, b"x")
        disk.read_only = True
        with pytest.raises(DiskError, match="read-only"):
            disk.write_at("obj", 0, b"y")
        with pytest.raises(DiskError, match="read-only"):
            disk.delete("obj")
        assert disk.read_at("obj", 0, 1) == b"x"

    def test_fault_injection_one_shot(self, disk):
        disk.write_at("obj", 0, b"abc")
        arm_fault(disk, "read")
        with pytest.raises(DiskError, match="injected read fault"):
            disk.read_at("obj", 0, 1)
        assert disk.read_at("obj", 0, 1) == b"a"  # fault consumed

    def test_fault_kind_filter(self, disk):
        disk.write_at("obj", 0, b"abc")
        arm_fault(disk, "write")
        assert disk.read_at("obj", 0, 3) == b"abc"  # reads unaffected
        with pytest.raises(DiskError, match="injected write fault"):
            disk.write_at("obj", 0, b"x")

    def test_fault_any(self, disk):
        arm_fault(disk, "any")
        with pytest.raises(DiskError, match="injected"):
            disk.write_at("obj", 0, b"x")

    def test_unknown_fault_kind(self, disk):
        with pytest.raises(ResilienceError):
            arm_fault(disk, "explode")


class TestMmapReads:
    """``read_at`` beyond the basics: ``out=`` vs ``bytes`` equivalence,
    reads after growth and in-place rewrite, CRC verification of the
    bytes read, and delete → recreate."""

    def test_bytes_and_out_paths_equivalent(self, disk):
        import numpy as np

        payload = bytes(range(256)) * 8
        disk.write_at("obj", 0, payload)
        for offset, nbytes in [(0, 2048), (0, 1), (100, 900), (2040, 8)]:
            want = payload[offset : offset + nbytes]
            assert disk.read_at("obj", offset, nbytes) == want
            out = np.zeros(nbytes, dtype=np.uint8)
            assert disk.read_at("obj", offset, nbytes, out=out) is out
            assert out.tobytes() == want
        with pytest.raises(DiskError, match="read buffer holds"):
            disk.read_at("obj", 0, 8, out=np.zeros(7, dtype=np.uint8))

    def test_io_accounting_identical(self, disk):
        disk.write_at("obj", 0, b"x" * 4096)
        disk.read_at("obj", 0, 4096)
        disk.read_at("obj", 1024, 512)
        snap = disk.stats.snapshot()
        assert snap["reads"] == 2 and snap["bytes_read"] == 4608

    def test_growth_remaps(self, disk):
        disk.write_at("obj", 0, b"a" * 100)
        assert disk.read_at("obj", 0, 100) == b"a" * 100
        disk.write_at("obj", 100, b"b" * 100)  # grows past the first read
        assert disk.read_at("obj", 0, 200) == b"a" * 100 + b"b" * 100

    def test_in_place_rewrite_is_coherent(self, disk):
        disk.write_at("obj", 0, b"aaaa")
        assert disk.read_at("obj", 0, 4) == b"aaaa"
        disk.write_at("obj", 1, b"BB")  # same inode, same size
        assert disk.read_at("obj", 0, 4) == b"aBBa"

    def test_crc_verification_unchanged(self, disk):
        from repro.errors import CorruptionError

        disk.write_at("obj", 0, b"abcdefgh")
        assert disk.read_at("obj", 0, 8) == b"abcdefgh"
        blob = bytearray((disk.root / "obj").read_bytes())
        blob[0] ^= 0xFF
        (disk.root / "obj").write_bytes(bytes(blob))
        with pytest.raises(CorruptionError):
            disk.read_at("obj", 0, 8)

    def test_short_read_still_reported(self, disk):
        disk.write_at("obj", 0, b"123")
        with pytest.raises(DiskError, match="short read"):
            disk.read_at("obj", 0, 4)

    def test_delete_closes_mapping_and_recreate_serves_fresh(self, disk):
        disk.write_at("obj", 0, b"old-bytes")
        assert disk.read_at("obj", 0, 9) == b"old-bytes"
        disk.delete("obj")
        disk.write_at("obj", 0, b"new")
        assert disk.read_at("obj", 0, 3) == b"new"

    def test_zero_length_read(self, disk):
        disk.write_at("obj", 0, b"abc")
        assert disk.read_at("obj", 0, 0) == b""
