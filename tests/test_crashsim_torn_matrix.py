"""Torn-write matrix for the byte-plane artifact power loss can tear:
block-checksum sidecars.

The crashsim sweep enumerates torn states organically; this matrix
pins the exhaustive cut-point behavior down deterministically — every
prefix length of a sidecar — and asserts the one claim that matters:
torn metadata degrades to *detection or refusal*, never to silently
wrong bytes.
"""

from __future__ import annotations

import shutil

import pytest

from repro.crashsim.cache import SECTOR
from repro.disks.virtual_disk import VirtualDisk
from repro.durability.checksums import BlockChecksums
from repro.errors import CorruptionError, DiskError


def _fresh_copy(src, dst):
    shutil.copytree(src, dst)
    return dst


# ---------------------------------------------------------------------------
# sidecar matrix
# ---------------------------------------------------------------------------


class TestSidecarTornMatrix:
    @pytest.fixture
    def disk_root(self, tmp_path):
        disk = VirtualDisk(tmp_path / "d0", disk_id=0)
        disk.write_at("obj.x", 0, b"P" * 1024)
        disk.write_at("obj.x", 1024, b"Q" * 1024)
        disk.sync()
        return tmp_path / "d0"

    def _cuts(self, nbytes: int) -> list[int]:
        cuts = {0, 1, nbytes // 2, nbytes - 1}
        cuts.update(range(SECTOR, nbytes, SECTOR))
        return sorted(c for c in cuts if 0 <= c < nbytes)

    def test_torn_sidecar_never_crashes_or_fabricates_extents(
        self, disk_root, tmp_path
    ):
        sidecar = disk_root / ".meta" / "obj.x.json"
        original = sidecar.read_bytes()
        reference = BlockChecksums(disk_root).extents("obj.x")
        assert reference  # the matrix must exercise a real catalog
        for cut in self._cuts(len(original)):
            root = _fresh_copy(disk_root, tmp_path / f"cut{cut}")
            (root / ".meta" / "obj.x.json").write_bytes(original[:cut])
            catalog = BlockChecksums(root)
            got = catalog.extents("obj.x")
            # A torn sidecar is discarded wholesale (unparseable JSON)
            # — it must never load as a partial or mutated catalog.
            assert got in ([], reference), f"cut at {cut} fabricated {got}"

    def test_torn_sidecar_with_intact_data_still_reads_correctly(
        self, disk_root, tmp_path
    ):
        original = (disk_root / ".meta" / "obj.x.json").read_bytes()
        for cut in self._cuts(len(original)):
            root = _fresh_copy(disk_root, tmp_path / f"cut{cut}")
            (root / ".meta" / "obj.x.json").write_bytes(original[:cut])
            disk = VirtualDisk(root, disk_id=0)
            assert disk.read_at("obj.x", 0, 1024) == b"P" * 1024

    def test_torn_data_with_intact_sidecar_is_detected(
        self, disk_root, tmp_path
    ):
        data = (disk_root / "obj.x").read_bytes()
        for cut in self._cuts(len(data)):
            root = _fresh_copy(disk_root, tmp_path / f"cut{cut}")
            (root / "obj.x").write_bytes(data[:cut])
            disk = VirtualDisk(root, disk_id=0)
            with pytest.raises((CorruptionError, DiskError)):
                disk.read_at("obj.x", 0, 1024)
                disk.read_at("obj.x", 1024, 1024)

    def test_sync_reports_flushed_sidecars(self, tmp_path):
        disk = VirtualDisk(tmp_path / "d", disk_id=0)
        disk.write_at("obj.a", 0, b"a" * 64)
        disk.write_at("obj.b", 0, b"b" * 64)
        assert disk.checksums.sync() == 2
        assert disk.checksums.sync() == 0  # barrier drained the dirty set

