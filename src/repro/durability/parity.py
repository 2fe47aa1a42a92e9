"""XOR parity across the D-disk array, RAID-5 style.

The PDM layout already spreads every stripe across all D disks, which
makes single-disk redundancy cheap: group data extents into *stripe
rows* of D−1 members (one per data disk) plus one XOR parity extent,
and rotate the parity holder round-robin (row ``r``'s parity lives on
disk ``r mod D``) so no single disk becomes the parity bottleneck.

The layer hooks the write path of every
:class:`~repro.disks.virtual_disk.VirtualDisk` in the array:

* a **write** folds any overlapped stale extents out of their rows
  (parity ``^=`` old bytes), then assigns the new extent to the next
  free row slot of its disk and XORs its bytes into that row's parity;
* a **delete** folds all of the object's extents out;
* a **reconstruction** XORs a row's parity with its surviving members
  to recover a lost or corrupt extent, verifying the result against the
  owning disk's block-checksum catalog before trusting it.

Members are XORed zero-padded to the row's longest extent, so rows may
mix extent sizes (columns vs. PDM block ranges). Parity extents are raw
files under ``<holder root>/.parity/``; a dead disk's recovered data
lands under ``<root>/.spare/``. All staging buffers are leased from the
shared :class:`~repro.membuf.BufferPool` and recycled before return.

Parity maintenance I/O is metered in the layer's own counters, *not* in
``IoStats`` reads/writes: the paper's pass-count invariants (3N / 4N
records through disk per sort) are asserted byte-exactly by the
integration tests and describe data movement, not redundancy overhead.

The extent catalog is per-process (think of it as the metadata server's
in-memory state); attaching a layer to a directory that holds stale
``.parity``/``.spare`` files from an earlier process clears them —
protection restarts with the next write.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.durability.hashing import block_checksum
from repro.errors import ConfigError, CorruptionError, DiskError
from repro.membuf import get_pool
from repro.resilience.quarantine import DiskQuarantine
from repro.telemetry import Counters

_U1 = np.dtype("u1")


class ParityCounters(Counters):
    """Parity upkeep (bytes read and written, extents folded out) and
    recovery (blocks reconstructed, blocks repaired in place)."""

    KEYS = (
        "parity_bytes_read",
        "parity_bytes_written",
        "reconstructed_blocks",
        "repaired_blocks",
        "folds",
    )


@dataclass
class _Extent:
    disk: int
    name: str
    offset: int
    length: int
    row: int
    spare: bool = False


class ParityLayer:
    """One XOR parity domain over a D-disk array (D >= 2)."""

    def __init__(self, disks: list, quarantine: DiskQuarantine) -> None:
        if len(disks) < 2:
            raise ConfigError(
                f"parity needs at least 2 disks, got {len(disks)} "
                "(no surviving disk could hold the redundancy)"
            )
        self._order = sorted(disks, key=lambda disk: disk.disk_id)
        self._by_id = {disk.disk_id: disk for disk in self._order}
        if len(self._by_id) != len(disks):
            raise ConfigError("duplicate disk ids in parity array")
        self._pos = {disk.disk_id: i for i, disk in enumerate(self._order)}
        self.d = len(self._order)
        self.quarantine = quarantine
        self._lock = threading.RLock()
        self._extents: dict[tuple[int, str], list[_Extent]] = {}
        self._rows: dict[int, dict[int, _Extent]] = {}
        self._row_len: dict[int, int] = {}
        self._next_slot = [0] * self.d
        self.maintenance_enabled = True
        self.counters = ParityCounters(lock=self._lock)
        for disk in self._order:
            for sub in (".parity", ".spare"):
                stale = disk.root / sub
                if stale.is_dir():
                    for path in stale.iterdir():
                        os.unlink(path)

    # -- bookkeeping -----------------------------------------------------

    def disable_maintenance(self) -> None:
        """Stop maintaining parity for *new* writes (the run governor's
        disk-full degradation: ``.parity/`` stops growing). Existing
        rows keep serving reconstructions and repairs; writes made
        while maintenance is off are simply unprotected."""
        with self._lock:
            self.maintenance_enabled = False

    # -- geometry --------------------------------------------------------

    def _alloc_row(self, pos: int) -> int:
        """Next stripe row with a free slot for the disk at array
        position ``pos`` (rows whose parity holder is ``pos`` are
        skipped — a disk never holds parity for its own data)."""
        k = self._next_slot[pos]
        self._next_slot[pos] = k + 1
        group, idx = divmod(k, self.d - 1)
        residue = idx if idx < pos else idx + 1
        return group * self.d + residue

    def _parity_path(self, row: int) -> Path:
        holder = self._order[row % self.d]
        return holder.root / ".parity" / f"row{row:08d}"

    def spare_path(self, disk) -> Path:
        return disk.root / ".spare"

    # -- raw byte movement (leased staging, layer-level metering) --------

    def _lease(self, nbytes: int) -> np.ndarray:
        return get_pool().lease(_U1, nbytes)

    def _read_parity(self, row: int) -> np.ndarray:
        nbytes = self._row_len[row]
        arr = self._lease(nbytes)
        with open(self._parity_path(row), "rb") as fh:
            got = fh.readinto(memoryview(arr))
        if got != nbytes:
            get_pool().recycle(arr)
            raise DiskError(
                f"cannot reconstruct: parity row {row} is "
                f"{got} bytes, expected {nbytes}"
            )
        self.counters.parity_bytes_read += nbytes
        return arr

    def _write_parity(self, row: int, arr: np.ndarray, nbytes: int) -> None:
        path = self._parity_path(row)
        path.parent.mkdir(exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(memoryview(arr)[:nbytes])
        self._row_len[row] = nbytes
        self.counters.parity_bytes_written += nbytes

    def _extent_file(self, ext: _Extent) -> Path:
        disk = self._by_id[ext.disk]
        if ext.spare:
            return self.spare_path(disk) / ext.name
        return disk.root / ext.name

    def _readable(self, ext: _Extent) -> bool:
        return ext.spare or not self.quarantine.is_dead(ext.disk)

    def _extent_bytes(self, ext: _Extent) -> np.ndarray:
        """Current bytes of one member extent, as a leased u1 array.

        A dead disk's not-yet-reconstructed extent is rebuilt from its
        row instead of read (its medium is gone).
        """
        if not self._readable(ext):
            data = self._reconstruct(ext)
            arr = self._lease(ext.length)
            memoryview(arr)[:] = data
            return arr
        arr = self._lease(ext.length)
        with open(self._extent_file(ext), "rb") as fh:
            fh.seek(ext.offset)
            got = fh.readinto(memoryview(arr))
        if got != ext.length:
            get_pool().recycle(arr)
            raise DiskError(
                f"cannot reconstruct: member extent {ext.name!r}@{ext.offset} "
                f"on disk {ext.disk} is short ({got} < {ext.length} bytes)"
            )
        self.counters.parity_bytes_read += ext.length
        return arr

    # -- parity maintenance ----------------------------------------------

    def _fold_out(self, ext: _Extent) -> None:
        """Remove one extent from its stripe row (parity ^= old bytes)."""
        old = self._extent_bytes(ext)
        row = ext.row
        members = self._rows[row]
        del members[ext.disk]
        self._extents[(ext.disk, ext.name)].remove(ext)
        if not members:
            try:
                os.unlink(self._parity_path(row))
            except OSError:
                pass
            del self._rows[row]
            del self._row_len[row]
        else:
            par = self._read_parity(row)
            np.bitwise_xor(par[: ext.length], old, out=par[: ext.length])
            keep = max(m.length for m in members.values())
            self._write_parity(row, par, keep)
            get_pool().recycle(par)
        get_pool().recycle(old)
        self.counters.folds += 1

    def on_write(self, disk, name: str, offset: int, data, spare: bool) -> None:
        """Hook called by the disk *before* the file write lands, under
        the disk's lock; ``data`` is the new extent's bytes."""
        if not self.maintenance_enabled:
            return
        mv = memoryview(data).cast("B")
        nbytes = mv.nbytes
        if nbytes == 0:
            return
        end = offset + nbytes
        key = (disk.disk_id, name)
        with self._lock:
            stale = [
                e
                for e in list(self._extents.get(key, []))
                if e.offset < end and e.offset + e.length > offset
            ]
            for ext in stale:
                self._fold_out(ext)
            row = self._alloc_row(self._pos[disk.disk_id])
            ext = _Extent(disk.disk_id, name, offset, nbytes, row, spare=spare)
            self._extents.setdefault(key, []).append(ext)
            self._extents[key].sort(key=lambda e: e.offset)
            members = self._rows.setdefault(row, {})
            cur_len = self._row_len.get(row, 0)
            new_len = max(cur_len, nbytes)
            par = self._lease(new_len)
            par[:] = 0
            if cur_len:
                old_par = self._read_parity(row)
                par[:cur_len] = old_par
                get_pool().recycle(old_par)
            src = np.frombuffer(mv, dtype=_U1)
            np.bitwise_xor(par[:nbytes], src, out=par[:nbytes])
            members[disk.disk_id] = ext
            self._write_parity(row, par, new_len)
            get_pool().recycle(par)

    def on_delete(self, disk, name: str) -> None:
        """Fold every extent of a deleted object out of its rows."""
        key = (disk.disk_id, name)
        with self._lock:
            for ext in list(self._extents.get(key, [])):
                self._fold_out(ext)
            self._extents.pop(key, None)

    # -- recovery --------------------------------------------------------

    def _reconstruct(self, ext: _Extent) -> bytes:
        """Rebuild one extent by XORing its row's parity with the
        surviving members; verified against the owner's checksum
        catalog when a CRC is on record."""
        row = ext.row
        acc = self._read_parity(row)
        try:
            for member in self._rows[row].values():
                if member is ext:
                    continue
                if not self._readable(member):
                    raise DiskError(
                        f"cannot reconstruct {ext.name!r}@{ext.offset} on disk "
                        f"{ext.disk}: stripe row {row} has a second lost "
                        f"extent on disk {member.disk}"
                    )
                peer = self._extent_bytes(member)
                np.bitwise_xor(
                    acc[: member.length], peer, out=acc[: member.length]
                )
                get_pool().recycle(peer)
            data = bytes(memoryview(acc)[: ext.length])
        finally:
            get_pool().recycle(acc)
        checksums = getattr(self._by_id[ext.disk], "checksums", None)
        if checksums is not None:
            expected = checksums.expected_crc(ext.name, ext.offset, ext.length)
            if expected is not None and block_checksum(data) != expected:
                raise CorruptionError(
                    ext.disk, ext.name, [(ext.offset, ext.length)],
                    repairable=False,
                )
        self.counters.reconstructed_blocks += 1
        return data

    def ensure_spare(self, disk, name: str, logical_size: int) -> Path:
        """Materialize a dead disk's object in its spare region.

        Reconstructs every still-primary extent of the object into
        ``<root>/.spare/<name>`` and pads the file to ``logical_size``
        (uncataloged regions were zero-filled gaps, so zeros are
        faithful). Idempotent; later calls only rebuild extents that
        are still primary.

        The spare bytes are reserved against the disk's capacity first
        (every cataloged extent ends within the object's logical size,
        so ``logical_size`` bounds the materialization) — and *before*
        taking the layer lock, keeping the disk-then-layer lock order
        that every other path uses.
        """
        disk.reserve_spare(name, logical_size)
        sdir = self.spare_path(disk)
        path = sdir / name
        with self._lock:
            sdir.mkdir(exist_ok=True)
            if not path.exists():
                path.touch()
            for ext in self._extents.get((disk.disk_id, name), []):
                if ext.spare:
                    continue
                data = self._reconstruct(ext)
                with open(path, "r+b") as fh:
                    size = fh.seek(0, os.SEEK_END)
                    if ext.offset > size:
                        fh.write(b"\0" * (ext.offset - size))
                    fh.seek(ext.offset)
                    fh.write(data)
                ext.spare = True
            size = path.stat().st_size
            if size < logical_size:
                with open(path, "r+b") as fh:
                    fh.seek(size)
                    fh.write(b"\0" * (logical_size - size))
        return path

    def can_repair(self, disk_id: int, name: str, extents) -> bool:
        """True when every listed ``(offset, length)`` block is an
        intact stripe member that reconstruction could rebuild."""
        with self._lock:
            cataloged = {
                (e.offset, e.length): e
                for e in self._extents.get((disk_id, name), [])
            }
            for off, ln in extents:
                ext = cataloged.get((off, ln))
                if ext is None:
                    return False
                for member in self._rows[ext.row].values():
                    if member is not ext and not self._readable(member):
                        return False
        return True

    def repair(self, disk, name: str, extents) -> int:
        """Rewrite corrupt blocks in place from parity; returns the
        number of blocks repaired."""
        repaired = 0
        with self._lock:
            cataloged = {
                (e.offset, e.length): e
                for e in self._extents.get((disk.disk_id, name), [])
            }
            for off, ln in extents:
                ext = cataloged.get((off, ln))
                if ext is None:
                    raise CorruptionError(
                        disk.disk_id, name, [(off, ln)], repairable=False
                    )
                data = self._reconstruct(ext)
                with open(self._extent_file(ext), "r+b") as fh:
                    fh.seek(ext.offset)
                    fh.write(data)
                repaired += 1
        self.counters.repaired_blocks += repaired
        return repaired


def attach_durability(
    disks: list,
    parity: bool = False,
    dead_after: int = 1,
) -> tuple[DiskQuarantine, ParityLayer | None]:
    """Wire a disk array's durability hooks, idempotently.

    Creates (or reuses) one :class:`DiskQuarantine` shared by the
    array, and — when ``parity=True`` — one :class:`ParityLayer`.
    Returns ``(quarantine, layer-or-None)``.
    """
    if not disks:
        raise ConfigError("cannot attach durability to an empty disk array")
    quarantine = getattr(disks[0], "quarantine", None)
    if quarantine is None:
        quarantine = DiskQuarantine(dead_after=dead_after)
        for disk in disks:
            disk.quarantine = quarantine
    layer = getattr(disks[0], "parity_layer", None)
    if parity and layer is None:
        layer = ParityLayer(disks, quarantine)
        for disk in disks:
            disk.parity_layer = layer
    return quarantine, layer
