"""Out-of-core matrix and output stores.

Two layouts, matching the paper's data placement (§2):

* :class:`ColumnStore` — the ``r × s`` matrix, each column striped over
  a group of ``g`` processors (``r = g·M/P``): whole columns owned by
  processor ``j mod P`` at ``g = 1`` (threaded and subblock
  columnsort), every column spanning the cluster at ``g = P``
  (M-columnsort: processor ``p`` holds rows ``[p·r/P, (p+1)·r/P)`` on
  its own disks), the §6 adjustable interpretation in between;
* :class:`PdmStore` — the final output in PDM striped ordering.

Intermediate passes exploit a freedom the real implementation also
exploits (footnote 5 discusses the write-pattern/sorted-run interplay):
records within a column may be stored in any order between passes,
because the next pass begins by sorting the column. The ``append_*``
methods exist for exactly that — the subblock pass routes unequal
record counts to a column in different rounds, so positions are
assigned by arrival, not by source.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.cluster.config import ClusterConfig
from repro.disks.pdm import split_range_by_disk, split_range_by_owner
from repro.disks.virtual_disk import VirtualDisk
from repro.errors import ConfigError, DiskError
from repro.membuf import copy_stats, get_pool
from repro.records.format import RecordFormat

#: Bytes of output a whole-output pass (:meth:`PdmStore.chunks`) holds
#: at once, rounded down to whole PDM stripes.
CHUNK_BYTES = 4 << 20


class _StoreBase:
    def __init__(
        self,
        cfg: ClusterConfig,
        fmt: RecordFormat,
        disks: list[VirtualDisk],
        name: str,
    ) -> None:
        if len(disks) != cfg.virtual_disks:
            raise ConfigError(
                f"store needs {cfg.virtual_disks} disks, got {len(disks)}"
            )
        self.cfg = cfg
        self.fmt = fmt
        self.disks = disks
        self.name = name

    def _read_records(
        self,
        disk: VirtualDisk,
        file: str,
        offset_records: int,
        n: int,
        reuse: bool = False,
    ) -> np.ndarray:
        """Read ``n`` records at record offset ``offset_records``.

        Bytes land via ``readinto`` in a fresh array, or — with
        ``reuse=True`` — in a tracked :class:`BufferPool` lease the
        caller must eventually :meth:`~BufferPool.recycle`.
        """
        nbytes = self.fmt.nbytes(n)
        offset = self.fmt.nbytes(offset_records)
        pool = get_pool() if reuse else None
        out = pool.lease(self.fmt.dtype, n) if pool else self.fmt.empty(n)
        try:
            disk.read_at(file, offset, nbytes, out=out)
        except BaseException:
            if pool:
                pool.recycle(out)
            raise
        copy_stats().record_zero_copy(nbytes)
        return out

    def _write(self, extents, append: bool = False) -> None:
        """Write ``(disk, file, record offset, records)`` extents in
        list order: one :meth:`VirtualDisk.write_extents` call per run
        of consecutive extents on one disk — one per round at one disk
        per processor, the paper's testbed — and one zero-copy meter
        update. Splitting only at disk changes keeps the ``pwrite`` and
        fault-plan order of the list. ``append`` passes through: the
        disk chains an append onto the checksum extent it continues."""
        size = self.fmt.record_size
        views = self.fmt.wire_views([extent[3] for extent in extents])
        run: list = []
        run_disk = None
        for (disk, file, at, _records), view in zip(extents, views):
            if disk is not run_disk:
                if run:
                    run_disk.write_extents(run, append=append)
                run, run_disk = [], disk
            run.append((file, at * size, view))
        if run:
            run_disk.write_extents(run, append=append)


class ColumnStore(_StoreBase):
    """An ``r × s`` matrix under the height interpretation
    ``r = g·M/P``, ``1 ≤ g ≤ P`` (§2, §4, §6).

    Processors form ``G = P/g`` groups of ``g``; column ``j`` is owned
    by group ``j mod G`` and striped over that group's members, ``r/g``
    records (one *portion*) each, on the member's own disks (cycling
    over its ``D/P`` disks by column). At the default ``g = 1`` a
    portion is the whole column, owned by processor ``j mod P``
    (threaded and subblock columnsort); ``g = P`` is M-columnsort's
    layout, one group and every column spanning the cluster.
    """

    def __init__(
        self,
        cfg: ClusterConfig,
        fmt: RecordFormat,
        r: int,
        s: int,
        disks: list[VirtualDisk],
        name: str = "matrix",
        group_size: int = 1,
    ) -> None:
        super().__init__(cfg, fmt, disks, name)
        g = group_size
        if g < 1 or cfg.p % g:
            raise ConfigError(f"group size g={g} must divide P={cfg.p}")
        if r % g:
            raise ConfigError(
                f"group size g={g} must divide the column height r={r}"
            )
        if s % (cfg.p // g):
            raise ConfigError(f"group count G={cfg.p // g} must divide s={s}")
        self.g = g
        self.groups = cfg.p // g
        self.r = r
        self.s = s
        self.portion = r // g
        self._cursors: dict[tuple[int, int], int] = {}
        self._cursor_lock = threading.Lock()
        # (rank, column) -> (disk, file name) of every portion: fixed by
        # r, s, g and the name, so resolved here and not per access.
        self._where = {
            (rank, j): (self._disk_for(j, rank), self._file(j, rank % g))
            for j, rank, _rows in self._portions()
        }

    # -- placement ------------------------------------------------------

    def rank_of(self, j: int, member: int) -> int:
        """World rank of a member of column ``j``'s owning group."""
        if not 0 <= j < self.s:
            raise ConfigError(f"column {j} out of range for s={self.s}")
        if not 0 <= member < self.g:
            raise ConfigError(f"member {member} out of range for g={self.g}")
        return (j % self.groups) * self.g + member

    def _check_access(self, rank: int, j: int) -> tuple[VirtualDisk, str]:
        """Refuse a rank outside column ``j``'s owning group; return the
        ``(disk, file name)`` of the rank's portion."""
        self.cfg.check_rank(rank)
        if not 0 <= j < self.s:
            raise ConfigError(f"column {j} out of range for s={self.s}")
        group = rank // self.g
        if group != j % self.groups:
            raise DiskError(
                f"rank {rank} (group {group}) cannot access column {j} "
                f"(owned by group {j % self.groups})"
            )
        return self._where[rank, j]

    def _file(self, j: int, member: int) -> str:
        return f"{self.name}.col{j:06d}.part{member:03d}"

    def _disk_for(self, j: int, rank: int) -> VirtualDisk:
        owned = list(self.cfg.disks_of(rank))
        return self.disks[owned[(j // self.groups) % len(owned)]]

    # -- portion I/O ------------------------------------------------------

    def read_portion(self, rank: int, j: int, reuse: bool = False) -> np.ndarray:
        """Read rank's portion of column ``j``. ``reuse=True`` returns a
        tracked pool lease the caller must recycle."""
        disk, file = self._check_access(rank, j)
        return self._read_records(disk, file, 0, self.portion, reuse=reuse)

    def write_portion(self, rank: int, j: int, records: np.ndarray) -> None:
        """Write rank's full portion (``r/g`` records) of column ``j``."""
        disk, file = self._check_access(rank, j)
        if len(records) != self.portion:
            raise ConfigError(
                f"portion must hold r/g={self.portion} records, got {len(records)}"
            )
        disk.write_at(file, 0, self.fmt.wire_views([records])[0])

    def append_segments(self, rank: int, segments) -> None:
        """Append each ``(j, records)`` of ``segments`` to the rank's
        portion of column ``j`` at its cursor (positions assigned by
        arrival; the next pass sorts the column) — a round's appends as
        one store call, written in list order.

        Thread-safe: every cursor range is reserved under one lock hold,
        so concurrent appenders (the rank thread plus a write-behind
        flusher) land in disjoint rows; a list with an overflowing
        segment reserves nothing.

        An append that continues the portion's last checksum extent
        extends it (the CRC runs on), so a portion written in order is
        one cataloged extent and :meth:`read_portion` verifies it with
        one call; an append that lands out of order is its own extent."""
        try:
            where = [self._where[rank, j] for j, _records in segments]
        except KeyError:
            for j, _records in segments:
                self._check_access(rank, j)  # names the refused access
            raise
        extents = []
        with self._cursor_lock:
            reserved: dict[tuple[int, int], int] = {}
            for (disk, file), (j, records) in zip(where, segments):
                key = (j, rank)
                cursor = reserved.get(key)
                if cursor is None:
                    cursor = self._cursors.get(key, 0)
                if cursor + len(records) > self.portion:
                    raise ConfigError(
                        f"append of {len(records)} records overflows portion of "
                        f"column {j} (cursor {cursor}, portion {self.portion})"
                    )
                extents.append((disk, file, cursor, records))
                reserved[key] = cursor + len(records)
            self._cursors.update(reserved)
        self._write(extents, append=True)

    def reset_cursors(self) -> None:
        """Clear append cursors (before re-running a pass that appends)."""
        with self._cursor_lock:
            self._cursors.clear()

    def cursor(self, rank: int, j: int) -> int:
        """Records already appended to rank's portion of column ``j``."""
        with self._cursor_lock:
            return self._cursors.get((j, rank), 0)

    # -- bulk load/dump ----------------------------------------------------

    def _portions(self):
        """``(column, owning rank, row slice)`` of every portion."""
        for j in range(self.s):
            for member in range(self.g):
                yield j, self.rank_of(j, member), slice(
                    j * self.r + member * self.portion,
                    j * self.r + (member + 1) * self.portion,
                )

    @classmethod
    def from_records(
        cls,
        cfg: ClusterConfig,
        fmt: RecordFormat,
        records: np.ndarray,
        r: int,
        s: int,
        disks: list[VirtualDisk],
        name: str = "input",
        group_size: int = 1,
    ) -> "ColumnStore":
        """Create a store holding ``records`` in column-major order."""
        if len(records) != r * s:
            raise ConfigError(f"need exactly r·s={r * s} records, got {len(records)}")
        store = cls(cfg, fmt, r, s, disks, name, group_size=group_size)
        for j, rank, rows in store._portions():
            store.write_portion(rank, j, records[rows])
        return store

    def to_records(self) -> np.ndarray:
        """Read the whole matrix back in column-major order."""
        out = self.fmt.empty(self.r * self.s)
        for j, rank, rows in self._portions():
            out[rows] = self.read_portion(rank, j)
        return out

    def delete(self) -> None:
        """Remove all portion files (frees simulated disk space)."""
        for disk, file in self._where.values():
            disk.delete(file)


class PdmStore(_StoreBase):
    """The sorted output, in PDM striped ordering.

    Global record ``g`` lives in block ``g div B`` on disk
    ``(g div B) mod D``; disk ``d`` is written by processor ``d mod P``.
    """

    def __init__(
        self,
        cfg: ClusterConfig,
        fmt: RecordFormat,
        n: int,
        disks: list[VirtualDisk],
        block_records: int,
        name: str = "output",
    ) -> None:
        super().__init__(cfg, fmt, disks, name)
        if block_records <= 0:
            raise ConfigError(f"block size must be positive, got {block_records}")
        self.n = n
        self.block = block_records

    def _file(self, disk: int) -> str:
        return f"{self.name}.pdm{disk:03d}"

    def split_by_owner(self, start: int, count: int) -> dict[int, list]:
        """Group ``[start, start+count)`` into per-owning-processor piece
        lists — the routing table for the final communicate stage."""
        self._check_range(start, count)
        return split_range_by_owner(
            start, count, self.block, self.cfg.virtual_disks, self.cfg.p
        )

    def write_pieces(self, rank: int, pieces) -> None:
        """Write each ``(start, records)`` of ``pieces`` at global
        positions ``[start, start+len)`` — a round's output as one store
        call, written in list order. Every touched block must live on
        one of ``rank``'s disks; a refused piece list writes nothing."""
        extents = []
        for start, records in pieces:
            self._check_range(start, len(records))
            for disk, offset, rel, n in split_range_by_disk(
                start, len(records), self.block, self.cfg.virtual_disks
            ):
                if self.cfg.owner_of_disk(disk) != rank:
                    raise DiskError(
                        f"rank {rank} cannot write global records at disk {disk} "
                        f"(owned by rank {self.cfg.owner_of_disk(disk)})"
                    )
                extents.append(
                    (self.disks[disk], self._file(disk), offset, records[rel : rel + n])
                )
        self._write(extents)

    def read_global(
        self, start: int, count: int, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Read ``[start, start+count)`` in global order, into ``out``
        (``count`` C-contiguous records) when given."""
        self._check_range(start, count)
        if out is None:
            out = self.fmt.empty(count)
        for disk, offset, rel, n in split_range_by_disk(
            start, count, self.block, self.cfg.virtual_disks
        ):
            # A step-1 slice of a fresh array is C-contiguous, so the
            # read lands in place — no staging buffer.
            self.disks[disk].read_at(
                self._file(disk),
                self.fmt.nbytes(offset),
                self.fmt.nbytes(n),
                out=out[rel : rel + n],
            )
            copy_stats().record_zero_copy(self.fmt.nbytes(n))
        return out

    def read_all(self) -> np.ndarray:
        """The full output in global order."""
        return self.read_global(0, self.n)

    def chunks(self):
        """Yield ``(start, records)`` over the whole output in global
        order, whole stripes at a time (about :data:`CHUNK_BYTES`, never
        less than one stripe) — how a whole-output pass (verification,
        the output digest) touches N records in bounded memory. Every
        chunk lands in one reused buffer: it is valid until the next
        one is read."""
        stripe = self.block * self.cfg.virtual_disks
        step = max(1, CHUNK_BYTES // self.fmt.nbytes(stripe)) * stripe
        buf = self.fmt.empty(min(step, self.n))
        for start in range(0, self.n, step):
            count = min(step, self.n - start)
            yield start, self.read_global(start, count, out=buf[:count])

    def _check_range(self, start: int, count: int) -> None:
        if start < 0 or count < 0 or start + count > self.n:
            raise ConfigError(
                f"global range [{start}, {start + count}) exceeds N={self.n}"
            )

    def delete(self) -> None:
        for disk in range(self.cfg.virtual_disks):
            self.disks[disk].delete(self._file(disk))
