"""A file-backed virtual disk.

One disk = one directory; the data objects on it (columns, PDM stripes,
temporaries) are files addressed by name with byte-offset reads and
writes — the same access pattern as the paper's C ``stdio`` I/O.

Beyond plain I/O the disk supports what the failure-injection and chaos
tests need: an optional capacity limit
(:class:`~repro.errors.DiskFullError` on overflow), a read-only mode,
and fault injection through an attached
:class:`~repro.resilience.faults.FaultPlan`. An attached
:class:`~repro.resilience.retry.RetryPolicy` makes ``read_at`` /
``write_extents`` retry transient faults with metered retry counts.

Durability (always on): every write records a per-extent block CRC in a
:class:`~repro.durability.checksums.BlockChecksums` catalog (in memory;
its sidecars are persisted at pass boundaries and made durable by
:meth:`VirtualDisk.sync`) and every read verifies the extents tiling
the range, raising :class:`~repro.errors.CorruptionError` on a
mismatch. A permanent fault (a dead disk) is never retried: it fails
the op with an error that names the disk.

Writes: :meth:`VirtualDisk.write_extents` is the one write path — a
list of ``(name, offset, data)`` extents, one disk operation per call
(a round's segments for this disk); ``write_at`` is its one-extent
call.

Descriptors: a write opens an object's file on its first extent and
keeps the descriptor until :meth:`VirtualDisk.flush` — the pass
boundary — closes it, the way the paper's files stay open for a pass.
Writes go straight through ``pwrite`` (no user-space buffer), so what a
crash leaves on disk does not depend on which descriptors were open.
"""

from __future__ import annotations

import errno
import os
import resource
import threading
import time
from collections import OrderedDict
from pathlib import Path

from repro.disks.iostats import IoStats
from repro.durability.checksums import BlockChecksums
from repro.durability.hashing import file_digest
from repro.errors import CorruptionError, DiskError, DiskFullError


def _pwrite_all(fd: int, data, offset: int, nbytes: int) -> None:
    """``os.pwrite`` all ``nbytes`` of ``data`` at ``offset`` (a short
    write — signal, quota edge — resumes where it stopped)."""
    done = os.pwrite(fd, data, offset)
    if done == nbytes:
        return
    view = memoryview(data).cast("B")[done:]
    while view.nbytes:
        offset += done
        done = os.pwrite(fd, view, offset)
        view = view[done:]


def _nbytes(data) -> int:
    """Byte length of a buffer — ``nbytes``, not ``len()``: ``len()`` of
    a record array counts records. An array's own ``nbytes`` is read
    without exporting its buffer (a ``memoryview`` of a record array
    costs about a microsecond)."""
    nbytes = getattr(data, "nbytes", None)
    return memoryview(data).nbytes if nbytes is None else nbytes


def _fd_budget() -> int:
    """Descriptors one disk array may keep open between pass boundaries:
    a quarter of the soft ``RLIMIT_NOFILE`` (two arrays may be live in
    one process — the service daemon's workers — beside sockets, shared
    memory and the interpreter's own files)."""
    soft, _hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    return 4096 if soft == resource.RLIM_INFINITY else max(1, soft // 4)


class VirtualDisk:
    """A directory-backed disk with byte-offset block I/O.

    Parameters
    ----------
    root:
        Directory holding this disk's files (created if missing).
    disk_id:
        The disk's index in the cluster's disk array.
    capacity_bytes:
        Optional hard capacity; writes that would grow total usage past
        it raise :class:`DiskFullError` (the paper's experiments were
        disk-space limited — footnote 7).
    stats:
        Optional shared :class:`IoStats`; a private one is created
        otherwise.

    Optional attributes hook in the resilience, durability, and
    governance layers: ``cancel_token`` (a
    :class:`~repro.governor.CancelToken` making every op attempt a
    cancellation point), ``fault_plan`` (a
    :class:`~repro.resilience.faults.FaultPlan` consulted before each
    read and each written extent, ahead of its side effects),
    and ``retry_policy`` (a
    :class:`~repro.resilience.retry.RetryPolicy` that retries transient
    failures, metering each retry into :attr:`stats`).
    """

    def __init__(
        self,
        root: str | Path,
        disk_id: int = 0,
        capacity_bytes: int | None = None,
        stats: IoStats | None = None,
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.disk_id = disk_id
        self.capacity_bytes = capacity_bytes
        self.stats = stats if stats is not None else IoStats()
        self.read_only = False
        self.fault_plan = None
        self.retry_policy = None
        self.cancel_token = None
        # Re-entrant: refresh and _open_handle call close_handles with
        # the lock held.
        self._lock = threading.RLock()
        # Kept write descriptors, name -> fd, least recently used first,
        # at most handle_budget (make_disk_array shares one budget out).
        self._handles: OrderedDict[str, int] = OrderedDict()
        self.handle_budget = _fd_budget()
        self.refresh()

    def __del__(self) -> None:
        # Raw descriptors are not closed by garbage collection.
        try:
            self.close_handles()
        except Exception:  # interpreter shutdown
            pass

    def refresh(self) -> None:
        """Take this disk's state from its directory: object sizes from
        the files there, the checksum catalog from the persisted
        sidecars (extents recorded but never flushed are forgotten).

        For an owner whose copy went stale because another process
        wrote the disk: the process transport calls it on the parent's
        disks once the forked ranks — which held the only up-to-date
        copies — have exited."""
        with self._lock:
            self.close_handles()
            self._sizes = {
                path.name: path.stat().st_size
                for path in self.root.iterdir()
                if path.is_file()
            }
            # Running total of the object sizes, kept by every site
            # that changes them, so the capacity check of a write is
            # O(1) rather than a sum over the disk's objects.
            self._used = sum(self._sizes.values())
            self.checksums = BlockChecksums(self.root)

    # ------------------------------------------------------------------

    def _path(self, name: str) -> Path:
        if "/" in name or name.startswith("."):
            raise DiskError(f"invalid object name {name!r}")
        return self.root / name

    def _open_handle(self, name: str) -> int:
        """Open (create, validate the name of) the kept write descriptor
        of ``name`` on its first use since the last :meth:`flush`,
        evicting the least recently used one at the budget. Caller holds
        the lock and has found no descriptor for ``name``."""
        while len(self._handles) >= self.handle_budget:
            os.close(self._handles.popitem(last=False)[1])
        path = self._path(name)
        for last_try in (False, True):
            try:
                fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o666)
                break
            except OSError as exc:
                # Out of descriptors process-wide: give ours back, retry.
                if last_try or exc.errno not in (errno.EMFILE, errno.ENFILE):
                    raise
                self.close_handles()
        self._handles[name] = fd
        return fd

    def close_handles(self) -> None:
        """Close every kept descriptor (the next write reopens its own)."""
        with self._lock:
            while self._handles:
                os.close(self._handles.popitem()[1])

    def flush(self) -> None:
        """The pass boundary: close the kept descriptors and persist
        the block-checksum sidecars of everything written so far."""
        self.close_handles()
        self.checksums.flush()

    def _run_op(self, op: str, fn, position=None):
        """Run one read/write body under the fault plan and retry
        policy.

        ``fn()`` runs once per attempt. Its body consults the fault
        plan *before* each extent's side effects, so an injected fault
        never leaves a half-applied extent behind and a retried extent
        is indistinguishable from a fresh one.

        A batch body reports through ``position()`` the extent it has
        reached, and its next attempt resumes there. A failure at a
        later extent than the last failure starts that extent's retry
        budget afresh, so every extent is retried exactly as a
        one-extent op would be.

        The retry policy refuses :class:`~repro.errors.DiskFullError`
        (backoff cannot free space), so ENOSPC fails the op at once. An
        attached ``cancel_token`` makes every attempt (and every
        backoff sleep) a cancellation point.
        """
        policy = self.retry_policy
        attempt = 1
        failed_at = 0
        while True:
            token = self.cancel_token
            if token is not None and token.cancelled():
                raise token.exception()
            try:
                return fn()
            except BaseException as exc:
                if position is not None and position() != failed_at:
                    failed_at = position()
                    attempt = 1
                if (
                    policy is None
                    or attempt >= policy.max_attempts
                    or not policy.retryable(exc)
                ):
                    raise
                self.stats.record_retry(op)
                if token is not None:
                    token.sleep(policy.delay_s(attempt))
                else:
                    time.sleep(policy.delay_s(attempt))
                attempt += 1

    # ------------------------------------------------------------------

    def size(self, name: str) -> int:
        """Current size of an object (0 if absent)."""
        with self._lock:
            return self._sizes.get(name, 0)

    def files(self) -> list[str]:
        """Names of the objects on this disk."""
        with self._lock:
            return sorted(self._sizes)

    # ------------------------------------------------------------------

    def _verify(self, name: str, offset: int, view, nbytes: int) -> None:
        """Check the read bytes against the block-checksum catalog and
        meter the read (one :class:`IoStats` update)."""
        bad, hashed, checked = self.checksums.verify(name, offset, view)
        if bad:
            self.stats.record_checksum_failure(len(bad), hashed)
            raise CorruptionError(self.disk_id, name, bad)
        self.stats.record_read(nbytes, hashed, checked)

    def write_at(
        self, name: str, offset: int, data: bytes | bytearray | memoryview
    ) -> None:
        """Write ``data`` (any C-contiguous buffer — bytes, a record
        array, a memoryview, ...) at byte ``offset``, growing the file if
        needed: the one-extent spelling of :meth:`write_extents`."""
        self.write_extents([(name, offset, data)])

    def write_extents(self, extents, append: bool = False) -> None:
        """Write each ``(name, offset, data)`` extent, in order, as one
        disk operation — a round's segments bound for this disk.

        Once per call: the cancel check, the disk lock, the
        :class:`IoStats` update and the checksum-catalog insert. Per
        extent, in list order, inline: the fault-plan check (when a plan
        is attached), the capacity check, the descriptor lookup, the gap
        zero-fill, the ``pwrite`` and the size update; the catalog
        insert hashes each landed extent once. So ``IoStats.writes``
        counts extents, the fault plan counts extent attempts, and a
        retried call resumes at the extent that failed
        (:meth:`_run_op`); the extents before it have landed and are
        counted.

        ``append`` marks a column store's cursor appends: an extent
        landing where its object's last cataloged extent ends extends
        that extent (:meth:`BlockChecksums.insert
        <repro.durability.checksums.BlockChecksums.insert>`)."""
        if self.read_only:
            raise DiskError(f"disk {self.disk_id} is read-only")
        batch = []
        for name, offset, data in extents:
            if offset < 0:
                raise DiskError(f"negative write offset {offset}")
            batch.append((name, offset, data, _nbytes(data)))
        done = 0  # extents landed; the next attempt starts at batch[done]

        def body() -> None:
            nonlocal done
            start = done
            plan, capacity = self.fault_plan, self.capacity_bytes
            with self._lock:
                sizes, handles = self._sizes, self._handles
                try:
                    for name, offset, data, nbytes in batch[start:]:
                        if plan is not None:
                            plan.check(
                                "write",
                                where=f"on disk {self.disk_id}",
                                disk_id=self.disk_id,
                            )
                        old_size = sizes.get(name, 0)
                        end = offset + nbytes
                        grow = end - old_size
                        if (
                            capacity is not None
                            and grow > 0
                            and self._used + grow > capacity
                        ):
                            raise DiskFullError(
                                f"disk {self.disk_id} full: cannot grow {name!r} "
                                f"by {grow} bytes (capacity {capacity})"
                            )
                        fd = handles.get(name)
                        if fd is None:
                            fd = self._open_handle(name)
                        else:
                            handles.move_to_end(name)
                        if offset > old_size:
                            # Explicitly zero-fill the gap so reads are defined.
                            gap = offset - old_size
                            _pwrite_all(fd, bytes(gap), old_size, gap)
                        _pwrite_all(fd, data, offset, nbytes)
                        sizes[name] = max(old_size, end)
                        if grow > 0:
                            self._used += grow
                        done += 1
                finally:
                    if done > start:
                        landed = batch[start:done]
                        self.checksums.insert(landed, append=append)
                        nbytes = sum(extent[3] for extent in landed)
                        self.stats.record_write(nbytes, done - start, hashed=nbytes)

        self._run_op("write", body, position=lambda: done)

    def read_at(
        self, name: str, offset: int, nbytes: int, out: "object | None" = None
    ) -> object:
        """Read exactly ``nbytes`` from byte ``offset``; raises
        :class:`DiskError` on a short read, :class:`CorruptionError` if
        a cataloged block checksum does not match the bytes read.

        With ``out`` (a writable buffer of exactly ``nbytes`` — e.g. a
        pooled record array), bytes land directly in it via ``readinto``
        and ``out`` itself is returned; otherwise a fresh ``bytes``."""
        if offset < 0 or nbytes < 0:
            raise DiskError(f"invalid read range ({offset}, {nbytes})")
        path = self._path(name)

        def body() -> object:
            plan = self.fault_plan
            if plan is not None:
                plan.check("read", where=f"on disk {self.disk_id}", disk_id=self.disk_id)
            if not path.exists():
                raise DiskError(f"no object {name!r} on disk {self.disk_id}")
            if out is not None:
                mv = memoryview(out)
                if mv.nbytes != nbytes:
                    raise DiskError(
                        f"read buffer holds {mv.nbytes} bytes, wanted {nbytes}"
                    )
                with open(path, "rb") as fh:
                    fh.seek(offset)
                    got = fh.readinto(mv)
                if got != nbytes:
                    raise DiskError(
                        f"short read of {name!r} on disk {self.disk_id}: wanted "
                        f"{nbytes} bytes at offset {offset}, got {got}"
                    )
                self._verify(name, offset, mv, nbytes)
                return out
            with open(path, "rb") as fh:
                fh.seek(offset)
                data = fh.read(nbytes)
            if len(data) != nbytes:
                raise DiskError(
                    f"short read of {name!r} on disk {self.disk_id}: wanted "
                    f"{nbytes} bytes at offset {offset}, got {len(data)}"
                )
            self._verify(name, offset, data, nbytes)
            return data

        return self._run_op("read", body)

    def delete(self, name: str) -> None:
        """Remove an object (no error if absent)."""
        if self.read_only:
            raise DiskError(f"disk {self.disk_id} is read-only")
        path = self._path(name)
        with self._lock:
            fd = self._handles.pop(name, None)
            if fd is not None:
                # A later write must recreate the file, not land in the
                # unlinked inode.
                os.close(fd)
            self._used -= self._sizes.pop(name, 0)
            self.checksums.drop(name)
            if path.exists():
                os.unlink(path)

    def sync(self) -> int:
        """Durability barrier: fsync every object file on this disk,
        the disk's root directory (file creations), and the
        block-checksum sidecars (:meth:`BlockChecksums.sync
        <repro.durability.checksums.BlockChecksums.sync>`).

        Data-plane writes are deliberately page-cache-buffered — the
        paper's 3N/4N byte counts describe data movement, not
        durability traffic — so this barrier is where crash-consistency
        is bought, and the checkpoint layer invokes it before a pass
        manifest becomes durable. Returns the number of files flushed.
        Unmetered (like :meth:`fingerprint`): a barrier moves no data.
        """
        with self._lock:
            names = sorted(self._sizes)
        flushed = 0
        for name in names:
            path = self._path(name)
            if not path.exists():
                # Deleted through another process's copy of this disk (a
                # process-backend rank's, at a pass boundary): this size
                # table is stale, and nothing is left to flush.
                continue
            fd = os.open(path, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
            flushed += 1
        dir_fd = os.open(self.root, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
        flushed += self.checksums.sync()
        return flushed

    def fingerprint(self, name: str) -> str:
        """SHA-256 hex digest of one object's bytes (shared
        :mod:`repro.durability.hashing` algorithm, so checkpoint
        digests and disk fingerprints cannot drift).

        Unmetered and exempt from fault injection: checkpoint digests
        are bookkeeping, not data movement, and must not perturb the
        byte-exact pass accounting the integration tests assert.
        """
        path = self._path(name)
        if not path.exists():
            raise DiskError(f"no object {name!r} on disk {self.disk_id}")
        return file_digest(path)


def make_disk_array(
    root: str | Path,
    count: int,
    capacity_bytes: int | None = None,
) -> list[VirtualDisk]:
    """Create ``count`` disks under ``root`` (one subdirectory each)."""
    root = Path(root)
    disks = [
        VirtualDisk(root / f"disk{d:03d}", disk_id=d, capacity_bytes=capacity_bytes)
        for d in range(count)
    ]
    share = max(1, _fd_budget() // count)
    for disk in disks:
        disk.handle_budget = share
    return disks
