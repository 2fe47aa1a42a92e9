"""Per-extent block-checksum catalog for one virtual disk.

Every extent :meth:`~repro.disks.virtual_disk.VirtualDisk.write_extents`
writes gets a CRC recorded here; every ``read_at`` verifies the extents
that tile the read range. The catalog is persisted as one JSON sidecar
per object under ``<disk root>/.meta/`` (a dot-directory, invisible to
the disk's object namespace), so checksums survive process restarts and
a ``--resume`` can detect corruption introduced while the job was down.

The catalog is deliberately extent-based rather than fixed-block-based:
the matrixfile stores write whole columns, column segments, and PDM
block ranges, and always read ranges that those write extents tile
exactly. An extent only partially covered by a later write is dropped
from the catalog (its old checksum no longer describes the file), which
matches the raw-disk semantics the disk unit tests pin down.

Sidecar persistence is *batched*, sidecar durability *barriered* —
neither is per-write. :meth:`BlockChecksums.insert` only updates the
in-memory catalog; :meth:`BlockChecksums.flush` rewrites the sidecar of
every object recorded since the last flush (atomically: temp file +
``os.replace``, which a process crash cannot tear), and the pass
programs call it at every pass boundary
(:meth:`~repro.oocs.base.PassMarker.mark`) and after the input load.
:meth:`BlockChecksums.sync` flushes, then fsyncs every sidecar changed
since the last barrier and the ``.meta/`` directory itself. The
checkpoint layer calls it before a pass manifest becomes durable, so a
durable manifest can never point at sidecars (or sidecar renames) that
power loss would roll back — the crashsim harness enumerates exactly
those states (DESIGN §14).

What a crash leaves: a *process* crash mid-pass leaves the output that
pass had written so far without sidecars (or, for an object an earlier
pass also wrote, with that pass's sidecar — a stale CRC can only
*refuse* bytes, never accept wrong ones). Resume never reads either: a
resume point is a pass boundary behind the ``sync()`` barrier, and the
store an in-flight pass was writing is re-run from its first write or
deleted.
"""

from __future__ import annotations

import json
import threading
from bisect import bisect_left
from pathlib import Path

from repro.durability.atomic import atomic_write_json, fsync_dir, fsync_file
from repro.durability.hashing import CHECKSUM_ALGO, block_checksum


class BlockChecksums:
    """CRC catalog for the objects of one disk, with sidecar persistence."""

    def __init__(self, root: str | Path) -> None:
        self._dir = Path(root) / ".meta"
        self._lock = threading.Lock()
        #: name -> list of [offset, length, crc], sorted by offset and
        #: pairwise non-overlapping (:meth:`record` keeps it so).
        self._extents: dict[str, list[list[int]]] = {}
        #: names recorded since the last :meth:`flush`.
        self._unflushed: set[str] = set()
        #: names whose sidecar changed since the last :meth:`sync`.
        self._dirty: set[str] = set()
        self._have_dir = self._dir.is_dir()
        if self._have_dir:
            # A kill between the temp write and os.replace strands the
            # temp file; nothing ever loads it.
            for stranded in self._dir.glob("*.json.tmp"):
                try:
                    stranded.unlink()
                except OSError:
                    pass
            for sidecar in self._dir.glob("*.json"):
                try:
                    doc = json.loads(sidecar.read_text())
                except (OSError, ValueError):
                    continue
                # A sidecar written with a different CRC algorithm (other
                # environment) is unusable: discard instead of misreading
                # every mismatch as corruption.
                if doc.get("algo") != CHECKSUM_ALGO:
                    continue
                name = doc.get("name")
                extents = doc.get("extents")
                if isinstance(name, str) and isinstance(extents, list):
                    self._extents[name] = sorted(
                        [list(map(int, e)) for e in extents]
                    )

    # ------------------------------------------------------------------

    def _sidecar(self, name: str) -> Path:
        return self._dir / f"{name}.json"

    def flush(self) -> int:
        """Rewrite the sidecar of every object recorded since the last
        flush, atomically but buffered (see :meth:`sync` for the
        durability barrier). Returns the number of sidecars written."""
        with self._lock:
            if self._unflushed and not self._have_dir:
                self._dir.mkdir(exist_ok=True)
                self._have_dir = True
            # Sorted: a run's crashsim op log must not depend on set order.
            for name in sorted(self._unflushed):
                doc = {
                    "algo": CHECKSUM_ALGO,
                    "name": name,
                    "extents": self._extents[name],
                }
                atomic_write_json(self._sidecar(name), doc, durable=False)
                self._dirty.add(name)
            flushed = len(self._unflushed)
            self._unflushed.clear()
            return flushed

    def sync(self) -> int:
        """Durability barrier: :meth:`flush`, fsync every sidecar
        changed since the last barrier, then fsync ``.meta/`` itself
        (making the renames — and any unlinks from :meth:`drop` —
        durable). Returns the number of sidecars fsynced.

        Between barriers a power loss may roll a sidecar back to an
        older generation (the rename was buffered); that is safe by
        construction — a stale CRC can only *refuse* bytes, never
        accept wrong ones — and the checkpoint layer calls this before
        persisting a manifest so resume points are never built on
        roll-backable metadata.
        """
        self.flush()
        with self._lock:
            dirty, self._dirty = self._dirty, set()
            if not dirty:
                return 0
            flushed = 0
            for name in sorted(dirty):
                sidecar = self._sidecar(name)
                if sidecar.exists():
                    fsync_file(sidecar)
                    flushed += 1
            if self._dir.is_dir():
                fsync_dir(self._dir)
            return flushed

    # ------------------------------------------------------------------

    def record(self, name: str, offset: int, data) -> int:
        """Checksum one written extent and catalog it (:meth:`insert`).

        Returns the number of bytes hashed (for ``IoStats`` metering).
        """
        view = memoryview(data)
        self.insert([(name, offset, view.nbytes, block_checksum(view))])
        return view.nbytes

    def insert(self, extents) -> None:
        """Catalog written ``(name, offset, length, crc)`` extents, in
        order, under one lock hold, folding out any stale overlaps — in
        memory only; :meth:`flush` persists them."""
        with self._lock:
            for name, offset, length, crc in extents:
                end = offset + length
                new = [offset, length, crc]
                extents_of = self._extents.setdefault(name, [])
                last = extents_of[-1] if extents_of else None
                if last is None or last[0] < offset >= last[0] + last[1]:
                    # Past every cataloged extent (a cursor append): where
                    # bisection would put it, without the search.
                    extents_of.append(new)
                else:
                    i = bisect_left(extents_of, [offset])
                    before = extents_of[i - 1] if i else (0, 0)
                    if before[0] + before[1] <= offset and (
                        i == len(extents_of) or extents_of[i][0] >= end
                    ):
                        # Overlaps nothing: no rebuild.
                        extents_of.insert(i, new)
                    else:
                        kept = [
                            e
                            for e in extents_of
                            if e[0] >= end or e[0] + e[1] <= offset
                        ]
                        kept.append(new)
                        kept.sort()
                        self._extents[name] = kept
                self._unflushed.add(name)

    def drop(self, name: str) -> None:
        """Forget an object (on delete); its sidecar goes at once."""
        with self._lock:
            self._extents.pop(name, None)
            self._unflushed.discard(name)
            self._dirty.add(name)
            try:
                self._sidecar(name).unlink()
            except OSError:
                pass

    def extents(self, name: str) -> list[tuple[int, int, int]]:
        """The cataloged ``(offset, length, crc)`` extents of an object."""
        with self._lock:
            return [tuple(e) for e in self._extents.get(name, [])]

    def verify(
        self, name: str, offset: int, view
    ) -> tuple[list[tuple[int, int]], int]:
        """Verify the cataloged extents fully contained in a read.

        ``view`` holds the bytes just read from ``offset``. Returns
        ``(mismatched (offset, length) extents, bytes hashed)``.
        Extents straddling the read boundary are skipped — in practice
        the stores' reads are tiled exactly by their writes.
        """
        mv = memoryview(view).cast("B")
        end = offset + mv.nbytes
        bad: list[tuple[int, int]] = []
        hashed = 0
        with self._lock:
            extents = list(self._extents.get(name, []))
        for off, ln, crc in extents:
            if off < offset or off + ln > end:
                continue
            lo = off - offset
            hashed += ln
            if block_checksum(mv[lo : lo + ln]) != crc:
                bad.append((off, ln))
        return bad, hashed
