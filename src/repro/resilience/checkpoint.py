"""Pass-boundary checkpoints: restart a killed sort at its last pass.

Every out-of-core program is a short sequence of passes, and each pass
rewrites a whole intermediate store from the previous one. That makes
the pass boundary a perfect checkpoint: a tiny manifest (pass index,
matrix shape, the name of the store holding the data, and a content
digest of that store) is enough to resume, because

* a killed pass can simply be re-run — it reads only the previous
  store and fully overwrites its own output, and every pass is
  deterministic given its input bytes, so a resumed run is
  byte-identical to an uninterrupted one;
* nothing else needs saving: append cursors, pipeline state, and pool
  leases are all pass-local.

Manifests are JSON files written atomically (temp file + ``os.replace``)
under one checkpoint directory, one per completed pass; rank 0 writes
them inside the pass-boundary barrier so no rank runs ahead of a
manifest that does not yet exist. On resume the latest manifest is
validated against the job (algorithm, shape) and the digest of the
store it names — any mismatch raises
:class:`~repro.errors.CheckpointError` rather than silently resuming
from the wrong data.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.durability.atomic import atomic_write_json, fsync_dir
from repro.durability.hashing import block_checksum, hexdigest
from repro.errors import CheckpointError

#: Manifest schema version; bump on incompatible changes. Version 2:
#: every column file is ``<store>.colNNNNNN.partMMM`` (one store class),
#: and the manifest records the store's group size ``g``.
MANIFEST_VERSION = 2


def store_digest(store) -> str:
    """Content digest of a matrixfile store: one
    :mod:`repro.durability.hashing` digest over its files' names and
    fingerprints in deterministic (disk, name) order — the same
    algorithm family as the disks' own fingerprints, by construction,
    so the two can never drift.

    Reads through :meth:`~repro.disks.virtual_disk.VirtualDisk.fingerprint`,
    which is unmetered — digesting a store must not perturb the
    byte-exact I/O accounting the integration tests assert.

    Names come from the union of the disk's in-memory size table and a
    filesystem scan of its root: under the process transport backend,
    rank 0 digests the store from a forked worker whose size table only
    tracks its *own* writes, while sibling ranks' files (flushed before
    the pass-boundary barrier) are only visible on the filesystem. A
    name whose file is gone makes the fingerprint raise rather than
    drop silently out of the digest.
    """
    parts = []
    prefix = f"{store.name}."
    for disk in store.disks:
        names = set(disk.files())
        names.update(
            path.name for path in disk.root.iterdir() if path.is_file()
        )
        for name in sorted(names):
            if name.startswith(prefix):
                parts.append(f"{disk.disk_id}:{name}:{disk.fingerprint(name)}")
    return hexdigest("".join(parts).encode())


def corrupt_blocks(store) -> list[tuple[int, str, int, int]]:
    """Blocks of a store whose stored CRC no longer matches the file.

    Returns ``(disk_id, name, offset, length)`` tuples, reading the
    files raw (unmetered, no fault injection) — this is resume-time
    bookkeeping, not data movement. Objects whose file is gone are
    skipped; the store digest reports them.
    """
    bad: list[tuple[int, str, int, int]] = []
    prefix = f"{store.name}."
    for disk in store.disks:
        for name in disk.files():
            if not name.startswith(prefix):
                continue
            path = disk.root / name
            if not path.exists():
                continue
            with open(path, "rb") as fh:
                data = fh.read()
            view = memoryview(data)
            for offset, length, crc in disk.checksums.extents(name):
                if offset + length > len(data):
                    bad.append((disk.disk_id, name, offset, length))
                elif block_checksum(view[offset : offset + length]) != crc:
                    bad.append((disk.disk_id, name, offset, length))
    return bad


def pass_manifest(job, algorithm: str, pass_index: int, total_passes: int,
                  store) -> dict:
    """The manifest recording that ``pass_index`` completed, leaving its
    output in ``store`` (a PDM output has no ``r × s`` layout)."""
    from repro.disks.matrixfile import ColumnStore  # disks imports resilience

    columns = isinstance(store, ColumnStore)
    return {
        "version": MANIFEST_VERSION,
        "algorithm": algorithm,
        "pass_index": pass_index,
        "total_passes": total_passes,
        "n": job.n,
        "r": store.r if columns else None,
        "s": store.s if columns else None,
        "g": store.g if columns else None,
        "buffer_records": job.buffer_records,
        "record_size": job.fmt.record_size,
        "key": job.fmt.key,
        "store": store.name,
        "store_kind": type(store).__name__,
        "digest": store_digest(store),
    }


class CheckpointStore:
    """One directory of pass-boundary manifests for one run."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, pass_index: int) -> Path:
        return self.root / f"pass_{pass_index:04d}.json"

    # -- write -----------------------------------------------------------

    def save(self, manifest: dict) -> None:
        """Persist one manifest crash-atomically.

        Temp file + ``os.replace`` makes the manifest appear all-or-
        nothing to other *processes*, but surviving a machine crash
        needs more: the data must be fsynced before the rename (or the
        rename can land pointing at zero bytes), and the directory must
        be fsynced after it (or the rename itself can be lost). The
        supervisor restarts runs on the strength of these files; a torn
        one would turn recovery into corruption.
        """
        atomic_write_json(
            self._path(manifest["pass_index"]), manifest, indent=2
        )

    def save_pass(self, job, algorithm: str, pass_index: int,
                  total_passes: int, store) -> dict:
        """Build and persist the manifest for one completed pass.

        The manifest is a durable promise about the store it names, so
        the store is flushed *first* (every disk's object files and
        block-checksum sidecars — :meth:`VirtualDisk.sync
        <repro.disks.virtual_disk.VirtualDisk.sync>`): power loss after
        the manifest's rename persisted must find the exact bytes and
        CRCs the manifest's digest was computed over, or resume
        validation could refuse (or worse, trust) a store the page
        cache silently rolled back.
        """
        manifest = pass_manifest(job, algorithm, pass_index, total_passes, store)
        for disk in store.disks:
            disk.sync()
        self.save(manifest)
        return manifest

    # -- read ------------------------------------------------------------

    def manifests(self) -> list[dict]:
        """All manifests, ascending by pass index. A manifest that does
        not parse raises :class:`~repro.errors.CheckpointError` (a torn
        or hand-edited checkpoint directory must not be trusted)."""
        out = []
        for path in sorted(self.root.glob("pass_*.json")):
            try:
                text = path.read_text()
            except OSError as exc:
                raise CheckpointError(
                    f"unreadable checkpoint manifest {path.name}: {exc}"
                ) from exc
            if not text.strip():
                raise CheckpointError(
                    f"checkpoint manifest {path.name} is empty — a crash "
                    "truncated it before the bytes reached disk; delete it "
                    "(or the checkpoint directory) to restart from the "
                    "previous pass"
                )
            try:
                manifest = json.loads(text)
            except ValueError as exc:
                raise CheckpointError(
                    f"unreadable checkpoint manifest {path.name} (truncated "
                    f"or torn JSON): {exc}"
                ) from exc
            if manifest.get("version") != MANIFEST_VERSION:
                raise CheckpointError(
                    f"manifest {path.name} has version "
                    f"{manifest.get('version')!r}, expected {MANIFEST_VERSION}"
                )
            out.append(manifest)
        return sorted(out, key=lambda m: m["pass_index"])

    def latest(self) -> dict | None:
        """The highest-numbered manifest, or None for a fresh directory."""
        manifests = self.manifests()
        return manifests[-1] if manifests else None

    def protected_stores(self) -> set[str]:
        """Store names any manifest references — the scratch files a
        failed run must *keep* so a resume stays possible."""
        try:
            return {m["store"] for m in self.manifests()}
        except CheckpointError:
            return set()

    def clear(self) -> None:
        """Remove every manifest — and any ``.json.tmp`` leftover a
        crash stranded mid-:meth:`save` (a completed run's checkpoints
        are garbage). The directory is fsynced afterwards so power loss
        cannot roll the unlinks back and resurrect a retired manifest
        as a bogus resume point."""
        removed = False
        for path in self.root.glob("pass_*.json"):
            path.unlink(missing_ok=True)
            removed = True
        for path in self.root.glob("pass_*.json.tmp"):
            path.unlink(missing_ok=True)
            removed = True
        if removed and self.root.is_dir():
            fsync_dir(self.root)

    def prune(self) -> None:
        """Retire the whole checkpoint directory after a successful run:
        :meth:`clear` the manifests, then remove the directory itself if
        nothing foreign lives there (best-effort — a caller-owned parent
        or unexpected file means we leave the directory in place rather
        than guess). The parent directory is fsynced after a successful
        removal: an un-fsynced ``rmdir`` can be undone by power loss,
        and a resurrected stale checkpoint directory is exactly the
        "phantom resume point" the crashsim harness checks for."""
        self.clear()
        parent = self.root.parent
        try:
            self.root.rmdir()
        except OSError:
            return
        try:
            fsync_dir(parent)
        except OSError:  # pragma: no cover - parent itself raced away
            pass

    # -- resume ----------------------------------------------------------

    def resume_index(self, job, algorithm: str, stores: dict) -> int:
        """Validate the latest manifest against ``job`` and the live
        stores; return the index of the last completed pass (0 = start
        from scratch).

        ``stores`` maps the run's store keys to store objects; the
        manifest's store must be among them and its current on-disk
        digest must match the recorded one.
        """
        manifest = self.latest()
        if manifest is None:
            return 0
        if manifest["algorithm"] != algorithm:
            raise CheckpointError(
                f"checkpoint is for algorithm {manifest['algorithm']!r}, "
                f"cannot resume a {algorithm!r} run"
            )
        for field, value in (
            ("n", job.n),
            ("buffer_records", job.buffer_records),
            ("record_size", job.fmt.record_size),
            ("key", job.fmt.key),
        ):
            if manifest[field] != value:
                raise CheckpointError(
                    f"checkpoint {field}={manifest[field]!r} does not match "
                    f"the resumed job's {field}={value!r}"
                )
        by_name = {store.name: store for store in stores.values()}
        store = by_name.get(manifest["store"])
        if store is None:
            raise CheckpointError(
                f"checkpoint references store {manifest['store']!r}, which "
                f"this run does not create"
            )
        bad = corrupt_blocks(store)
        if bad:
            disk_id, name, offset, length = bad[0]
            more = f" (and {len(bad) - 1} more)" if len(bad) > 1 else ""
            raise CheckpointError(
                f"cannot resume from store {manifest['store']!r}: block "
                f"checksum failure in {name!r} at offset {offset} "
                f"({length} bytes) on disk {disk_id}{more} — the scratch "
                "bytes rotted or were tampered with since the checkpoint"
            )
        digest = store_digest(store)
        if digest != manifest["digest"]:
            raise CheckpointError(
                f"store {manifest['store']!r} digest {digest[:12]}… does not "
                f"match checkpoint {manifest['digest'][:12]}… — the scratch "
                f"files changed since the checkpoint was written"
            )
        return manifest["pass_index"]
