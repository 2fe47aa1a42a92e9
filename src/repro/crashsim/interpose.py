"""The interposer: record durability-critical fs ops while a real
workload runs.

:func:`trace` patches the narrow waist every durability-critical write
in this repo goes through — ``builtins.open``/``io.open`` (journal
appends, atomic temp-file writes, parity row files), ``os.open`` with
``O_CREAT`` + ``os.pwrite`` (:class:`VirtualDisk` extent writes),
``os.replace``/``os.rename`` (atomic publishes),
``os.unlink``/``os.remove``/``os.rmdir`` (checkpoint retirement),
``os.mkdir`` (sidecar/parity directories), and ``os.open``/``os.fsync``
/``os.close`` (file and directory fsync barriers) — and records every
operation touching paths under the traced root into an
:class:`~repro.crashsim.oplog.Op` list. Operations outside the root
pass through untouched; reads are never recorded.

Recording is *passthrough*: the real operation still happens, so the
workload completes normally and its final tree doubles as the
uncrashed reference. The recorder replicates the logical namespace as
ops arrive, assigning each file an inode id so data ops survive the
crash model's namespace games (a dropped rename must not orphan the
bytes written through the temp name).
"""

from __future__ import annotations

import builtins
import io
import os
import threading
from contextlib import contextmanager
from pathlib import Path

from repro.crashsim.oplog import Op, Snapshot, parent_dir


class Recorder:
    """Accumulates the op log and logical namespace for one traced root."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root).resolve()
        self.root.mkdir(parents=True, exist_ok=True)
        self.ops: list[Op] = []
        self.lock = threading.RLock()
        self._next_inode = 0
        #: live logical namespace: relpath -> inode
        self.namespace: dict[str, int] = {}
        self._fd_files: dict[int, int] = {}  # fd -> inode
        self._fd_dirs: dict[int, str] = {}  # fd -> dir relpath
        self.initial = Snapshot()
        self._snapshot()

    # -- bookkeeping -----------------------------------------------------

    def _snapshot(self) -> None:
        self.initial.dirs.add("")
        for path in sorted(self.root.rglob("*")):
            rel = path.relative_to(self.root).as_posix()
            if path.is_dir():
                self.initial.dirs.add(rel)
            elif path.is_file():
                inode = self._alloc_inode()
                self.initial.files[rel] = (inode, path.read_bytes())
                self.namespace[rel] = inode

    def _alloc_inode(self) -> int:
        self._next_inode += 1
        return self._next_inode

    def rel(self, path) -> str | None:
        """Root-relative posix path, or None when outside the root."""
        try:
            resolved = Path(os.fspath(path))
        except TypeError:
            return None
        if not resolved.is_absolute():
            resolved = Path.cwd() / resolved
        try:
            # resolve() would follow symlinks *and* require existence
            # semantics we don't want; normalize lexically instead.
            rel = Path(os.path.normpath(resolved)).relative_to(self.root)
        except ValueError:
            return None
        text = rel.as_posix()
        return "" if text == "." else text  # "" = the traced root itself

    def _append(self, kind: str, **fields) -> Op:
        op = Op(index=len(self.ops), kind=kind, **fields)
        self.ops.append(op)
        return op

    # -- recording entry points (called by the patched functions) --------

    def on_open_write(self, rel: str, truncating: bool) -> int:
        """A write-capable handle opened on ``rel``; returns its inode."""
        with self.lock:
            inode = self.namespace.get(rel)
            if inode is None:
                inode = self._alloc_inode()
                self.namespace[rel] = inode
                self._append(
                    "create", path=rel, inode=inode, parent=parent_dir(rel)
                )
            if truncating:
                self._append("truncate", inode=inode, size=0)
            return inode

    def on_write(self, inode: int, offset: int, data: bytes) -> None:
        if not data:
            return
        with self.lock:
            self._append("write", inode=inode, offset=offset, data=bytes(data))

    def on_pwrite(self, fd: int, offset: int, data) -> None:
        """An ``os.pwrite`` through a descriptor :meth:`register_fd`
        knows (anything else is outside the root)."""
        with self.lock:
            inode = self._fd_files.get(fd)
        if inode is not None:
            self.on_write(inode, offset, data)

    def on_truncate(self, inode: int, size: int) -> None:
        with self.lock:
            self._append("truncate", inode=inode, size=size)

    def on_rename(self, src_rel: str, dst_rel: str) -> None:
        with self.lock:
            inode = self.namespace.pop(src_rel, None)
            if inode is None:
                inode = self._alloc_inode()
            self.namespace[dst_rel] = inode
            self._append(
                "rename",
                src=src_rel,
                path=dst_rel,
                inode=inode,
                parent=parent_dir(dst_rel),
            )

    def on_unlink(self, rel: str) -> None:
        with self.lock:
            self.namespace.pop(rel, None)
            self._append("unlink", path=rel, parent=parent_dir(rel))

    def on_mkdir(self, rel: str) -> None:
        with self.lock:
            self._append("mkdir", path=rel, parent=parent_dir(rel))

    def on_rmdir(self, rel: str) -> None:
        with self.lock:
            self._append("rmdir", path=rel, parent=parent_dir(rel))

    def on_fsync(self, fd: int) -> None:
        with self.lock:
            inode = self._fd_files.get(fd)
            if inode is not None:
                self._append("fsync", inode=inode)
                return
            rel = self._fd_dirs.get(fd)
            if rel is not None:
                self._append("fsync_dir", path=rel)

    def register_fd(self, fd: int, inode: int) -> None:
        with self.lock:
            self._fd_files[fd] = inode

    def register_dir_fd(self, fd: int, rel: str) -> None:
        with self.lock:
            self._fd_dirs[fd] = rel

    def release_fd(self, fd: int) -> None:
        with self.lock:
            self._fd_files.pop(fd, None)
            self._fd_dirs.pop(fd, None)


class TracedFile:
    """A passthrough wrapper over a real writable file object that
    reports writes/truncates (with byte offsets) to the recorder."""

    def __init__(self, real, recorder: Recorder, inode: int, text: bool) -> None:
        self._real = real
        self._rec = recorder
        self._inode = inode
        self._text = text
        # Text-mode tell() returns opaque cookies, so track the byte
        # offset ourselves (durability-critical writers in this repo
        # are all binary; text support exists for stray lock files).
        self._text_pos = 0

    # -- traced operations ----------------------------------------------

    def write(self, data):
        if self._text:
            payload = data.encode(
                getattr(self._real, "encoding", None) or "utf-8"
            )
            offset = self._text_pos
            self._text_pos += len(payload)
        else:
            payload = bytes(memoryview(data).cast("B"))
            offset = self._real.tell()
        result = self._real.write(data)
        self._rec.on_write(self._inode, offset, payload)
        return result

    def writelines(self, lines) -> None:
        for line in lines:
            self.write(line)

    def truncate(self, size=None):
        if size is None:
            size = self._text_pos if self._text else self._real.tell()
        result = self._real.truncate(size)
        self._rec.on_truncate(self._inode, size)
        return result

    def seek(self, *args, **kwargs):
        if self._text:
            raise OSError("crashsim: seek on a traced text handle")
        return self._real.seek(*args, **kwargs)

    def fileno(self) -> int:
        fd = self._real.fileno()
        self._rec.register_fd(fd, self._inode)
        return fd

    def close(self) -> None:
        try:
            fd = self._real.fileno()
        except (OSError, ValueError):
            fd = None
        self._real.close()
        if fd is not None:
            self._rec.release_fd(fd)

    # -- passthrough ------------------------------------------------------

    def __getattr__(self, name):
        return getattr(self._real, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def __iter__(self):
        return iter(self._real)


def _wants_write(mode: str) -> bool:
    return any(ch in mode for ch in "wax+")


@contextmanager
def trace(root: str | Path):
    """Record every durability-critical fs op under ``root`` while the
    body runs; yields the :class:`Recorder`. Patches are process-global
    (take the GIL's word for it: install and removal are atomic), so
    traced workloads should be short and owned by the caller."""
    rec = Recorder(root)
    real_open = builtins.open
    real_os = {
        name: getattr(os, name)
        for name in (
            "replace",
            "rename",
            "unlink",
            "remove",
            "mkdir",
            "rmdir",
            "open",
            "close",
            "fsync",
            "pwrite",
        )
    }

    def traced_open(file, mode="r", *args, **kwargs):
        rel = None if isinstance(file, int) else rec.rel(file)
        if rel is None or not _wants_write(mode):
            return real_open(file, mode, *args, **kwargs)
        existed = (rec.root / rel).exists()
        real = real_open(file, mode, *args, **kwargs)
        truncating = "w" in mode or (not existed and "x" in mode)
        inode = rec.on_open_write(rel, truncating=truncating and existed)
        return TracedFile(real, rec, inode, text="b" not in mode)

    def traced_replace(src, dst, **kwargs):
        src_rel, dst_rel = rec.rel(src), rec.rel(dst)
        real_os["replace"](src, dst, **kwargs)
        if src_rel is not None and dst_rel is not None:
            rec.on_rename(src_rel, dst_rel)

    def traced_rename(src, dst, **kwargs):
        src_rel, dst_rel = rec.rel(src), rec.rel(dst)
        real_os["rename"](src, dst, **kwargs)
        if src_rel is not None and dst_rel is not None:
            rec.on_rename(src_rel, dst_rel)

    def traced_unlink(path, **kwargs):
        rel = rec.rel(path)
        real_os["unlink"](path, **kwargs)
        if rel is not None:
            rec.on_unlink(rel)

    def traced_mkdir(path, *args, **kwargs):
        rel = rec.rel(path)
        real_os["mkdir"](path, *args, **kwargs)
        if rel is not None:
            rec.on_mkdir(rel)

    def traced_rmdir(path, **kwargs):
        rel = rec.rel(path)
        real_os["rmdir"](path, **kwargs)
        if rel is not None:
            rec.on_rmdir(rel)

    def traced_os_open(path, flags, *args, **kwargs):
        rel = rec.rel(path)
        truncating = (
            bool(flags & os.O_TRUNC)
            and rel is not None
            and (rec.root / rel).exists()
        )
        fd = real_os["open"](path, flags, *args, **kwargs)
        try:
            if rel is not None:
                target = rec.root / rel
                if target.is_dir():
                    rec.register_dir_fd(fd, rel)
                elif flags & os.O_CREAT:
                    # A write-capable descriptor that may have made the
                    # entry: same bookkeeping as a builtins.open for write.
                    rec.register_fd(fd, rec.on_open_write(rel, truncating))
                else:
                    inode = rec.namespace.get(rel)
                    if inode is not None:
                        rec.register_fd(fd, inode)
        except Exception:  # bookkeeping must never break the workload
            pass
        return fd

    def traced_pwrite(fd, data, offset):
        done = real_os["pwrite"](fd, data, offset)
        rec.on_pwrite(fd, offset, memoryview(data).cast("B")[:done])
        return done

    def traced_os_close(fd):
        real_os["close"](fd)
        rec.release_fd(fd)

    def traced_fsync(fd):
        real_os["fsync"](fd)
        rec.on_fsync(fd)

    patches = {
        "replace": traced_replace,
        "rename": traced_rename,
        "unlink": traced_unlink,
        "remove": traced_unlink,
        "mkdir": traced_mkdir,
        "rmdir": traced_rmdir,
        "open": traced_os_open,
        "close": traced_os_close,
        "fsync": traced_fsync,
        "pwrite": traced_pwrite,
    }
    builtins.open = traced_open
    io.open = traced_open
    for name, fn in patches.items():
        setattr(os, name, fn)
    try:
        yield rec
    finally:
        builtins.open = real_open
        io.open = real_open
        for name in patches:
            setattr(os, name, real_os[name])
