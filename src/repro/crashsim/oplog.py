"""Operation-log datatypes and the durability scan.

The recorder (:mod:`repro.crashsim.interpose`) reduces a workload's
filesystem activity to a flat list of :class:`Op` records. Data ops
(``write``, ``truncate``) target *inodes* — not paths — so a
write-temp/fsync/``os.replace`` sequence stays coherent when the crash
model applies the rename without the data, or vice versa. Namespace
ops (``create``, ``rename``, ``unlink``, ``mkdir``, ``rmdir``) target
directory entries and are attributed to their parent directory.

Durability semantics (the model DESIGN §14 documents):

* ``fsync`` of a file makes every earlier data op on that inode
  durable — and nothing else;
* ``fsync`` of a directory makes every earlier namespace op in that
  directory durable — and nothing else;
* everything not covered by a barrier at the instant of the crash is
  *pending*: the crash may or may not have materialized it.

:func:`durable_at` computes the guaranteed-durable op set for a crash
after any prefix of the log; :func:`pending_at` is its complement over
the issued prefix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import PurePosixPath

#: Op kinds that mutate inode contents.
DATA_KINDS = frozenset({"write", "truncate"})
#: Op kinds that mutate directory entries.
NS_KINDS = frozenset({"create", "rename", "unlink", "mkdir", "rmdir"})
#: Op kinds that are durability barriers (instantaneous, never pending).
BARRIER_KINDS = frozenset({"fsync", "fsync_dir"})


def parent_dir(rel: str) -> str:
    """The owning directory of a root-relative path (``""`` = the
    traced root itself)."""
    parent = str(PurePosixPath(rel).parent)
    return "" if parent == "." else parent


@dataclass(frozen=True)
class Op:
    """One recorded filesystem operation.

    Fields are kind-dependent: data ops carry ``inode`` (+ ``offset``/
    ``data`` or ``size``); namespace ops carry ``path`` (and ``src``
    for renames) plus ``parent``; ``fsync`` carries ``inode``;
    ``fsync_dir`` carries ``path`` (the directory)."""

    index: int
    kind: str
    path: str | None = None
    src: str | None = None
    inode: int | None = None
    offset: int = 0
    data: bytes = b""
    size: int = 0
    parent: str | None = None


@dataclass
class Snapshot:
    """The traced root's state when recording started: root-relative
    directory paths, and ``relpath -> (inode, bytes)`` for files (the
    recorder pre-assigns inode ids so later ops can reference them)."""

    dirs: set[str] = field(default_factory=set)
    files: dict[str, tuple[int, bytes]] = field(default_factory=dict)


def durable_at(ops: list[Op], crash_index: int) -> frozenset[int]:
    """Indices of ops guaranteed durable when the crash lands after
    ``ops[:crash_index]`` were issued.

    Barriers themselves are synchronous: an issued ``fsync`` has done
    its work, so everything it covers is durable even when the crash
    follows immediately.
    """
    durable: set[int] = set()
    pending_data: dict[int, list[int]] = {}
    pending_ns: dict[str, list[int]] = {}
    for op in ops[:crash_index]:
        if op.kind in DATA_KINDS:
            pending_data.setdefault(op.inode, []).append(op.index)
        elif op.kind in NS_KINDS:
            pending_ns.setdefault(op.parent, []).append(op.index)
        elif op.kind == "fsync":
            durable.update(pending_data.pop(op.inode, ()))
        elif op.kind == "fsync_dir":
            durable.update(pending_ns.pop(op.path, ()))
    return frozenset(durable)


def pending_at(ops: list[Op], crash_index: int) -> list[Op]:
    """The issued-but-not-guaranteed-durable ops at a crash point, in
    issue order (barriers excluded — they are never pending)."""
    durable = durable_at(ops, crash_index)
    return [
        op
        for op in ops[:crash_index]
        if op.kind not in BARRIER_KINDS and op.index not in durable
    ]
