"""The crashsim model itself: POSIX-legality of every enumerated state
(the hypothesis property the ISSUE pins down), the durability scan's
barrier semantics, and the interposer's op capture.

These tests validate the *harness*, not the recovery code — if the
model can generate an illegal state or miss a legal one the sweep's
zero-violation verdicts mean nothing.
"""

from __future__ import annotations

import builtins
import io
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crashsim import (
    CrashState,
    Op,
    durable_at,
    enumerate_crash_states,
    is_legal_state,
    materialize,
    pending_at,
    trace,
)
from repro.crashsim.oplog import BARRIER_KINDS, parent_dir
from repro.durability.atomic import atomic_write_bytes

# ---------------------------------------------------------------------------
# random op logs for the property tests
# ---------------------------------------------------------------------------

_PATHS = ("a", "b", "sub/c")
_DIRS = ("", "sub")
_INODES = (1, 2, 3)


@st.composite
def op_logs(draw) -> list[Op]:
    """Structurally coherent random op logs (parents derived from
    paths, inodes from a small pool) — fs-level coherence is not
    required; the legality rules are purely op-log-structural."""
    n = draw(st.integers(min_value=1, max_value=20))
    ops: list[Op] = []
    for index in range(n):
        kind = draw(
            st.sampled_from(
                ["write", "truncate", "create", "rename", "unlink",
                 "mkdir", "rmdir", "fsync", "fsync_dir"]
            )
        )
        if kind == "write":
            ops.append(
                Op(
                    index=index,
                    kind=kind,
                    inode=draw(st.sampled_from(_INODES)),
                    offset=draw(st.integers(min_value=0, max_value=64)),
                    data=draw(st.binary(min_size=1, max_size=700)),
                )
            )
        elif kind == "truncate":
            ops.append(
                Op(
                    index=index,
                    kind=kind,
                    inode=draw(st.sampled_from(_INODES)),
                    size=draw(st.integers(min_value=0, max_value=64)),
                )
            )
        elif kind == "fsync":
            ops.append(
                Op(index=index, kind=kind, inode=draw(st.sampled_from(_INODES)))
            )
        elif kind == "fsync_dir":
            ops.append(
                Op(index=index, kind=kind, path=draw(st.sampled_from(_DIRS)))
            )
        elif kind == "rename":
            dst = draw(st.sampled_from(_PATHS))
            ops.append(
                Op(
                    index=index,
                    kind=kind,
                    src=draw(st.sampled_from(_PATHS)),
                    path=dst,
                    inode=draw(st.sampled_from(_INODES)),
                    parent=parent_dir(dst),
                )
            )
        else:  # create / unlink / mkdir / rmdir
            path = draw(st.sampled_from(_PATHS if kind != "mkdir" else _DIRS[1:]))
            ops.append(
                Op(
                    index=index,
                    kind=kind,
                    path=path,
                    inode=draw(st.sampled_from(_INODES)),
                    parent=parent_dir(path),
                )
            )
    return ops


@settings(max_examples=60, deadline=None)
@given(op_logs())
def test_every_enumerated_state_is_legal(ops):
    """The acceptance property: everything the enumerator produces is
    reachable under the POSIX rules the legality checker re-derives."""
    for state in enumerate_crash_states(ops):
        assert is_legal_state(ops, state), (
            f"illegal state {state} for ops {ops}"
        )


@settings(max_examples=40, deadline=None)
@given(op_logs())
def test_durable_and_pending_partition_the_issued_ops(ops):
    for crash_index in range(len(ops) + 1):
        durable = durable_at(ops, crash_index)
        pending = {op.index for op in pending_at(ops, crash_index)}
        issued = {
            op.index
            for op in ops[:crash_index]
            if op.kind not in BARRIER_KINDS
        }
        assert durable | pending == issued
        assert not durable & pending


@settings(max_examples=25, deadline=None)
@given(op_logs())
def test_enumeration_is_deterministic(ops):
    assert enumerate_crash_states(ops) == enumerate_crash_states(ops)


@settings(max_examples=25, deadline=None)
@given(op_logs(), st.integers(min_value=0))
def test_materialize_never_crashes(tmp_path_factory, ops, pick):
    states = enumerate_crash_states(ops)
    state = states[pick % len(states)]
    from repro.crashsim import Snapshot

    dest = tmp_path_factory.mktemp("mat")
    materialize(ops, state, Snapshot(dirs={""}), dest / "t")
    assert (dest / "t").is_dir()


# ---------------------------------------------------------------------------
# barrier semantics, pinned by hand
# ---------------------------------------------------------------------------


def _write(i, inode, data=b"x" * 8, offset=0):
    return Op(index=i, kind="write", inode=inode, offset=offset, data=data)


def test_fsync_covers_only_its_inode():
    ops = [_write(0, 1), _write(1, 2), Op(index=2, kind="fsync", inode=1)]
    assert durable_at(ops, 3) == frozenset({0})
    assert {op.index for op in pending_at(ops, 3)} == {1}


def test_fsync_dir_covers_only_its_directory():
    ops = [
        Op(index=0, kind="create", path="a", inode=1, parent=""),
        Op(index=1, kind="create", path="sub/c", inode=2, parent="sub"),
        Op(index=2, kind="fsync_dir", path="sub"),
    ]
    assert durable_at(ops, 3) == frozenset({1})


def test_fsync_before_crash_point_is_honored_immediately():
    ops = [_write(0, 1), Op(index=1, kind="fsync", inode=1)]
    # An issued fsync has already done its work even if the crash
    # follows on the very next instruction.
    assert durable_at(ops, 2) == frozenset({0})


def test_zero_length_file_state_is_enumerated():
    """The classic bug state — rename durable-ordered after the data
    write, but the write dropped — must be in the enumeration when no
    fsync ordered them."""
    ops = [
        Op(index=0, kind="create", path="m.tmp", inode=1, parent=""),
        _write(1, 1, b"manifest"),
        Op(index=2, kind="rename", src="m.tmp", path="m", inode=1, parent=""),
    ]
    states = enumerate_crash_states(ops, crash_indices=[3])
    assert any(
        2 in state.applied and 1 not in state.applied for state in states
    )


def test_fsynced_write_cannot_be_lost_under_applied_rename():
    """With the full atomic discipline (fsync file, rename, fsync dir)
    no state applies the rename without the data."""
    ops = [
        Op(index=0, kind="create", path="m.tmp", inode=1, parent=""),
        _write(1, 1, b"manifest"),
        Op(index=2, kind="fsync", inode=1),
        Op(index=3, kind="rename", src="m.tmp", path="m", inode=1, parent=""),
        Op(index=4, kind="fsync_dir", path=""),
    ]
    for state in enumerate_crash_states(ops):
        if state.crash_index >= 3 and 3 in state.applied:
            assert 1 in durable_at(ops, state.crash_index)


def test_torn_write_materializes_as_prefix(tmp_path):
    ops = [
        Op(index=0, kind="create", path="f", inode=1, parent=""),
        _write(1, 1, b"ABCDEFGH"),
    ]
    from repro.crashsim import Snapshot

    state = CrashState(
        crash_index=2, applied=frozenset({0, 1}), torn=((1, 3),)
    )
    assert is_legal_state(ops, state)
    dest = materialize(ops, state, Snapshot(dirs={""}), tmp_path / "t")
    assert (dest / "f").read_bytes() == b"ABC"


def test_illegal_states_are_rejected():
    ops = [
        Op(index=0, kind="create", path="a", inode=1, parent=""),
        Op(index=1, kind="create", path="b", inode=2, parent=""),
        _write(2, 1, b"zz"),
        Op(index=3, kind="fsync", inode=1),
    ]
    # namespace gap: second create applied without the first
    assert not is_legal_state(
        ops, CrashState(crash_index=2, applied=frozenset({1}))
    )
    # applying an already-durable op as "pending"
    assert not is_legal_state(
        ops, CrashState(crash_index=4, applied=frozenset({2}))
    )
    # torn length past the data
    assert not is_legal_state(
        ops,
        CrashState(crash_index=3, applied=frozenset({0, 1, 2}),
                   torn=((2, 99),)),
    )


# ---------------------------------------------------------------------------
# the interposer
# ---------------------------------------------------------------------------


def test_trace_records_the_atomic_write_discipline(tmp_path):
    root = tmp_path / "r"
    with trace(root) as rec:
        atomic_write_bytes(root / "doc.json", b'{"k":1}')
    kinds = [op.kind for op in rec.ops]
    assert kinds == ["create", "write", "fsync", "rename", "fsync_dir"]
    create, write, fsync, rename, fsync_dir = rec.ops
    assert create.path == "doc.json.tmp"
    assert write.inode == create.inode and write.data == b'{"k":1}'
    assert fsync.inode == create.inode
    assert rename.src == "doc.json.tmp" and rename.path == "doc.json"
    assert rename.inode == create.inode
    assert fsync_dir.path == ""  # the traced root itself
    # the whole sequence is durable: exactly one crash state per point
    assert durable_at(rec.ops, len(rec.ops)) == frozenset({0, 1, 3})


def test_trace_keeps_data_ops_on_inodes_across_rename(tmp_path):
    root = tmp_path / "r"
    with trace(root) as rec:
        with open(root / "t.tmp", "wb") as fh:
            fh.write(b"hello")
        os.replace(root / "t.tmp", root / "final")
        with open(root / "final", "ab") as fh:
            fh.write(b" world")
    writes = [op for op in rec.ops if op.kind == "write"]
    assert len(writes) == 2
    assert writes[0].inode == writes[1].inode
    assert writes[1].offset == 5  # append offset tracked through rename


def test_trace_ignores_paths_outside_the_root(tmp_path):
    root = tmp_path / "r"
    outside = tmp_path / "elsewhere.txt"
    with trace(root) as rec:
        outside.write_text("not recorded")
    assert rec.ops == []


def test_trace_restores_the_patched_functions(tmp_path):
    before = (builtins.open, io.open, os.replace, os.fsync, os.unlink)
    with trace(tmp_path / "r"):
        assert builtins.open is not before[0]
    after = (builtins.open, io.open, os.replace, os.fsync, os.unlink)
    assert before == after


def test_trace_snapshot_seeds_preexisting_tree(tmp_path):
    root = tmp_path / "r"
    root.mkdir()
    (root / "old").write_bytes(b"seed")
    (root / "sub").mkdir()
    with trace(root) as rec:
        pass
    assert rec.initial.files["old"][1] == b"seed"
    assert "sub" in rec.initial.dirs


def test_materialized_full_state_matches_real_tree(tmp_path):
    """Crash-at-end with everything applied reproduces the workload's
    actual final tree byte for byte."""
    root = tmp_path / "r"
    with trace(root) as rec:
        (root / "sub").mkdir()
        atomic_write_bytes(root / "sub" / "x", b"abc")
        with open(root / "plain", "wb") as fh:
            fh.write(b"defg")
        os.unlink(root / "sub" / "x")
    pending = {op.index for op in pending_at(rec.ops, len(rec.ops))}
    state = CrashState(crash_index=len(rec.ops), applied=frozenset(pending))
    dest = materialize(rec.ops, state, rec.initial, tmp_path / "mat")
    real = {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in root.rglob("*")
        if p.is_file()
    }
    got = {
        p.relative_to(dest).as_posix(): p.read_bytes()
        for p in dest.rglob("*")
        if p.is_file()
    }
    assert got == real
