"""Recovery invariants, checked against materialized crash states.

Each checker takes a scratch root holding one materialized post-crash
disk state plus the workload's ground truth (what was acknowledged,
what was saved, what bytes were ever written), runs the *real* recovery
code — :meth:`~repro.service.journal.JobJournal.repair` and replay,
:meth:`~repro.resilience.checkpoint.CheckpointStore.manifests`,
:class:`~repro.disks.virtual_disk.VirtualDisk` CRC-verified reads,
:meth:`~repro.service.daemon.SortService._recover` — and returns the
list of violated claims (empty = the state recovers cleanly).

The checkers assert *claims*, not mechanisms: an acknowledged journal
event must survive, a torn manifest must never be accepted, a CRC-
verified read must never return bytes that were never written. The
regression tests prove the teeth by no-op'ing the fsync helpers and
watching these same checkers flag the resulting states.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.errors import CheckpointError, DiskError, JournalError, ReproError
from repro.resilience.checkpoint import CheckpointStore
from repro.service.jobs import replay_jobs
from repro.service.journal import JobJournal


@dataclass(frozen=True)
class Violation:
    """One broken recovery claim in one crash state."""

    scenario: str
    state: str
    message: str

    def __str__(self) -> str:  # pragma: no cover - display helper
        return f"[{self.scenario} @ {self.state}] {self.message}"


def _signature(event: dict) -> tuple:
    return (event.get("kind"), event.get("job"))


def check_journal(
    journal_path: str | Path,
    candidates: list[tuple[list[tuple], int]],
    scenario: str,
    state: str,
) -> list[Violation]:
    """Journal recovery claims for one materialized state.

    ``candidates`` lists the legal journal generations as
    ``(event signatures, minimum acknowledged count)`` pairs — one
    generation normally; two when the workload compacted (the crash may
    land on either side of the atomic rewrite). Recovery must yield a
    prefix of some generation that is at least as long as that
    generation's acknowledged count: shorter means an fsync-acked event
    was lost, a non-prefix means replay invented or reordered history.
    """
    out: list[Violation] = []

    def bad(message: str) -> None:
        out.append(Violation(scenario=scenario, state=state, message=message))

    journal = JobJournal(journal_path)
    try:
        journal.repair()
        events, torn = journal.replay()
    except Exception as exc:  # noqa: BLE001 - any escape is the finding
        bad(f"journal repair/replay raised {type(exc).__name__}: {exc}")
        return out
    finally:
        journal.close()
    if torn:
        bad(f"replay reports {torn} torn bytes after repair()")
    try:
        replay_jobs(events)
    except JournalError as exc:
        bad(f"replayed prefix is not a legal job history: {exc}")
    got = [_signature(event) for event in events]
    for reference, min_acked in candidates:
        if got == reference[: len(got)] and len(got) >= min_acked:
            return out
    best = max(
        (ref for ref, _ in candidates),
        key=lambda ref: len(ref),
        default=[],
    )
    bad(
        f"recovered {len(got)} events {got!r} match no legal generation "
        f"(closest reference has {len(best)})"
    )
    return out


def check_checkpoints(
    ck_root: str | Path,
    saved: list[dict],
    min_latest_index: int,
    scenario: str,
    state: str,
    expect_absent: bool = False,
) -> list[Violation]:
    """Checkpoint recovery claims for one materialized state.

    The atomic manifest discipline promises power loss can never
    produce a *visible* torn manifest — ``manifests()`` raising
    :class:`~repro.errors.CheckpointError` on a materialized state is
    itself the finding. Every visible manifest must be byte-equal to
    one the workload actually saved (anything else is a phantom resume
    point), and the latest must be at least ``min_latest_index`` (an
    acknowledged ``save()`` must survive). With ``expect_absent`` the
    directory itself must be gone — the post-``prune()`` claim that a
    retired checkpoint directory cannot be resurrected.
    """
    out: list[Violation] = []

    def bad(message: str) -> None:
        out.append(Violation(scenario=scenario, state=state, message=message))

    ck_root = Path(ck_root)
    if expect_absent:
        if ck_root.exists():
            leftovers = sorted(p.name for p in ck_root.glob("pass_*"))
            bad(
                "pruned checkpoint directory resurrected after crash "
                f"(holds {leftovers or 'nothing'})"
            )
        return out
    if not ck_root.exists():
        if min_latest_index > 0:
            bad(
                f"checkpoint directory lost although pass "
                f"{min_latest_index}'s save() was acknowledged"
            )
        return out
    store = CheckpointStore(ck_root)
    try:
        manifests = store.manifests()
    except CheckpointError as exc:
        bad(f"torn manifest visible after crash: {exc}")
        return out
    for manifest in manifests:
        if manifest not in saved:
            bad(
                f"phantom manifest accepted for pass "
                f"{manifest.get('pass_index')!r} (never saved in this form)"
            )
    latest = max((m["pass_index"] for m in manifests), default=0)
    if latest < min_latest_index:
        bad(
            f"latest surviving manifest is pass {latest}, but pass "
            f"{min_latest_index}'s save() was acknowledged before the crash"
        )
    return out


def _pieces_were_written(data: bytes, offset: int, writes) -> bool:
    """Whether every piece of ``data`` (read from ``offset``) between
    recorded write boundaries equals what some write that covered the
    piece put there. ``writes`` lists ``(offset, bytes)`` of every write
    to the object."""
    end = offset + len(data)
    cuts = {offset, end}
    for at, blob in writes:
        cuts.update(p for p in (at, at + len(blob)) if offset < p < end)
    cuts = sorted(cuts)
    for lo, hi in zip(cuts, cuts[1:]):
        piece = data[lo - offset : hi - offset]
        if not any(
            at <= lo and hi <= at + len(blob) and blob[lo - at : hi - at] == piece
            for at, blob in writes
        ):
            return False
    return True


def check_disk_reads(
    disks: list,
    written: dict[tuple[int, str, int, int], list[bytes]],
    scenario: str,
    state: str,
) -> list[Violation]:
    """The no-false-pass claim: a CRC-verified read of a materialized
    state must either return bytes the workload actually wrote there at
    some point, or raise a structured error
    (:class:`~repro.errors.CorruptionError` on a CRC mismatch,
    :class:`~repro.errors.DiskError` on a short file) — never silently
    hand back torn or reordered garbage.

    ``written`` maps ``(disk_id, name, offset, length)`` to every byte
    string ever written to that extent, in order. A cataloged extent
    need not be one write — contiguous appends chain into one extent —
    so each read is cut at every recorded write boundary inside it, and
    every piece must match a write that covered it.
    """
    out: list[Violation] = []

    def bad(message: str) -> None:
        out.append(Violation(scenario=scenario, state=state, message=message))

    history: dict[tuple[int, str], list[tuple[int, bytes]]] = {}
    for (disk_id, name, offset, _length), blobs in written.items():
        history.setdefault((disk_id, name), []).extend(
            (offset, blob) for blob in blobs
        )
    for disk in disks:
        for name in disk.files():
            writes = history.get((disk.disk_id, name), [])
            for offset, length, _crc in disk.checksums.extents(name):
                try:
                    data = disk.read_at(name, offset, length)
                except (DiskError, ReproError):
                    continue  # structured detection is a pass
                if not _pieces_were_written(bytes(data), offset, writes):
                    bad(
                        f"CRC-verified read of {name!r}@{offset}+{length} on "
                        f"disk {disk.disk_id} returned bytes that were never "
                        "written (silent corruption passed verification)"
                    )
    return out


def check_barriered_reads(
    disk,
    expectations: list[tuple[str, int, int, bytes]],
    scenario: str,
    state: str,
) -> list[Violation]:
    """The barrier claim: extents whose data *and* sidecar were covered
    by a :meth:`~repro.disks.virtual_disk.VirtualDisk.sync` barrier
    before the crash must read back successfully with exactly the
    barriered bytes — the crash can drop only page-cache state, and the
    barrier emptied it for these extents."""
    out: list[Violation] = []
    for name, offset, length, expect in expectations:
        try:
            data = disk.read_at(name, offset, length)
        except (DiskError, ReproError) as exc:
            out.append(
                Violation(
                    scenario=scenario,
                    state=state,
                    message=(
                        f"barriered extent {name!r}@{offset}+{length} failed "
                        f"to read after crash: {type(exc).__name__}: {exc}"
                    ),
                )
            )
            continue
        if bytes(data) != expect:
            out.append(
                Violation(
                    scenario=scenario,
                    state=state,
                    message=(
                        f"barriered extent {name!r}@{offset}+{length} read "
                        "back different bytes than were synced"
                    ),
                )
            )
    return out


def check_daemon_recovery(
    service_root: str | Path,
    acked: list[tuple[str, str | None]],
    submitted_all: set[str],
    scenario: str,
    state: str,
    socket_path: str | Path = "/tmp/crashsim-daemon.sock",
) -> list[Violation]:
    """Daemon-restart claims: construct a real
    :class:`~repro.service.daemon.SortService` on the materialized root
    and run its startup recovery. Every job whose ``submitted`` append
    was acknowledged must reappear; an acknowledged terminal state must
    survive (a ``done`` job must not be requeued — that is the
    duplicated-execution bug); no phantom jobs may appear.

    ``acked`` lists ``(kind, job)`` for appends that returned before
    the crash; the socket is never bound (``_recover`` only), so the
    default path is fine.
    """
    from repro.service.daemon import SortService

    out: list[Violation] = []

    def bad(message: str) -> None:
        out.append(Violation(scenario=scenario, state=state, message=message))

    service = SortService(
        service_root,
        socket_path=socket_path,
        workers=1,
        compact_min_bytes=None,
        compact_min_events=None,
    )
    try:
        try:
            service._recover()
        except Exception as exc:  # noqa: BLE001 - any escape is the finding
            bad(f"daemon recovery raised {type(exc).__name__}: {exc}")
            return out
        acked_submitted = {job for kind, job in acked if kind == "submitted"}
        acked_done = {job for kind, job in acked if kind == "done"}
        for job in sorted(acked_submitted):
            if job not in service._jobs:
                bad(f"acknowledged job {job!r} lost across the crash")
        for job in sorted(acked_done):
            record = service._jobs.get(job)
            if record is None:
                continue  # already reported as lost above
            if record.state != "done":
                bad(
                    f"job {job!r} acknowledged done but recovered as "
                    f"{record.state!r}"
                )
            if job in service._pending:
                bad(
                    f"job {job!r} acknowledged done but requeued for "
                    "execution (duplicate run)"
                )
        for job in service._jobs:
            if job not in submitted_all:
                bad(f"phantom job {job!r} appeared out of the crash")
        if len(service._pending) != len(set(service._pending)):
            bad("a job was queued twice by recovery")
    finally:
        service.journal.close()
    return out
