"""Crash-consistency scenarios: trace a real workload, enumerate the
legal post-crash disk states, run the real recovery path against every
one, and collect invariant violations.

Each scenario is one durability claim exercised end to end:

* ``journal_append`` — fsync-acked journal events survive any crash;
  replay of a torn tail yields a legal history prefix;
* ``journal_compact`` — the boot-time compaction rewrite is atomic:
  recovery sees the old generation or the new one, never a mixture;
* ``checkpoint_save`` — the manifest write discipline (fsync temp,
  ``os.replace``, fsync parent) never exposes a torn or phantom
  manifest, and an acknowledged ``save()`` survives;
* ``checkpoint_prune`` — a retired checkpoint directory stays retired
  (no resurrected phantom resume points);
* ``sidecar`` — CRC-verified reads never false-pass on torn or
  reordered data, and a :meth:`VirtualDisk.sync
  <repro.disks.virtual_disk.VirtualDisk.sync>` barrier makes extents
  crash-proof;
* ``daemon_restart`` — :meth:`SortService._recover
  <repro.service.daemon.SortService._recover>` on the materialized
  root loses no acknowledged job, duplicates none, resurrects none;
* ``resume_e2e`` — a full sort crashed at sampled points recovers (or
  restarts) to byte-identical output.

:func:`run_sweep` runs any subset and returns a JSON-friendly summary
(the ``crashsim-smoke`` CI job uploads it as ``BENCH_crashsim.json``).
"""

from __future__ import annotations

from pathlib import Path

from repro.crashsim.cache import enumerate_crash_states, materialize
from repro.crashsim.interpose import trace
from repro.crashsim.invariants import (
    Violation,
    check_barriered_reads,
    check_checkpoints,
    check_daemon_recovery,
    check_disk_reads,
    check_journal,
)
from repro.crashsim.oplog import pending_at
from repro.errors import CheckpointError
from repro.service.jobs import compaction_events, replay_jobs
from repro.service.journal import JobJournal


def _signatures(events: list[dict]) -> list[tuple]:
    return [(e.get("kind"), e.get("job")) for e in events]


def _fully_durable(ops, state) -> bool:
    """True when the crash landed after the last op with nothing pending
    dropped — the must-recover-perfectly state."""
    if state.crash_index != len(ops) or state.torn:
        return False
    pending = {op.index for op in pending_at(ops, state.crash_index)}
    return pending <= state.applied


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------


def scenario_journal_append(scratch: Path, quick: bool):
    """Interleaved job lifecycles appended (and fsynced) one event at a
    time; every acked event must survive every legal crash state."""
    work = scratch / "work"
    markers: list[tuple[str, str | None, int]] = []
    with trace(work) as rec:
        journal = JobJournal(work / "journal.log")

        def ack(kind: str, job: str | None, **fields) -> None:
            journal.append(kind, job=job, **fields)
            markers.append((kind, job, len(rec.ops)))

        ack("submitted", "j1", tenant="acme", spec={"n": 64})
        ack("admitted", "j1")
        ack("submitted", "j2", tenant="bits", spec={"n": 128})
        ack("running", "j1")
        ack("admitted", "j2")
        ack("done", "j1", result={"passes": 3})
        ack("running", "j2")
        journal.close()
    reference = [(kind, job) for kind, job, _ in markers]
    states = enumerate_crash_states(rec.ops)
    if quick:
        states = states[:: max(1, len(states) // 60)]
    violations: list[Violation] = []
    for i, state in enumerate(states):
        dest = materialize(rec.ops, state, rec.initial, scratch / f"s{i:04d}")
        acked = sum(1 for _, _, mark in markers if mark <= state.crash_index)
        violations += check_journal(
            dest / "journal.log",
            [(reference, acked)],
            scenario="journal_append",
            state=state.label or f"s{i}",
        )
    return len(states), violations


def scenario_journal_compact(scratch: Path, quick: bool):
    """The compaction rewrite plus its ``compacted`` marker event; the
    crash may land on either side of the atomic ``os.replace`` but
    never in between the generations."""
    work = scratch / "work"
    work.mkdir(parents=True, exist_ok=True)
    journal = JobJournal(work / "journal.log")
    for k in range(6):  # a grown history worth compacting
        job = f"j{k}"
        journal.append("submitted", job=job, tenant="acme", spec={"n": k})
        journal.append("admitted", job=job)
        journal.append("running", job=job)
        journal.append("done", job=job, result={"passes": 3})
    old_events, _ = journal.replay()
    journal.close()
    jobs, _ = replay_jobs(old_events)
    minimal = compaction_events(jobs)
    with trace(work) as rec:
        fresh = JobJournal(work / "journal.log")
        fresh.replay()
        fresh.compact(minimal)
        fresh.append(
            "compacted",
            events_before=len(old_events),
            events_after=len(minimal),
        )
        fresh.close()
    old_ref = _signatures(old_events)
    new_ref = _signatures(minimal) + [("compacted", None)]
    candidates = [(old_ref, len(old_ref)), (new_ref, len(minimal))]
    states = enumerate_crash_states(rec.ops)
    violations: list[Violation] = []
    for i, state in enumerate(states):
        dest = materialize(rec.ops, state, rec.initial, scratch / f"s{i:04d}")
        violations += check_journal(
            dest / "journal.log",
            candidates,
            scenario="journal_compact",
            state=state.label or f"s{i}",
        )
    return len(states), violations


def scenario_checkpoint_save(scratch: Path, quick: bool):
    """Three manifests saved in sequence through the atomic-write
    discipline; no crash state may show a torn or phantom manifest, and
    an acked save survives."""
    from repro.resilience.checkpoint import MANIFEST_VERSION, CheckpointStore

    work = scratch / "work"
    saved: list[tuple[dict, int]] = []
    with trace(work) as rec:
        store = CheckpointStore(work / "ck")
        for pass_index in (1, 2, 3):
            manifest = {
                "version": MANIFEST_VERSION,
                "pass_index": pass_index,
                "algorithm": "threaded",
                "store": f"store{pass_index % 2}",
                "digest": f"d{pass_index:02d}",
            }
            store.save(manifest)
            saved.append((manifest, len(rec.ops)))
    manifests = [manifest for manifest, _ in saved]
    states = enumerate_crash_states(rec.ops)
    if quick:
        states = states[:: max(1, len(states) // 60)]
    violations: list[Violation] = []
    for i, state in enumerate(states):
        dest = materialize(rec.ops, state, rec.initial, scratch / f"s{i:04d}")
        acked = [m["pass_index"] for m, mark in saved if mark <= state.crash_index]
        violations += check_checkpoints(
            dest / "ck",
            manifests,
            min_latest_index=max(acked, default=0),
            scenario="checkpoint_save",
            state=state.label or f"s{i}",
        )
    return len(states), violations


def scenario_checkpoint_prune(scratch: Path, quick: bool):
    """Retiring a checkpoint directory: surviving manifests are always
    genuine, and once the prune is fully durable the directory cannot
    come back."""
    from repro.resilience.checkpoint import MANIFEST_VERSION, CheckpointStore

    work = scratch / "work"
    work.mkdir(parents=True, exist_ok=True)
    manifests = [
        {"version": MANIFEST_VERSION, "pass_index": 1, "algorithm": "threaded"},
        {"version": MANIFEST_VERSION, "pass_index": 2, "algorithm": "threaded"},
    ]
    seed = CheckpointStore(work / "ck")
    for manifest in manifests:
        seed.save(manifest)
    with trace(work) as rec:
        CheckpointStore(work / "ck").prune()
    states = enumerate_crash_states(rec.ops)
    violations: list[Violation] = []
    for i, state in enumerate(states):
        dest = materialize(rec.ops, state, rec.initial, scratch / f"s{i:04d}")
        violations += check_checkpoints(
            dest / "ck",
            manifests,
            min_latest_index=0,
            scenario="checkpoint_prune",
            state=state.label or f"s{i}",
            expect_absent=_fully_durable(rec.ops, state),
        )
    return len(states), violations


def scenario_sidecar(scratch: Path, quick: bool):
    """Object writes with CRC sidecars, a ``sync()`` barrier, then an
    overwrite and a new object taken through ``flush()`` and a second
    ``sync()`` — so crashes land before the flush (data without its
    sidecar), between flush and sync (sidecar renames still buffered),
    and after: verified reads must never false-pass, and barriered
    extents must survive any crash bit-for-bit."""
    from repro.disks.virtual_disk import VirtualDisk

    work = scratch / "work"
    written: dict[tuple[int, str, int, int], list[bytes]] = {}
    with trace(work) as rec:
        disk = VirtualDisk(work / "d0", disk_id=0)

        def put(name: str, offset: int, data: bytes) -> None:
            disk.write_at(name, offset, data)
            written.setdefault((0, name, offset, len(data)), []).append(data)

        put("obj.a", 0, b"A" * 1024)
        put("obj.a", 1024, b"B" * 1024)
        put("obj.b", 0, b"C" * 700)
        disk.sync()
        barriers = [(len(rec.ops), [("obj.b", 0, 700, b"C" * 700)])]
        put("obj.a", 0, b"D" * 1024)  # overwrite under the old sidecar
        put("obj.c", 0, b"E" * 600)  # no sidecar at all until the flush
        disk.flush()
        disk.sync()
        barriers.append(
            (
                len(rec.ops),
                [("obj.a", 0, 1024, b"D" * 1024), ("obj.c", 0, 600, b"E" * 600)],
            )
        )
    states = enumerate_crash_states(rec.ops)
    if quick:
        states = states[:: max(1, len(states) // 60)]
    violations: list[Violation] = []
    for i, state in enumerate(states):
        dest = materialize(rec.ops, state, rec.initial, scratch / f"s{i:04d}")
        recovered = VirtualDisk(dest / "d0", disk_id=0)
        label = state.label or f"s{i}"
        violations += check_disk_reads(
            [recovered], written, scenario="sidecar", state=label
        )
        for barrier, expectations in barriers:
            if state.crash_index >= barrier:
                violations += check_barriered_reads(
                    recovered, expectations, scenario="sidecar", state=label
                )
    return len(states), violations


def scenario_daemon_restart(scratch: Path, quick: bool):
    """A daemon's journaled lifetime (one job to completion, one left
    queued) crashed at every legal point; ``SortService._recover`` on
    the wreckage must preserve exactly the acknowledged state."""
    work = scratch / "work"
    markers: list[tuple[str, str | None, int]] = []
    with trace(work) as rec:
        journal = JobJournal(work / "journal.log")

        def ack(kind: str, job: str | None, **fields) -> None:
            journal.append(kind, job=job, **fields)
            markers.append((kind, job, len(rec.ops)))

        ack("submitted", "j000001", tenant="acme", spec={"n": 64})
        ack("admitted", "j000001")
        ack("running", "j000001")
        ack("done", "j000001", result={"passes": 3})
        ack("submitted", "j000002", tenant="bits", spec={"n": 128})
        journal.close()
    submitted_all = {job for _, job, _ in markers if job is not None}
    states = enumerate_crash_states(rec.ops)
    if quick:
        states = states[:: max(1, len(states) // 60)]
    violations: list[Violation] = []
    for i, state in enumerate(states):
        dest = materialize(rec.ops, state, rec.initial, scratch / f"s{i:04d}")
        acked = [
            (kind, job)
            for kind, job, mark in markers
            if mark <= state.crash_index
        ]
        violations += check_daemon_recovery(
            dest,
            acked,
            submitted_all,
            scenario="daemon_restart",
            state=state.label or f"s{i}",
        )
    return len(states), violations


def scenario_resume_e2e(scratch: Path, quick: bool):
    """A real checkpointed sort, crashed at sampled log points: resume
    from the wreckage (or, when validation structurally refuses the
    checkpoints, a fresh run) must produce byte-identical output."""
    from repro.cluster.config import ClusterConfig
    from repro.oocs.api import sort_out_of_core
    from repro.records.format import RecordFormat
    from repro.records.generators import generate

    fmt = RecordFormat("u8", 16)
    recs = generate("uniform", fmt, 512, seed=11)
    cluster = ClusterConfig(p=2, mem_per_proc=2**10)

    def run(workdir: Path, ckdir: Path, resume: bool):
        return sort_out_of_core(
            "threaded",
            recs,
            cluster,
            fmt,
            buffer_records=128,
            workdir=workdir,
            checkpoint_dir=ckdir,
            resume=resume,
            keep_checkpoints=True,
        )

    work = scratch / "work"
    with trace(work) as rec:
        baseline = run(work / "w", work / "ck", resume=False)
    expected = baseline.output_records().tobytes()

    samples = 4 if quick else 10
    step = max(1, len(rec.ops) // samples)
    crash_indices = sorted({*range(step, len(rec.ops), step), len(rec.ops)})
    states = enumerate_crash_states(
        rec.ops, crash_indices=crash_indices, max_torn_per_state=1
    )
    target = 12 if quick else 40
    states = states[:: max(1, len(states) // target)]
    violations: list[Violation] = []
    for i, state in enumerate(states):
        dest = materialize(rec.ops, state, rec.initial, scratch / f"s{i:04d}")
        label = state.label or f"s{i}"
        try:
            try:
                result = run(dest / "w", dest / "ck", resume=True)
            except CheckpointError:
                # Structured refusal of the wreckage is legal recovery:
                # restart from scratch.
                result = run(dest / "fresh_w", dest / "fresh_ck", resume=False)
        except Exception as exc:  # noqa: BLE001 - any escape is the finding
            violations.append(
                Violation(
                    scenario="resume_e2e",
                    state=label,
                    message=(
                        f"recovery run raised {type(exc).__name__}: {exc}"
                    ),
                )
            )
            continue
        if result.output_records().tobytes() != expected:
            violations.append(
                Violation(
                    scenario="resume_e2e",
                    state=label,
                    message="recovered output diverged from the uncrashed run",
                )
            )
    return len(states), violations


#: name → scenario callable, in sweep order.
SCENARIOS = {
    "journal_append": scenario_journal_append,
    "journal_compact": scenario_journal_compact,
    "checkpoint_save": scenario_checkpoint_save,
    "checkpoint_prune": scenario_checkpoint_prune,
    "sidecar": scenario_sidecar,
    "daemon_restart": scenario_daemon_restart,
    "resume_e2e": scenario_resume_e2e,
}


def run_sweep(
    scratch: str | Path,
    scenarios: list[str] | None = None,
    quick: bool = False,
) -> dict:
    """Run the selected crash-consistency scenarios under ``scratch``.

    Returns a JSON-friendly summary: per-scenario state counts and
    violations, plus sweep totals. An empty ``violations`` list is the
    pass criterion the bench and CI smoke assert on.
    """
    scratch = Path(scratch)
    names = list(SCENARIOS) if scenarios is None else list(scenarios)
    summary: dict = {"quick": quick, "scenarios": {}}
    total_states = 0
    all_violations: list[Violation] = []
    for name in names:
        fn = SCENARIOS[name]
        states, violations = fn(scratch / name, quick)
        total_states += states
        all_violations += violations
        summary["scenarios"][name] = {
            "states": states,
            "violations": [
                {"state": v.state, "message": v.message} for v in violations
            ],
        }
    summary["states_total"] = total_states
    summary["violations_total"] = len(all_violations)
    return summary
