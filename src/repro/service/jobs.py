"""The job lifecycle state machine and its journal replay.

One job's life (DESIGN §13)::

    submitted ──► admitted ──► running ──► done
        │             │        │    ▲  └──► failed
        │             │        ▼    │
        │             │     checkpointed ──► done | failed
        │             │        │
        └──────┬──────┴────────┘
               ▼
           cancelled

``running → running`` (and ``checkpointed → running``) is legal: a
daemon restart relaunches a crashed job, journaling a fresh ``running``
event for the new attempt. ``checkpointed`` records pass-boundary
progress (the durable resume point is the checkpoint *manifest*; the
journal event makes the progress observable and survives with it).

Replay folds the journal's event prefix into a job table. It is strict
where strictness is free: a duplicate ``submitted`` for one job id, an
event for a job never submitted, or an illegal transition raises
:class:`~repro.errors.JournalError` — the journal is written by one
daemon holding an exclusive lock, so such a sequence can only mean
corruption that CRC validation missed, and trusting it would be exactly
the lost/duplicated-job bug this layer exists to prevent. Truncation is
*not* an error: any prefix of a legal event sequence is itself legal
(the property the hypothesis suite pins down), so replay of a torn
journal yields the honest state as of the last durable event.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import JournalError

#: Every state a job can be journaled in.
JOB_STATES = (
    "submitted",
    "admitted",
    "running",
    "checkpointed",
    "done",
    "failed",
    "cancelled",
)

#: States a job never leaves.
TERMINAL_STATES = frozenset({"done", "failed", "cancelled"})

#: state → states it may transition to.
LEGAL_TRANSITIONS = {
    "submitted": {"admitted", "running", "cancelled", "failed"},
    "admitted": {"running", "cancelled", "failed"},
    "running": {"running", "checkpointed", "done", "failed", "cancelled"},
    "checkpointed": {"running", "checkpointed", "done", "failed", "cancelled"},
    "done": set(),
    "failed": set(),
    "cancelled": set(),
}


@dataclass
class JobRecord:
    """One job's current state as replayed from (or mirrored ahead of)
    the journal."""

    job_id: str
    tenant: str
    spec: dict
    idempotency_key: str | None = None
    state: str = "submitted"
    submitted_seq: int = 0
    updated_seq: int = 0
    passes_done: int = 0
    attempts: int = 0  # ``running`` events observed (restarts show here)
    error: dict | None = None
    result: dict | None = None
    cancel_reason: str | None = None

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def public(self) -> dict:
        """The job as the status/result protocol responses show it."""
        out = {
            "job": self.job_id,
            "tenant": self.tenant,
            "state": self.state,
            "passes_done": self.passes_done,
            "attempts": self.attempts,
            "spec": dict(self.spec),
        }
        if self.idempotency_key is not None:
            out["idempotency_key"] = self.idempotency_key
        if self.error is not None:
            out["error"] = dict(self.error)
        if self.result is not None:
            out["result"] = dict(self.result)
        if self.cancel_reason is not None:
            out["cancel_reason"] = self.cancel_reason
        return out


def apply_event(jobs: dict[str, JobRecord], event: dict) -> JobRecord | None:
    """Fold one journal event into the job table (None for service-level
    events like ``drain``/``recovered``, which carry no job id)."""
    job_id = event.get("job")
    kind = event.get("kind")
    if job_id is None:
        return None
    if kind == "submitted":
        if job_id in jobs:
            raise JournalError(
                f"journal replays a second submission for job {job_id!r}"
            )
        record = JobRecord(
            job_id=job_id,
            tenant=event.get("tenant", "default"),
            spec=event.get("spec", {}),
            idempotency_key=event.get("key"),
            submitted_seq=event["seq"],
            updated_seq=event["seq"],
        )
        jobs[job_id] = record
        return record
    record = jobs.get(job_id)
    if record is None:
        raise JournalError(
            f"journal has a {kind!r} event for job {job_id!r} "
            "that was never submitted"
        )
    if kind not in JOB_STATES:
        raise JournalError(f"journal has unknown job state {kind!r}")
    if kind not in LEGAL_TRANSITIONS[record.state]:
        raise JournalError(
            f"illegal transition {record.state!r} → {kind!r} for job "
            f"{job_id!r} at seq {event.get('seq')}"
        )
    record.state = kind
    record.updated_seq = event["seq"]
    if kind == "running":
        record.attempts += 1
    elif kind == "checkpointed":
        record.passes_done = max(record.passes_done, int(event.get("pass", 0)))
    elif kind == "done":
        record.result = event.get("result")
    elif kind == "failed":
        record.error = event.get("error")
    elif kind == "cancelled":
        record.cancel_reason = event.get("reason")
    return record


def replay_jobs(events: list[dict]) -> tuple[dict[str, JobRecord], list[dict]]:
    """Replay a journal prefix into ``(job table, service events)``.

    Service events (``drain``, ``recovered`` — anything without a job
    id) come back verbatim for observability; job events must form a
    legal history or :class:`~repro.errors.JournalError` is raised.
    """
    jobs: dict[str, JobRecord] = {}
    service_events: list[dict] = []
    for event in events:
        if event.get("job") is None:
            service_events.append(event)
        else:
            apply_event(jobs, event)
    return jobs, service_events


def compaction_events(jobs: dict[str, JobRecord]) -> list[dict]:
    """A minimal legal event sequence reconstructing ``jobs`` — what
    :meth:`~repro.service.journal.JobJournal.compact` rewrites a grown
    journal down to. Ordering follows each job's original submission
    order, so replay stays deterministic."""
    out: list[dict] = []
    for record in sorted(jobs.values(), key=lambda r: r.submitted_seq):
        out.append(
            {
                "kind": "submitted",
                "job": record.job_id,
                "tenant": record.tenant,
                "spec": record.spec,
                **({"key": record.idempotency_key} if record.idempotency_key else {}),
            }
        )
        if record.state == "submitted":
            continue
        replayed: list[dict] = []
        if record.state in ("running", "checkpointed", "done", "failed",
                            "cancelled") and record.attempts:
            replayed.append({"kind": "admitted", "job": record.job_id})
            replayed.append({"kind": "running", "job": record.job_id})
        elif record.state == "admitted":
            replayed.append({"kind": "admitted", "job": record.job_id})
        if record.passes_done and record.state != "submitted":
            replayed.append(
                {"kind": "checkpointed", "job": record.job_id,
                 "pass": record.passes_done}
            )
        if record.state == "done":
            replayed.append(
                {"kind": "done", "job": record.job_id, "result": record.result}
            )
        elif record.state == "failed":
            replayed.append(
                {"kind": "failed", "job": record.job_id, "error": record.error}
            )
        elif record.state == "cancelled":
            replayed.append(
                {"kind": "cancelled", "job": record.job_id,
                 "reason": record.cancel_reason}
            )
        out.extend(replayed)
    return out
