"""Exception hierarchy for the repro package.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch package failures with a single ``except`` clause while
still being able to distinguish configuration mistakes (bad matrix
dimensions, illegal cluster shapes) from runtime faults (disk and
communication failures).

Errors with multi-parameter constructors define ``__reduce__``: their
``args`` hold the *formatted message*, not the constructor parameters,
so default pickling would rebuild them wrongly (or not at all). The
process transport ships rank failures across address spaces by pickle,
and an error that cannot round-trip loses its type — and with it the
caller's ability to catch the structured cause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class DimensionError(ReproError, ValueError):
    """A matrix shape violates a columnsort restriction.

    Raised when ``r × s`` fails a structural requirement such as
    ``s | r``, the height restriction ``r >= 2 s**2`` (basic columnsort),
    ``r >= 4 s**1.5`` with ``s`` a power of 4 (subblock columnsort), or a
    power-of-two requirement inherited from the out-of-core setting.
    """


class ConfigError(ReproError, ValueError):
    """A cluster or algorithm configuration is inconsistent.

    Examples: ``P`` not dividing ``D``, buffer sizes that do not fit in the
    configured per-processor memory, or a problem size exceeding the
    algorithm's problem-size bound.
    """


class CommError(ReproError, RuntimeError):
    """A communication operation was misused or failed.

    Covers mismatched collective participation, type/shape mismatches in
    point-to-point exchanges, and use of a communicator after shutdown.
    """


class PipelineError(ReproError, RuntimeError):
    """A read-ahead/write-behind buffer pool misbehaved or timed out
    (a stalled prefetch, an over-full flusher, or a drain that never
    completed)."""


class DiskError(ReproError, IOError):
    """A virtual-disk operation failed (short read, out-of-range block,
    write to a read-only disk, or an injected fault)."""


class DiskFullError(DiskError):
    """A virtual disk ran out of configured capacity."""


class CorruptionError(DiskError):
    """A block read back from disk failed its checksum (bit rot, a torn
    write, or a hostile test flipping bytes).

    Carries the failing location: ``disk_id``, ``name``, and the
    ``(offset, length)`` extents that mismatched. Never retried: a
    re-read returns the same bytes.
    """

    def __init__(self, disk_id: int, name: str, extents: list) -> None:
        self.disk_id = disk_id
        self.name = name
        self.extents = list(extents)
        first = self.extents[0] if self.extents else (0, 0)
        super().__init__(
            f"checksum mismatch on disk {disk_id}, object {name!r}, block "
            f"(offset={first[0]}, length={first[1]})"
            + (f" and {len(self.extents) - 1} more" if len(self.extents) > 1 else "")
        )

    def __reduce__(self):
        return (type(self), (self.disk_id, self.name, self.extents))


class SpmdError(ReproError, RuntimeError):
    """A rank of an SPMD program raised; carries the failing rank.

    When several ranks fail concurrently, the reported rank is the
    lowest-numbered rank whose failure is not shutdown collateral (a
    :class:`CommError` raised because the world was already closing).
    """

    def __init__(self, rank: int, cause: BaseException) -> None:
        self.rank = rank
        self.cause = cause
        super().__init__(f"rank {rank} failed: {cause!r}")

    def __reduce__(self):
        return (type(self), (self.rank, self.cause))


class ResilienceError(ReproError, RuntimeError):
    """The fault-tolerance layer itself failed (a retry budget that could
    not be honored, an inconsistent fault plan, or a recovery step that
    found the world in a state it cannot repair)."""


class CheckpointError(ResilienceError):
    """A pass-boundary checkpoint could not be written, read, or trusted
    (missing or corrupt manifest, a manifest that does not match the job
    being resumed, or a content digest mismatch on the store it names)."""


class AuditError(ResilienceError):
    """An online per-pass invariant audit failed — the pass's output
    violates a columnsort invariant (wrong column sizes, too many
    sorted runs, out-of-order samples), so the pass must not be
    checkpointed or resumed from."""


class WatchdogTimeout(ResilienceError):
    """A rank made no observable progress past the watchdog deadline
    (stuck in a collective, a pool wait, or a hung disk call); carries
    the stuck rank and the seconds it sat idle.

    The watchdog only fires when *every* watched rank is silent, so the
    optional ``stalled`` list names them all — ``(rank, idle_s)`` pairs,
    quietest first. ``rank``/``idle_s`` stay the quietest rank (the
    primary suspect), keeping the one-rank form backward compatible.
    """

    def __init__(
        self,
        rank: int,
        idle_s: float,
        deadline_s: float,
        stalled: list | None = None,
    ) -> None:
        self.rank = rank
        self.idle_s = idle_s
        self.deadline_s = deadline_s
        self.stalled = [(int(r), float(s)) for r, s in (stalled or [])]
        message = (
            f"rank {rank} made no progress for {idle_s:.1f}s "
            f"(watchdog deadline {deadline_s:.1f}s)"
        )
        if len(self.stalled) > 1:
            message += "; all stalled ranks: " + ", ".join(
                f"{r} ({s:.1f}s idle)" for r, s in self.stalled
            )
        super().__init__(message)

    def __reduce__(self):
        return (type(self), (self.rank, self.idle_s, self.deadline_s, self.stalled))


class RankKilled(ResilienceError):
    """A fault plan killed this rank (chaos injection).

    On the thread backend a ``rank_kill``/``rank_exit`` fault surfaces
    as this exception — the closest a shared address space comes to
    losing a rank; on the process backend the rank really dies (SIGKILL
    or ``os._exit``) and the parent reports a
    :class:`~repro.cluster.process_backend.RemoteRankError` instead.
    Both are restartable under a
    :class:`~repro.resilience.supervisor.RestartPolicy`.
    """


class GovernorError(ReproError, RuntimeError):
    """The resource-governance layer refused, stopped, or bounded work
    (cancellation, deadlines, memory budgets, admission control)."""


class Cancellation(GovernorError):
    """Base of the two structured ways a run is asked to stop: an
    explicit cancel and an expired deadline. Rank programs raise one of
    the subclasses from their next cancellation point (a pool wait, a
    mailbox wait, a retry backoff sleep, or a pass boundary); the SPMD
    launcher re-raises it unwrapped so callers can catch the precise
    cause without unpacking an :class:`SpmdError`."""


class CancelledError(Cancellation):
    """The run was cancelled via its
    :class:`~repro.governor.CancelToken`; carries the reason given."""

    def __init__(self, reason: str = "cancelled") -> None:
        self.reason = reason
        super().__init__(f"run cancelled: {reason}")

    def __reduce__(self):
        return (type(self), (self.reason,))


class DeadlineExceeded(Cancellation):
    """The run's wall-clock deadline expired before it finished."""

    def __init__(self, deadline_s: float) -> None:
        self.deadline_s = deadline_s
        super().__init__(f"run exceeded its deadline of {deadline_s:.1f}s")

    def __reduce__(self):
        return (type(self), (self.deadline_s,))


class BudgetExceeded(GovernorError):
    """The buffer pool's budget cannot hold a request: a run's reserved
    buffers with the running reservations, or a take no reservation
    covers. Raised at once; nothing waits for memory."""

    def __init__(self, requested: int, budget: int, held: int, why: str) -> None:
        self.requested = requested
        self.budget = budget
        self.held = held
        self.why = why
        super().__init__(
            f"buffer-pool budget exceeded: need {requested} bytes with "
            f"{held} of {budget} held — {why}"
        )

    def __reduce__(self):
        return (type(self), (self.requested, self.budget, self.held, self.why))


class AdmissionRejected(GovernorError):
    """The :class:`~repro.governor.JobGovernor` shed this job instead of
    admitting it (queue full, queue timeout, or a demand no quota could
    ever satisfy); carries which."""

    def __init__(self, reason: str, detail: str = "") -> None:
        self.reason = reason
        self.detail = detail
        super().__init__(
            f"job not admitted ({reason})" + (f": {detail}" if detail else "")
        )

    def __reduce__(self):
        return (type(self), (self.reason, self.detail))


class ServiceError(ReproError, RuntimeError):
    """The sort-as-a-service layer failed (a malformed request, a daemon
    that refused to start, a client that exhausted its reconnect budget,
    or a protocol violation on the job socket)."""


class JournalError(ServiceError):
    """The durable job journal is inconsistent beyond what torn-write
    recovery covers: an illegal state transition on replay, a duplicate
    submission record for one job id, or an event for a job the journal
    never saw submitted. A merely *truncated* journal is not an error —
    replay trusts the valid prefix and discards the torn tail."""


class JobNotFound(ServiceError):
    """A service request named a job id the daemon's journal has never
    seen (or that was purged)."""

    def __init__(self, job_id: str) -> None:
        self.job_id = job_id
        super().__init__(f"unknown job {job_id!r}")

    def __reduce__(self):
        return (type(self), (self.job_id,))


class VerificationError(ReproError, AssertionError):
    """Sorted-output verification failed (order, permutation, or layout)."""
