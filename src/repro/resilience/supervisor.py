"""Supervised recovery: automatic restart of a crashed SPMD cohort.

The paper's out-of-core sorts target runs long enough that losing a
rank is the *expected* case, not the exceptional one. Before this
module, a rank dying (SIGKILL, ``os._exit``, an unhandled exception, a
watchdog timeout) aborted the whole ``sort_out_of_core`` call and
recovery meant a human re-invoking with ``--resume``. The supervisor
closes that loop in-process: the parent tears down the surviving
cohort, sweeps leftover state (scratch stores, ``/dev/shm`` segments,
pool leases — the *caller* owns those resets, via the
``on_restart`` hook), and relaunches the pass program from the last
pass-boundary checkpoint **within the same call**.

Three pieces:

* :class:`RestartPolicy` — how many restarts, how long to back off
  (seeded exponential backoff with jitter, mirroring
  :class:`~repro.resilience.retry.RetryPolicy`), and the
  restartable-vs-fatal classification. The classification reuses the
  failure taxonomy the retry and governor layers established: asking
  to stop (:class:`~repro.errors.Cancellation`), refusing to start
  (:class:`~repro.errors.AdmissionRejected`,
  :class:`~repro.errors.BudgetExceeded`), and failures a relaunch
  cannot cure (corruption, a full disk, a bad config, a
  failed audit or checkpoint) stay fatal; crashes and hangs restart.
* :class:`SupervisorStats` — restarts taken, wall spent restarting,
  and a per-attempt cause log, surfaced end to end on
  ``OocResult.supervisor`` (the ``supervisor`` section of
  :func:`~repro.oocs.report.result_summary`, which a plain ``sort``
  prints).
* :class:`RunSupervisor` — the loop itself: run the attempt, classify
  the failure, reset the world through ``on_restart``, back off
  (cancellably — a governor deadline expiring during backoff wins),
  and try again.

The supervisor deliberately knows nothing about stores, transports, or
checkpoints: the attempt callable re-resolves the resume point itself
and the ``on_restart`` hook does the domain-specific sweeping. Its one
caller is the checkpoint-aware ``run_pass_program``, which serves the
CLI and the daemon; because every transport tears its cohort down
before ``run`` raises, ``RunSupervisor(policy).run(lambda:
run_spmd(...))`` also relaunches a bare SPMD program, on either backend
(``tests/test_supervisor.py::TestRunSpmdSeam``).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from repro.errors import (
    AdmissionRejected,
    AuditError,
    BudgetExceeded,
    Cancellation,
    CheckpointError,
    ConfigError,
    CorruptionError,
    DimensionError,
    DiskFullError,
    SpmdError,
    VerificationError,
)
from repro.governor.cancel import maybe_sleep

#: Failure classes a relaunch can never cure: structured refusals and
#: stop requests (cancellation, admission, budget), configuration and
#: shape mistakes, data already known bad (a block failing its
#: checksum, failed audit/verification, untrusted checkpoint), and resource exhaustion that deterministic
#: re-execution would simply hit again (a full disk).
FATAL_TYPES = (
    Cancellation,
    AdmissionRejected,
    BudgetExceeded,
    CheckpointError,
    AuditError,
    ConfigError,
    DimensionError,
    VerificationError,
    CorruptionError,
    DiskFullError,
)


@dataclass(frozen=True)
class RestartPolicy:
    """When and how often a supervised run may be relaunched.

    Parameters
    ----------
    max_restarts:
        Restarts allowed *after* the first attempt (so a policy with
        ``max_restarts=2`` runs at most 3 attempts).
    base_backoff_s / max_backoff_s / jitter / seed:
        Seeded exponential backoff between attempts, same shape as
        :class:`~repro.resilience.retry.RetryPolicy`: restart ``k``
        sleeps ``base * 2**(k-1)`` capped at ``max_backoff_s``, plus a
        uniform jitter fraction drawn from ``random.Random(seed)`` so
        two supervised runs with the same seed back off identically.
    """

    max_restarts: int = 2
    base_backoff_s: float = 0.01
    max_backoff_s: float = 1.0
    jitter: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_restarts < 0:
            raise ConfigError(
                f"max_restarts must be >= 0, got {self.max_restarts}"
            )
        if self.base_backoff_s < 0 or self.max_backoff_s < 0:
            raise ConfigError("restart backoff must be >= 0")
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigError(f"jitter must be in [0, 1], got {self.jitter}")

    def restartable(self, exc: BaseException) -> bool:
        """True when relaunching from the last checkpoint may cure
        ``exc``.

        The launcher wraps rank failures as
        :class:`~repro.errors.SpmdError`; classification looks at the
        carried cause. Restartable: killed/vanished ranks, watchdog
        timeouts, escaped transient faults, and any ordinary unhandled
        exception (a crash is exactly what supervision is for). Fatal:
        every :data:`FATAL_TYPES` class, an injected fault explicitly marked
        permanent (``transient=False`` — deterministic re-execution
        would hit it again), and non-``Exception`` signals like
        ``KeyboardInterrupt``.
        """
        cause = exc.cause if isinstance(exc, SpmdError) else exc
        if not isinstance(cause, Exception):
            return False
        if isinstance(cause, FATAL_TYPES):
            return False
        if getattr(cause, "transient", None) is False:
            return False
        return True

    def delay_s(self, restart: int, rng: random.Random) -> float:
        """Backoff before restart number ``restart`` (1-based)."""
        if restart < 1:
            raise ConfigError(f"restart number must be >= 1, got {restart}")
        base = min(
            self.base_backoff_s * (2 ** (restart - 1)), self.max_backoff_s
        )
        return base * (1.0 + self.jitter * rng.random())


@dataclass
class SupervisorStats:
    """What supervision did to one run.

    ``attempts`` logs every *failed* attempt (a clean first attempt
    leaves it empty): cause type and message, the failing rank when the
    launcher identified one, the classification verdict, whether a
    restart followed, and the backoff taken. ``restarts`` counts the
    relaunches actually performed; ``restart_wall`` is the wall-clock
    spent between attempts (teardown hook + backoff + resume
    re-validation).
    """

    max_restarts: int = 0
    restarts: int = 0
    restart_wall: float = 0.0
    attempts: list[dict] = field(default_factory=list)

    def record_failure(
        self,
        exc: BaseException,
        restartable: bool,
        restarted: bool,
        backoff_s: float,
    ) -> dict:
        cause = exc.cause if isinstance(exc, SpmdError) else exc
        entry = {
            "attempt": len(self.attempts) + 1,
            "cause": type(cause).__name__,
            "detail": str(cause)[:200],
            "rank": getattr(exc, "rank", None),
            "restartable": restartable,
            "restarted": restarted,
            "backoff_s": round(backoff_s, 6),
        }
        self.attempts.append(entry)
        return entry

    def as_dict(self) -> dict:
        return {
            "max_restarts": self.max_restarts,
            "restarts": self.restarts,
            "restart_wall": self.restart_wall,
            "attempts": [dict(entry) for entry in self.attempts],
        }


class RunSupervisor:
    """The classified restart loop around one SPMD launch.

    ``run(attempt, on_restart)`` calls ``attempt()`` until it returns.
    On failure the policy classifies the exception; a fatal class, an
    exhausted restart budget, or a cancellation during backoff
    re-raises to the caller's normal failure path. Otherwise
    ``on_restart(restart_number, exc)`` sweeps the world (delete
    un-checkpointed scratch, reap stale shared memory — whatever the
    seam owns), the supervisor backs off
    cancellably, and the next attempt starts. The attempt callable is
    responsible for re-resolving its resume point (the last trusted
    pass-boundary checkpoint) at the top of every attempt.
    """

    def __init__(self, policy: RestartPolicy, cancel=None) -> None:
        self.policy = policy
        self.cancel = cancel
        self.stats = SupervisorStats(max_restarts=policy.max_restarts)
        self._rng = random.Random(policy.seed)

    def run(self, attempt, on_restart=None):
        while True:
            try:
                return attempt()
            except BaseException as exc:
                restartable = self.policy.restartable(exc)
                restart = restartable and (
                    self.stats.restarts < self.policy.max_restarts
                )
                backoff = (
                    self.policy.delay_s(self.stats.restarts + 1, self._rng)
                    if restart
                    else 0.0
                )
                self.stats.record_failure(exc, restartable, restart, backoff)
                if not restart:
                    raise
                self.stats.restarts += 1
                started = time.monotonic()
                try:
                    if on_restart is not None:
                        on_restart(self.stats.restarts, exc)
                    # A cancel/deadline arriving during backoff wins
                    # over the restart: maybe_sleep raises the
                    # structured Cancellation, which propagates to the
                    # caller's fatal path.
                    maybe_sleep(self.cancel, backoff)
                finally:
                    self.stats.restart_wall += time.monotonic() - started
