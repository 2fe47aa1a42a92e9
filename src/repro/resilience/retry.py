"""Transient-fault retry: bounded attempts with deterministic backoff.

A :class:`RetryPolicy` wraps the lowest-level fallible operations —
:meth:`~repro.disks.virtual_disk.VirtualDisk.read_at` /
:meth:`~repro.disks.virtual_disk.VirtualDisk.write_at` (and, through
them, every matrixfile store) and
:meth:`~repro.cluster.mailbox.MailboxRouter.put` — with:

* a hard attempt budget (``max_attempts``);
* exponential backoff with *seeded* jitter, so two runs with the same
  seed sleep the same schedule (the chaos soak depends on this for
  reproducibility);
* per-exception classification: only *retryable* faults are retried.

Classification policy (:meth:`RetryPolicy.retryable`): an exception
carrying ``transient`` (set by :class:`~repro.resilience.faults.FaultPlan`)
is classified by that flag; :class:`~repro.errors.DiskFullError` and
structural misuse (read-only disks, invalid names/ranges, wrong-rank
access, missing objects) are always fatal; bare short reads are treated
as transient (the out-of-core stores never legitimately short-read, so
a short read means a racing or flaky medium).
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field

from repro.errors import CorruptionError, DiskError, DiskFullError, ResilienceError

#: Substrings identifying structural (never-retryable) DiskError
#: messages raised by the virtual-disk layer itself.
_FATAL_MARKERS = (
    "read-only",
    "invalid",
    "negative",
    "no object",
    "out of range",
    "cannot access",
    "cannot write",
    "read buffer holds",
)


@dataclass
class RetryPolicy:
    """Bounded retry with deterministic exponential backoff.

    Parameters
    ----------
    max_attempts:
        Total tries per operation (1 = no retry).
    base_delay_s:
        Sleep before the first retry; doubles each further retry.
    max_delay_s:
        Backoff ceiling.
    jitter:
        Fraction of the delay randomized (``0.25`` → ±25%), drawn from
        a PRNG seeded with ``seed`` so schedules are reproducible.
    seed:
        Jitter PRNG seed.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.005
    max_delay_s: float = 0.25
    jitter: float = 0.25
    seed: int = 0
    _rng: random.Random = field(init=False, repr=False)
    _lock: threading.Lock = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ResilienceError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ResilienceError("retry delays must be >= 0")
        if not 0.0 <= self.jitter <= 1.0:
            raise ResilienceError(f"jitter must be in [0, 1], got {self.jitter}")
        self._rng = random.Random(self.seed)
        self._lock = threading.Lock()

    # -- classification --------------------------------------------------

    @staticmethod
    def retryable(exc: BaseException) -> bool:
        """True when retrying ``exc``'s operation could plausibly help."""
        if isinstance(exc, DiskFullError):
            # Never retryable, whatever its transient flag says:
            # backing off cannot conjure free space, so ENOSPC must not
            # burn the backoff budget. A run's scratch is planned up
            # front instead: each intermediate is deleted at the pass
            # boundary after its last reader.
            return False
        transient = getattr(exc, "transient", None)
        if transient is not None:
            return bool(transient)
        if isinstance(exc, CorruptionError):
            # A re-read returns the same bytes.
            return False
        if isinstance(exc, DiskError):
            msg = str(exc)
            return not any(marker in msg for marker in _FATAL_MARKERS)
        return False

    # -- backoff ---------------------------------------------------------

    def delay_s(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        if attempt < 1:
            raise ResilienceError(f"attempt must be >= 1, got {attempt}")
        delay = min(self.base_delay_s * (2 ** (attempt - 1)), self.max_delay_s)
        if self.jitter and delay:
            with self._lock:
                factor = 1.0 + self.jitter * (2.0 * self._rng.random() - 1.0)
            delay *= factor
        return delay

    # -- execution -------------------------------------------------------

    def run(self, fn, on_retry=None, cancel=None):
        """Call ``fn()`` under this policy.

        Retries only retryable exceptions, sleeping the backoff between
        attempts; ``on_retry(attempt, exc)`` is invoked before each
        retry (the disks use it to meter retry counts into
        :class:`~repro.disks.iostats.IoStats`). With ``cancel`` (a
        :class:`~repro.governor.CancelToken`), backoff sleeps are
        cancellation points. The final failure is re-raised unchanged.
        """
        attempt = 1
        while True:
            if cancel is not None and cancel.cancelled():
                raise cancel.exception()
            try:
                return fn()
            except BaseException as exc:
                if attempt >= self.max_attempts or not self.retryable(exc):
                    raise
                if on_retry is not None:
                    on_retry(attempt, exc)
                if cancel is not None:
                    cancel.sleep(self.delay_s(attempt))
                else:
                    time.sleep(self.delay_s(attempt))
                attempt += 1
