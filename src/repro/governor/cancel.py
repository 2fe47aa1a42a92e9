"""Cooperative cancellation: one token, observed at every blocking seam.

A :class:`CancelToken` is the single switch that stops a run. Nothing in
this package preempts a thread; instead every place a rank can block —
the pipeline pools' bounded waits, the mailbox receive loop, a retry
policy's backoff sleep, the disk retry loop, and the pass-program loop
itself — polls the token and raises its structured exception
(:class:`~repro.errors.CancelledError` or
:class:`~repro.errors.DeadlineExceeded`) from the next poll interval.
That makes cancellation prompt (one poll slice, ~50 ms) without any of
the corruption risks of killing threads: a cancelled pass unwinds
through the same ``finally`` blocks as a failed one, so pool leases are
recycled, pipeline workers joined, and the last pass-boundary
checkpoint stays valid for ``--resume``.

Deadlines are just pre-armed cancellation: a token built with
``deadline_s`` flips itself once ``time.monotonic()`` passes the
deadline, with no timer thread — the flip is evaluated lazily at each
poll.

Deterministic test triggers: ``cancel_after_checks=n`` fires the token
on its *n*-th :meth:`CancelToken.check` (mid-pass, inside whatever wait
happens to perform that check), and ``cancel_at_pass=k`` fires when
:meth:`CancelToken.pass_boundary` reports pass ``k`` complete — the two
hooks the governor bench uses to deliver a cancel at every boundary and
mid-pass point of every program.
"""

from __future__ import annotations

import threading
import time

from repro.errors import Cancellation, CancelledError, DeadlineExceeded


class CancelToken:
    """A thread-safe cancellation flag with optional deadline.

    Parameters
    ----------
    deadline_s:
        Seconds from construction after which the token counts as
        cancelled with :class:`~repro.errors.DeadlineExceeded`.
    cancel_after_checks:
        Fire on the nth call to :meth:`check` (deterministic mid-pass
        cancellation for tests and the chaos bench).
    cancel_at_pass:
        Fire when :meth:`pass_boundary` is told this pass index has
        completed (deterministic boundary cancellation).
    """

    def __init__(
        self,
        deadline_s: float | None = None,
        cancel_after_checks: int | None = None,
        cancel_at_pass: int | None = None,
    ) -> None:
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError(f"deadline_s must be positive, got {deadline_s}")
        if cancel_after_checks is not None and cancel_after_checks < 1:
            raise ValueError(
                f"cancel_after_checks must be >= 1, got {cancel_after_checks}"
            )
        if cancel_at_pass is not None and cancel_at_pass < 1:
            raise ValueError(
                f"cancel_at_pass must be >= 1, got {cancel_at_pass}"
            )
        self.deadline_s = deadline_s
        self._deadline_at = (
            time.monotonic() + deadline_s if deadline_s is not None else None
        )
        self._cancel_after_checks = cancel_after_checks
        self._cancel_at_pass = cancel_at_pass
        self._event = threading.Event()
        self._shared_event = None
        self._lock = threading.Lock()
        self._reason: str | None = None
        self.checks = 0

    # -- flipping --------------------------------------------------------

    def cancel(self, reason: str = "cancelled") -> None:
        """Request cancellation. Idempotent; the first reason wins."""
        with self._lock:
            if self._reason is None:
                self._reason = reason
        self._event.set()
        shared = self._shared_event
        if shared is not None:
            shared.set()

    def bind_shared_event(self, event) -> None:
        """Mirror this token's cancelled state through a cross-process
        event (``multiprocessing.Event``).

        The process transport binds one before forking: a ``cancel()``
        in any rank process (or the parent) sets the shared event, and
        every fork-copy of the token observes it in :meth:`cancelled` —
        the copies' ``threading.Event`` flags cannot cross address
        spaces on their own. The cancellation *reason* does not
        propagate (only the bit does); a copy that learns of the cancel
        through the shared event reports the generic reason. Deadlines
        need no mirroring: ``CLOCK_MONOTONIC`` is system-wide, so every
        fork-copy evaluates the same ``_deadline_at`` lazily.
        """
        with self._lock:
            self._shared_event = event
        if self._event.is_set():
            event.set()

    def _shared_set(self) -> bool:
        shared = self._shared_event
        return shared is not None and shared.is_set()

    def pass_boundary(self, completed_index: int) -> None:
        """Report that pass ``completed_index`` finished (called by the
        pass-program loop on every rank; idempotent)."""
        at = self._cancel_at_pass
        if at is not None and completed_index >= at:
            self.cancel(f"cancelled at pass boundary {completed_index}")

    # -- observation -----------------------------------------------------

    def _deadline_passed(self) -> bool:
        return (
            self._deadline_at is not None
            and time.monotonic() >= self._deadline_at
        )

    def cancelled(self) -> bool:
        """True once cancelled or past the deadline."""
        return (
            self._event.is_set()
            or self._shared_set()
            or self._deadline_passed()
        )

    def exception(self) -> Cancellation:
        """The structured exception this token stops a run with."""
        if self._event.is_set() or self._shared_set():
            with self._lock:
                return CancelledError(self._reason or "cancelled")
        return DeadlineExceeded(self.deadline_s or 0.0)

    def check(self) -> None:
        """One cancellation point: count the check, fire a pending
        ``cancel_after_checks`` trigger, and raise if cancelled."""
        fire = False
        with self._lock:
            self.checks += 1
            if (
                self._cancel_after_checks is not None
                and self.checks >= self._cancel_after_checks
            ):
                fire = True
        if fire:
            self.cancel(f"cancelled after {self._cancel_after_checks} checks")
        if self.cancelled():
            raise self.exception()

    def sleep(self, seconds: float, slice_s: float = 0.05) -> None:
        """Sleep up to ``seconds``, waking early (and raising) on
        cancellation — the drop-in for retry-backoff ``time.sleep``."""
        deadline = time.monotonic() + seconds
        while True:
            if self.cancelled():
                raise self.exception()
            left = deadline - time.monotonic()
            if left <= 0:
                return
            self._event.wait(min(slice_s, left))


def maybe_sleep(token: "CancelToken | None", seconds: float) -> None:
    """Cancellable sleep when a token is present, plain sleep otherwise."""
    if token is not None:
        token.sleep(seconds)
    else:
        time.sleep(seconds)
