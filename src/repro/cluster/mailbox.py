"""Thread-safe mailboxes backing point-to-point communication.

One FIFO queue per ``(source, dest, tag)`` triple. MPI guarantees
non-overtaking order between a fixed (source, dest, tag) pair; a queue
per triple gives exactly that, while messages on different tags may be
consumed in any order — matching the semantics the rank programs rely
on. A queue lives only while it holds messages or a receiver waits on
it: every collective uses a fresh tag, so a table that kept drained
queues would grow by P² entries per collective.

The router is also where the resilience layer instruments the fabric:
an attached :class:`~repro.resilience.faults.FaultPlan` injects comm
faults at the top of :meth:`MailboxRouter.put` (before the payload is
enqueued, so a retried send never duplicates a message), an attached
:class:`~repro.resilience.retry.RetryPolicy` retries transient comm
faults, and every put/successful get stamps per-rank activity times the
:class:`~repro.resilience.watchdog.RankWatchdog` polls to detect stuck
ranks.

:class:`MailboxRouter` is the fabric of the *thread* transport; the
process transport's router (:mod:`repro.cluster.process_backend`)
shares the send-admission logic through :class:`SendAdmission`, so
fault injection, retry accounting, and cancellation unwinding behave
identically on both backends.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import defaultdict

import numpy as np

from repro.errors import CommError

#: Default seconds a receive waits before declaring deadlock. Rank
#: programs in this package exchange messages promptly; a stuck receive
#: virtually always means mismatched sends/receives.
DEFAULT_TIMEOUT = 120.0

#: Seconds per poll slice in blocked receives (and cancel checks).
POLL_SLICE = 0.05


class SendAdmission:
    """Shared send-side admission control for every transport's router.

    The sequence every ``put`` must run before a payload may enter the
    fabric — closed check, cancellation check, fault injection, retry
    with backoff — lives here once, so the thread and process routers
    cannot drift. Subclasses provide the backend-specific state:

    * :meth:`_is_closed` — whether the world has been shut down;
    * :meth:`_count_retry` — account one retried send (surfaces as
      ``SpmdResult.comm_retries``).

    ``fault_plan`` / ``retry_policy`` / ``cancel_token`` are plain
    attributes the SPMD launcher assigns (duck-typed; no
    :mod:`repro.resilience` or :mod:`repro.governor` import).
    """

    fault_plan = None
    retry_policy = None
    cancel_token = None

    def _is_closed(self) -> bool:
        raise NotImplementedError

    def _count_retry(self) -> None:
        raise NotImplementedError

    def _check_cancel(self) -> None:
        """Raise the attached token's structured exception once it is
        cancelled, so blocked sends/receives unwind within one poll
        slice."""
        token = self.cancel_token
        if token is not None and token.cancelled():
            raise token.exception()

    def _check_closed(self) -> None:
        if self._is_closed():
            raise CommError("communicator has been shut down")

    def _admit_send(self, source: int, dest: int, tag: object) -> None:
        """Run the closed/cancel/fault/retry ladder for one send."""
        plan = self.fault_plan
        policy = self.retry_policy
        attempt = 1
        while True:
            self._check_closed()
            self._check_cancel()
            try:
                if plan is not None:
                    plan.check("comm", where=f"{source}->{dest} tag={tag!r}")
                return
            except CommError as exc:
                if (
                    policy is None
                    or attempt >= policy.max_attempts
                    or not policy.retryable(exc)
                ):
                    raise
                self._count_retry()
                token = self.cancel_token
                if token is not None:
                    token.sleep(policy.delay_s(attempt))
                else:
                    time.sleep(policy.delay_s(attempt))
                attempt += 1


class MailboxRouter(SendAdmission):
    """The shared message fabric of one SPMD world (thread transport).

    ``shared_fabric`` is True: every rank runs in the same address
    space, so payloads cross the fabric by reference, stats objects are
    shared, and rank 0 can see every disk's counters directly.
    """

    #: All ranks share one address space (see ``Comm.shared_fabric``).
    shared_fabric = True

    def __init__(self, timeout: float = DEFAULT_TIMEOUT) -> None:
        self._timeout = timeout
        self._queues: dict[tuple[int, int, object], queue.SimpleQueue] = {}
        self._lock = threading.Lock()
        self._closed = False
        self.comm_retries = 0
        self._activity: dict[int, float] = {}

    # -- SendAdmission hooks -------------------------------------------

    def _is_closed(self) -> bool:
        return self._closed

    def _count_retry(self) -> None:
        with self._lock:
            self.comm_retries += 1

    # ------------------------------------------------------------------

    def _queue_for(self, key: tuple[int, int, object]) -> queue.SimpleQueue:
        """The live queue of ``key``, created if absent. Call under
        ``self._lock``: a put must not land in a queue a receiver has
        just dropped from the table."""
        q = self._queues.get(key)
        if q is None:
            q = self._queues[key] = queue.SimpleQueue()
        return q

    # -- watchdog support ----------------------------------------------

    def touch(self, rank: int, stamp: float | None = None) -> None:
        """Stamp ``rank`` as having made progress.

        Stamps are *monotonic by construction*: a stamp older than the
        one already recorded is discarded, never written. Concurrent
        deliveries for the same rank (a pipelined pass's reader thread
        racing its writer, or — on the process backend — stamps
        propagating through shared memory with latency) may therefore
        call ``touch`` in any order without ever moving a rank's
        activity time backwards, which would make the watchdog see
        phantom silence. ``stamp`` defaults to ``time.monotonic()``
        taken now; an explicit value must come from the same clock.
        """
        now = time.monotonic() if stamp is None else stamp
        with self._lock:
            prev = self._activity.get(rank)
            if prev is None or now > prev:
                self._activity[rank] = now

    def activity(self) -> dict[int, float]:
        """Latest progress stamp (``time.monotonic()``) per rank."""
        with self._lock:
            return dict(self._activity)

    # -- data-plane hooks ----------------------------------------------

    def alloc_packed(self, dtype: np.dtype, total: int) -> np.ndarray:
        """A fresh buffer for the packed single-buffer ``alltoallv``.

        The thread fabric shares one address space, so plain heap memory
        works: receivers get disjoint views of this buffer. The process
        fabric overrides this to hand out a ``shared_memory``-backed
        array instead (same contract: fresh, contiguous, never pooled).
        """
        return np.empty(total, dtype=dtype)

    # ------------------------------------------------------------------

    def put(self, source: int, dest: int, tag: object, payload: object) -> None:
        self._admit_send(source, dest, tag)
        with self._lock:
            self._queue_for((source, dest, tag)).put(payload)
        self.touch(source)

    def get(self, source: int, dest: int, tag: object) -> object:
        # Poll in short slices so that a world shutdown (another rank
        # failed) interrupts blocked receivers promptly instead of after
        # the full deadlock timeout. The queue is looked up again every
        # slice, in case another receiver of the same key dropped it.
        key = (source, dest, tag)
        waited = 0.0
        while True:
            self._check_closed()
            self._check_cancel()
            with self._lock:
                q = self._queue_for(key)
            try:
                payload = q.get(timeout=POLL_SLICE)
            except queue.Empty:
                waited += POLL_SLICE
                if waited >= self._timeout:
                    raise CommError(
                        f"receive timed out after {self._timeout}s: "
                        f"rank {dest} waiting for (source={source}, tag={tag!r}) — "
                        f"likely mismatched sends/receives or a collective mismatch"
                    ) from None
            else:
                with self._lock:
                    if q.empty() and self._queues.get(key) is q:
                        del self._queues[key]
                self.touch(dest)
                return payload

    def pending(self) -> dict[tuple[int, int, object], int]:
        """Undelivered message counts per (source, dest, tag) — used by
        tests to assert the fabric drains completely."""
        with self._lock:
            counts = defaultdict(int)
            for key, q in self._queues.items():
                n = q.qsize()
                if n:
                    counts[key] = n
            return dict(counts)

    def close(self) -> None:
        self._closed = True
