"""Admission control: quotas, bounded FIFO queueing, structured shedding.

Two concurrent :func:`~repro.oocs.api.sort_out_of_core` calls in one
process share one buffer pool, one thread scheduler, and (often) the
same scratch disks; unbounded, they thrash each other rather than
queue. A :class:`JobGovernor`, handed to every such call as
``governor=``, is the gate that serializes that contention:

* **quotas** — at most ``max_concurrent`` jobs run at once, and the
  sum of admitted jobs' declared memory / scratch demands stays within
  ``mem_quota_bytes`` / ``scratch_quota_bytes`` (when set);
* **bounded priority queueing** — a job that cannot start immediately
  waits its turn (highest priority first, arrival order within a
  priority; the default priority 0 everywhere is plain FIFO), but only
  ``max_queue`` jobs may wait; the next one is *shed* immediately with
  :class:`~repro.errors.AdmissionRejected` ("queue full") rather than
  piling up;
* **queue timeouts** — a queued job that cannot start within
  ``queue_timeout_s`` is shed with ``AdmissionRejected`` ("timeout"),
  so overload turns into prompt structured refusals instead of
  unbounded latency;
* **fail-fast on impossible demands** — a job whose declared demand
  exceeds the whole quota is rejected up front ("demand exceeds
  quota"): no queue position could ever satisfy it.

The admission state machine (documented in DESIGN §10) is:
``arrive → (reject: queue full | demand impossible) | queue → (reject:
timeout | cancel) | run → release``.
"""

from __future__ import annotations

import threading
import time
from collections import deque

from repro.errors import AdmissionRejected, ConfigError

#: Counter keys exposed by :meth:`JobGovernor.snapshot`.
ADMISSION_KEYS = (
    "admitted",
    "completed",
    "rejected_queue_full",
    "rejected_timeout",
    "rejected_impossible",
    "peak_running",
    "peak_queued",
)


class AdmissionTicket:
    """Proof of admission for one job; a context manager whose exit
    releases the job's slot and resources back to the governor."""

    def __init__(self, governor: "JobGovernor", mem_bytes: int,
                 scratch_bytes: int, wait_s: float) -> None:
        self._governor = governor
        self.mem_bytes = mem_bytes
        self.scratch_bytes = scratch_bytes
        self.wait_s = wait_s
        self._released = False

    def release(self) -> None:
        """Return this job's slot and resources (idempotent)."""
        if not self._released:
            self._released = True
            self._governor._release(self)

    def snapshot(self) -> dict:
        """Admission facts for this job (merged into run reports)."""
        return {
            "admission_wait_s": self.wait_s,
            "admitted_mem_bytes": self.mem_bytes,
            "admitted_scratch_bytes": self.scratch_bytes,
        }

    def __enter__(self) -> "AdmissionTicket":
        return self

    def __exit__(self, *exc) -> None:
        self.release()


class JobGovernor:
    """Process-wide admission gate for concurrent out-of-core sorts.

    Parameters
    ----------
    max_concurrent:
        Jobs allowed to run simultaneously.
    max_queue:
        Jobs allowed to *wait*; the next arrival is shed.
    mem_quota_bytes / scratch_quota_bytes:
        Optional caps on the summed declared demands of running jobs.
    queue_timeout_s:
        Default seconds a queued job may wait before being shed.
    """

    def __init__(
        self,
        max_concurrent: int = 2,
        max_queue: int = 4,
        mem_quota_bytes: int | None = None,
        scratch_quota_bytes: int | None = None,
        queue_timeout_s: float = 30.0,
    ) -> None:
        if max_concurrent < 1:
            raise ConfigError(
                f"max_concurrent must be >= 1, got {max_concurrent}"
            )
        if max_queue < 0:
            raise ConfigError(f"max_queue must be >= 0, got {max_queue}")
        if queue_timeout_s <= 0:
            raise ConfigError(
                f"queue_timeout_s must be positive, got {queue_timeout_s}"
            )
        self.max_concurrent = max_concurrent
        self.max_queue = max_queue
        self.mem_quota_bytes = mem_quota_bytes
        self.scratch_quota_bytes = scratch_quota_bytes
        self.queue_timeout_s = queue_timeout_s
        self._cv = threading.Condition()
        self._running: set[AdmissionTicket] = set()
        # Waiting jobs as (-priority, arrival seq, opaque key): min() is
        # the head — highest priority first, FIFO within a priority.
        self._waiters: deque[tuple] = deque()
        self._waiter_seq = 0
        self._mem_in_use = 0
        self._scratch_in_use = 0
        self._counters = {key: 0 for key in ADMISSION_KEYS}

    # -- internals (call with self._cv held) -----------------------------

    def _fits(self, mem_bytes: int, scratch_bytes: int) -> bool:
        if len(self._running) >= self.max_concurrent:
            return False
        if (
            self.mem_quota_bytes is not None
            and self._mem_in_use + mem_bytes > self.mem_quota_bytes
        ):
            return False
        if (
            self.scratch_quota_bytes is not None
            and self._scratch_in_use + scratch_bytes > self.scratch_quota_bytes
        ):
            return False
        return True

    def _grant(self, ticket: AdmissionTicket) -> None:
        self._running.add(ticket)
        self._mem_in_use += ticket.mem_bytes
        self._scratch_in_use += ticket.scratch_bytes
        self._counters["admitted"] += 1
        self._counters["peak_running"] = max(
            self._counters["peak_running"], len(self._running)
        )

    # -- API -------------------------------------------------------------

    def admit(
        self,
        mem_bytes: int = 0,
        scratch_bytes: int = 0,
        timeout_s: float | None = None,
        cancel=None,
        priority: int = 0,
    ) -> AdmissionTicket:
        """Admit one job, queueing if it cannot start immediately.

        Queued jobs start highest ``priority`` first, FIFO within a
        priority (the default 0 everywhere degenerates to plain FIFO).
        Raises :class:`~repro.errors.AdmissionRejected` when the queue
        is already full, the wait exceeds the timeout, or the declared
        demand exceeds the whole quota. ``cancel`` (a
        :class:`~repro.governor.CancelToken`) aborts the wait with the
        token's structured exception.
        """
        if mem_bytes < 0 or scratch_bytes < 0:
            raise ConfigError("job demands must be >= 0")
        if (
            self.mem_quota_bytes is not None
            and mem_bytes > self.mem_quota_bytes
        ):
            with self._cv:
                self._counters["rejected_impossible"] += 1
            raise AdmissionRejected(
                "demand exceeds quota",
                f"needs {mem_bytes} B of memory, quota is "
                f"{self.mem_quota_bytes} B",
            )
        if (
            self.scratch_quota_bytes is not None
            and scratch_bytes > self.scratch_quota_bytes
        ):
            with self._cv:
                self._counters["rejected_impossible"] += 1
            raise AdmissionRejected(
                "demand exceeds quota",
                f"needs {scratch_bytes} B of scratch, quota is "
                f"{self.scratch_quota_bytes} B",
            )
        timeout = self.queue_timeout_s if timeout_s is None else timeout_s
        t0 = time.monotonic()
        deadline = t0 + timeout
        with self._cv:
            if not self._waiters and self._fits(mem_bytes, scratch_bytes):
                ticket = AdmissionTicket(self, mem_bytes, scratch_bytes, 0.0)
                self._grant(ticket)
                return ticket
            if len(self._waiters) >= self.max_queue:
                self._counters["rejected_queue_full"] += 1
                raise AdmissionRejected(
                    "queue full",
                    f"{len(self._waiters)} of {self.max_queue} slots waiting",
                )
            self._waiter_seq += 1
            me = (-priority, self._waiter_seq, object())
            self._waiters.append(me)
            self._counters["peak_queued"] = max(
                self._counters["peak_queued"], len(self._waiters)
            )
            try:
                while not (
                    min(self._waiters) is me
                    and self._fits(mem_bytes, scratch_bytes)
                ):
                    if cancel is not None and cancel.cancelled():
                        raise cancel.exception()
                    left = deadline - time.monotonic()
                    if left <= 0:
                        self._counters["rejected_timeout"] += 1
                        raise AdmissionRejected(
                            "timeout",
                            f"queued {timeout:.1f}s without a slot freeing",
                        )
                    self._cv.wait(min(left, 0.05))
                self._waiters.remove(me)
                self._cv.notify_all()  # the new head may already fit
                ticket = AdmissionTicket(
                    self, mem_bytes, scratch_bytes, time.monotonic() - t0
                )
                self._grant(ticket)
                return ticket
            except BaseException:
                if me in self._waiters:
                    self._waiters.remove(me)
                self._cv.notify_all()
                raise

    def _release(self, ticket: AdmissionTicket) -> None:
        with self._cv:
            self._running.discard(ticket)
            self._mem_in_use -= ticket.mem_bytes
            self._scratch_in_use -= ticket.scratch_bytes
            self._counters["completed"] += 1
            self._cv.notify_all()

    # -- observation -----------------------------------------------------

    def running(self) -> int:
        with self._cv:
            return len(self._running)

    def queued(self) -> int:
        with self._cv:
            return len(self._waiters)

    def snapshot(self) -> dict:
        """Counters plus current occupancy."""
        with self._cv:
            out = dict(self._counters)
            out["running"] = len(self._running)
            out["queued"] = len(self._waiters)
            out["mem_in_use"] = self._mem_in_use
            out["scratch_in_use"] = self._scratch_in_use
            return out

