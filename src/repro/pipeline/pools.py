"""Bounded read-ahead prefetcher and write-behind flusher.

One :class:`ReadAhead` / :class:`WriteBehind` pair serves one rank for
one pass. Both are backed by a single thread and a bounded queue of
``depth`` items, and on both sides one item is one round's column
buffer: a prefetched column going in, a round's assembled output (with
all the writes that retire it) going out. A pass therefore pins at most
``2·depth + O(1)`` column buffers beyond the synchronous baseline — the
buffers a run reserves in the buffer pool before it starts, which the
prediction model (:func:`repro.simulate.predict.buffers_per_round`) and
admission control (:func:`repro.oocs.api.job_demands`) reason about. The
depth is the job's, for every pass.

Contracts, shared by both pools:

* **depth 0 is synchronous** — no thread is created and every operation
  runs inline on the caller, byte-for-byte identical to the
  pre-pipeline code path;
* **order is preserved** — reads are delivered and writes retired in
  submission order, across and within items (append cursors and PDM
  offsets depend on it);
* **first-error propagation** — an exception raised inside the worker
  thread is re-raised, as the *same exception object*, from the next
  consumer call (:meth:`ReadAhead.get`, :meth:`WriteBehind.put`, or
  :meth:`WriteBehind.drain`), so a ``DiskFullError`` in a flusher
  thread surfaces to the rank program exactly like a synchronous one;
* **bounded waits** — every blocking call polls with a deadline and
  raises :class:`~repro.errors.PipelineError` on timeout instead of
  hanging the SPMD world;
* **clean shutdown** — :meth:`close` is idempotent, never raises, and
  joins the worker so no threads outlive the pass (a worker stuck in a
  stalled disk call is left as a daemon and reaped when the call
  returns — it cannot be interrupted from Python);
* **no stranded buffer** — a value prefetched but never consumed goes
  to ``on_drop``; a write item's ``release`` runs exactly once whether
  the item was written, skipped behind an error, or refused.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.errors import ConfigError, PipelineError
from repro.pipeline.timing import READ_WAIT, WRITE_WAIT, StageClock

#: Seconds between polls of a bounded queue; short enough that shutdown
#: and error propagation feel immediate, long enough to stay off the
#: profiler's radar.
_POLL = 0.05


@dataclass(frozen=True)
class PipelinePlan:
    """How a pass overlaps its I/O.

    Parameters
    ----------
    depth:
        Column buffers (rounds) each pool may queue. ``0`` disables the
        threads entirely (synchronous execution); ``1`` overlaps one
        round's read and one round's writes with compute; deeper
        pipelines hide more latency at the cost of pinned buffer memory.
    timeout:
        Seconds any blocking pool operation may wait before raising
        :class:`~repro.errors.PipelineError` (the pipeline's analogue
        of the mailbox deadlock timeout).
    cancel:
        Optional :class:`~repro.governor.CancelToken`. Every bounded
        pool wait polls it each ``_POLL`` slice and re-raises its
        structured exception, so a cancelled pass unwinds from its next
        read/write wait instead of running the pass to completion.
    """

    depth: int = 0
    timeout: float = 120.0
    cancel: object = None

    def __post_init__(self) -> None:
        if self.depth < 0:
            raise ConfigError(f"pipeline depth must be >= 0, got {self.depth}")
        if self.timeout <= 0:
            raise ConfigError(f"pipeline timeout must be positive, got {self.timeout}")


#: The depth-0 plan: the pre-pipeline, strictly sequential code path.
SYNCHRONOUS = PipelinePlan(depth=0)


def _check_cancel(token) -> None:
    """Raise the token's structured exception once it is cancelled.

    Duck-typed (any object with ``cancelled()``/``exception()``) so this
    module needs no import from :mod:`repro.governor`.
    """
    if token is not None and token.cancelled():
        raise token.exception()


class ReadAhead:
    """Prefetch a fixed sequence of read tasks through a bounded queue.

    ``tasks`` are zero-argument callables (typically
    ``partial(store.read_portion, rank, c)``); :meth:`get` yields their
    results in order. With ``plan.depth == 0`` the task runs inline.
    """

    def __init__(
        self,
        tasks: Sequence[Callable],
        plan: PipelinePlan,
        clock: StageClock | None = None,
        name: str = "read-ahead",
        on_drop: Callable | None = None,
    ) -> None:
        self._tasks = list(tasks)
        self._plan = plan
        self._on_drop = on_drop
        self._clock = clock if clock is not None else StageClock()
        self._next = 0
        self._stop = threading.Event()
        self._queue: queue.Queue | None = None
        self._thread: threading.Thread | None = None
        if plan.depth > 0 and self._tasks:
            self._queue = queue.Queue(maxsize=plan.depth)
            self._thread = threading.Thread(
                target=self._worker, name=f"pipeline-{name}", daemon=True
            )
            self._thread.start()

    def _worker(self) -> None:
        tok = self._plan.cancel

        def stopped() -> bool:
            return self._stop.is_set() or (
                tok is not None and tok.cancelled()
            )

        for task in self._tasks:
            if stopped():
                return
            try:
                item = ("ok", task())
            except BaseException as exc:  # noqa: BLE001 — crosses threads
                item = ("err", exc)
            delivered = False
            while not stopped():
                try:
                    self._queue.put(item, timeout=_POLL)
                    delivered = True
                    break
                except queue.Full:
                    continue
            if not delivered and item[0] == "ok" and self._on_drop is not None:
                # Stopped with a value in hand: release it (e.g. recycle
                # a pool lease) rather than stranding it.
                try:
                    self._on_drop(item[1])
                except Exception:
                    pass
            if item[0] == "err":
                return

    def get(self):
        """The next read's result, in submission order."""
        if self._next >= len(self._tasks):
            raise PipelineError("read-ahead exhausted: more gets than tasks")
        self._next += 1
        if self._queue is None:
            _check_cancel(self._plan.cancel)
            with self._clock.stage(READ_WAIT):
                return self._tasks[self._next - 1]()
        deadline = time.monotonic() + self._plan.timeout
        t0 = time.perf_counter()
        try:
            while True:
                _check_cancel(self._plan.cancel)
                try:
                    kind, value = self._queue.get(timeout=_POLL)
                    break
                except queue.Empty:
                    if time.monotonic() >= deadline:
                        raise PipelineError(
                            f"read-ahead timed out after {self._plan.timeout}s "
                            f"waiting for buffer {self._next - 1} of "
                            f"{len(self._tasks)} — the underlying read has "
                            f"stalled"
                        ) from None
        finally:
            self._clock.add(READ_WAIT, time.perf_counter() - t0)
        if kind == "err":
            raise value
        return value

    def close(self) -> None:
        """Stop prefetching and join the worker. Idempotent, non-raising."""
        self._stop.set()
        if self._thread is None:
            return
        if self._queue is not None:
            # Drain so a producer blocked on a full queue can observe the
            # stop flag and exit. Prefetched-but-unconsumed values are
            # handed to on_drop (e.g. BufferPool.recycle) so an early
            # close cannot strand pool leases.
            try:
                while True:
                    kind, value = self._queue.get_nowait()
                    if kind == "ok" and self._on_drop is not None:
                        try:
                            self._on_drop(value)
                        except Exception:
                            pass
            except queue.Empty:
                pass
        self._thread.join(timeout=self._plan.timeout)
        self._thread = None
        if self._queue is not None:
            # A producer already inside put() when stop was set may have
            # landed one more item; sweep again now that it has exited.
            try:
                while True:
                    kind, value = self._queue.get_nowait()
                    if kind == "ok" and self._on_drop is not None:
                        try:
                            self._on_drop(value)
                        except Exception:
                            pass
            except queue.Empty:
                pass

    def __enter__(self) -> "ReadAhead":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class _Stop:
    """Queue sentinel terminating a flusher worker."""


_STOP = _Stop()


class WriteBehind:
    """Retire write items on a background thread, in submission order.

    One item is one *round*: the store call writing every segment the
    round produced (the ``s/P`` segments of a deal round, say, one disk
    operation per disk) plus the release of the column buffer those
    writes read from. :meth:`put` blocks only when
    ``depth`` items are already queued behind the one being written, so
    ``depth`` counts column buffers in flight — the unit
    :class:`PipelinePlan`, DESIGN §6 and admission control reason in —
    and the writes of round ``t`` overlap the read, sort and exchange of
    rounds ``t+1 … t+depth``. (Queueing single segment writes instead
    made a depth-2 writer wait for 30 of a round's 32 writes before the
    next round could start: the deal passes ran serialised.)

    :meth:`drain` blocks until everything submitted has retired and
    re-raises the first worker error. After an error the worker skips
    the writes of the backlog — but still releases each item's buffer —
    so shutdown stays prompt, and every subsequent :meth:`put` re-raises
    the error immediately.
    """

    def __init__(
        self,
        plan: PipelinePlan,
        clock: StageClock | None = None,
        name: str = "write-behind",
    ) -> None:
        self._plan = plan
        self._clock = clock if clock is not None else StageClock()
        self._error: BaseException | None = None
        self._pending = 0
        self._cv = threading.Condition()
        self._stop = threading.Event()
        self._queue: queue.Queue | None = None
        self._thread: threading.Thread | None = None
        if plan.depth > 0:
            self._queue = queue.Queue(maxsize=plan.depth)
            self._thread = threading.Thread(
                target=self._worker, name=f"pipeline-{name}", daemon=True
            )
            self._thread.start()

    @staticmethod
    def _retire(tasks: Sequence[Callable], release: Callable | None) -> None:
        """Run one item's writes in order, then release its buffer —
        also when a write raises (the rest of the item is abandoned)."""
        try:
            for task in tasks:
                task()
        finally:
            if release is not None:
                release()

    def _worker(self) -> None:
        while True:
            item = self._queue.get()
            if item is _STOP:
                return
            tasks, release = item
            if self._error is not None or self._stop.is_set():
                tasks = ()  # skip the writes, keep the release
            try:
                self._retire(tasks, release)
            except BaseException as exc:  # noqa: BLE001 — crosses threads
                with self._cv:
                    if self._error is None:
                        self._error = exc
            with self._cv:
                self._pending -= 1
                self._cv.notify_all()

    def _raise_pending_error(self) -> None:
        if self._error is not None:
            raise self._error

    def put(self, *tasks: Callable, release: Callable | None = None) -> None:
        """Submit one item: zero-argument write ``tasks`` retired in
        order, then ``release()`` (typically recycling the pool lease
        the writes read from). Blocks while ``depth`` items are queued.

        ``release`` runs exactly once whatever happens to the item —
        written, skipped behind an earlier error, or refused by this
        call raising — so handing a buffer to ``put`` ends the caller's
        responsibility for it.
        """
        accepted = False
        try:
            if self._queue is None:
                _check_cancel(self._plan.cancel)
                accepted = True
                with self._clock.stage(WRITE_WAIT):
                    self._retire(tasks, release)
            else:
                self._enqueue((tasks, release))
                accepted = True
        finally:
            if not accepted and release is not None:
                release()

    def _enqueue(self, item: tuple) -> None:
        self._raise_pending_error()
        deadline = time.monotonic() + self._plan.timeout
        t0 = time.perf_counter()
        with self._cv:
            self._pending += 1
        try:
            while True:
                self._raise_pending_error()
                _check_cancel(self._plan.cancel)
                try:
                    self._queue.put(item, timeout=_POLL)
                    return
                except queue.Full:
                    if time.monotonic() >= deadline:
                        raise PipelineError(
                            f"write-behind timed out after {self._plan.timeout}s "
                            f"with {self._pending - 1} rounds in flight — the "
                            f"underlying write has stalled"
                        ) from None
        except BaseException:
            with self._cv:
                self._pending -= 1  # never queued
            raise
        finally:
            self._clock.add(WRITE_WAIT, time.perf_counter() - t0)

    def drain(self) -> None:
        """Wait until every submitted item has retired; re-raise the
        first worker error (as the original exception object)."""
        if self._queue is not None:
            deadline = time.monotonic() + self._plan.timeout
            with self._clock.stage(WRITE_WAIT):
                with self._cv:
                    while self._pending > 0:
                        _check_cancel(self._plan.cancel)
                        if time.monotonic() >= deadline:
                            raise PipelineError(
                                f"write-behind drain timed out after "
                                f"{self._plan.timeout}s with {self._pending} "
                                f"rounds still in flight"
                            )
                        self._cv.wait(_POLL)
        else:
            _check_cancel(self._plan.cancel)
        self._raise_pending_error()

    def close(self) -> None:
        """Stop the worker and join it. Idempotent, never raises —
        errors surface through :meth:`put`/:meth:`drain` only."""
        if self._thread is None:
            return
        self._stop.set()  # worker skips (but releases) items not yet started
        deadline = time.monotonic() + self._plan.timeout
        while True:
            try:
                self._queue.put(_STOP, timeout=_POLL)
                break
            except queue.Full:
                if time.monotonic() >= deadline:
                    break  # worker is stuck in a write; leave the daemon
        self._thread.join(timeout=self._plan.timeout)
        self._thread = None

    def __enter__(self) -> "WriteBehind":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        try:
            if exc_type is None:
                self.drain()
        finally:
            self.close()
