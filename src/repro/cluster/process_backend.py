"""Multiprocessing SPMD transport: one forked OS process per rank.

The thread transport's ranks overlap only where NumPy releases the GIL;
everything at the Python level — record packing, pipeline bookkeeping,
structured-dtype gathers — serializes. This transport forks one process
per rank so rank-local compute escapes the GIL entirely, while keeping
every contract of :class:`~repro.cluster.transport.Transport`:

* **Fabric** — one ``multiprocessing.Queue`` inbox per rank; each rank
  demultiplexes its inbox into local per-``(source, tag)`` FIFOs, so
  MPI's non-overtaking order per (source, dest, tag) holds exactly as
  on the thread fabric. Small payloads pickle through the queue.
* **Packed alltoallv** — ``alloc_packed`` hands
  :class:`~repro.cluster.comm.Comm` a ``multiprocessing.shared_memory``
  slab leased from a persistent per-rank
  :class:`~repro.cluster.arena.ShmArena`, so the single-buffer pack
  writes its bytes *once* into memory every rank can map; receivers get
  a slice descriptor (segment name, dtype, offset, count) instead of a
  pickle of the data. The receive side lands its slice with one raw
  copy — into a pool-served buffer when it can
  (``bytes_landed_zero_extra_copy``) — and acknowledges; the creator
  *recycles* the slab into the arena's free list once every slice is
  acknowledged, so steady-state collectives create and unlink zero
  segments. Receivers attach to each segment once and cache the mapping
  for the run (:class:`~repro.cluster.arena.AttachCache`). The landing
  copy is transport-internal — the analogue of a NIC landing bytes in a
  receive buffer — and therefore unmetered, which keeps
  ``CommStats``/``CopyStats`` byte meters identical to the thread
  backend (where receivers hold views).
* **Ownership rule** — a slab belongs to the rank that allocated it.
  Creators recycle on full acknowledgement and unlink at rank teardown
  (or — last resort — the parent unlinks whatever a dying rank
  reported, falling back to a pid-keyed ``/dev/shm`` scan for ranks
  that died without reporting). Receivers never unlink; cached
  receiver mappings are closed at rank teardown.
* **Isolating fabric** — queue payloads are pickled *eagerly* in
  ``put`` (not in the queue's feeder thread), so by the time a send
  returns, the sender may freely mutate its buffer: the fabric itself
  provides MPI's isolation guarantee. ``Comm`` sees this via
  ``isolating_fabric`` and skips ``_isolate``'s physical copy while
  still metering it, keeping ``CopyStats`` byte meters equal to the
  thread backend's.
* **Activity stamps** — a shared ``Array('d', P)`` updated with
  monotonic-max semantics; the parent-side
  :class:`~repro.resilience.watchdog.RankWatchdog` polls it through a
  router facade exactly as it polls the thread router.
* **Accounting** — every rank snapshots its (fork-copied) disk
  ``IoStats``, the data-plane ``CopyStats`` and the pool's budget
  counters around the program and ships their deltas, with its
  ``CommStats``, home over a result pipe; the parent merges them
  (:meth:`~repro.telemetry.Counters.merge`) into the caller's meters,
  so ``run_spmd_metered`` and the pass programs stay backend-agnostic.
* **Failures** — a rank's exception is pickled home when it round-trips
  (so ``SpmdError.cause`` keeps its type across the boundary) and
  replaced by a :class:`RemoteRankError` surrogate carrying the type
  name and traceback when it does not. Severity ranking is shared with
  the thread transport.

Fork (not spawn) start method: rank programs are closures over live
stores, monkeypatched classes, and armed fault plans — semantics the
thread backend provides by sharing the address space, and which fork
preserves by copying it.
"""

from __future__ import annotations

import os
import pickle
import queue as _queue
import signal
import time
import traceback
from collections import defaultdict, deque
from multiprocessing import connection, get_context

import numpy as np

from repro.cluster.arena import (
    SHM_PREFIX,
    AttachCache,
    ShmArena,
    unlink_by_name,
)
from repro.cluster.comm import Comm
from repro.cluster.mailbox import DEFAULT_TIMEOUT, POLL_SLICE, SendAdmission
from repro.cluster.stats import CommStats
from repro.cluster.transport import Transport, raise_primary_failure
from repro.errors import CommError
from repro.membuf import copy_stats, get_pool
from repro.records.format import RecordFormat

__all__ = [
    "ProcessTransport",
    "ProcessRouter",
    "RemoteRankError",
    "SHM_PREFIX",
    "sweep_stale_segments",
]

_CTX = get_context("fork")


def describe_exit(exitcode: int | None) -> str:
    """Human-readable cause for a rank's exit status: the delivering
    signal's name for signal deaths (``exitcode < 0`` under
    multiprocessing), the injected ``rank_exit`` marker when the chaos
    layer's exit code is recognized, the bare code otherwise."""
    from repro.resilience.faults import RANK_EXIT_CODE

    if exitcode is None:
        return "no exit status"
    if exitcode < 0:
        try:
            name = signal.Signals(-exitcode).name
        except ValueError:
            name = f"signal {-exitcode}"
        return f"killed by {name}"
    if exitcode == RANK_EXIT_CODE:
        return f"exitcode {exitcode} (injected rank_exit)"
    return f"exitcode {exitcode}"


def sweep_stale_segments() -> list[str]:
    """Unlink transport shared-memory segments whose creating process
    is gone; returns the names removed.

    Defensive sweep for the supervised-restart path: every segment name
    embeds its creator's pid (``repro-shm-<pid>-<seq>``), and a rank
    SIGKILLed mid-collective can die between creating a slab and
    reporting it, after the parent's pid-keyed teardown scan already
    ran. Called between supervised attempts so a relaunched cohort
    never inherits (or leaks) a dead cohort's kernel memory. Segments
    created by *live* processes — including this one — are left alone.
    """
    removed: list[str] = []
    try:
        entries = os.listdir("/dev/shm")
    except OSError:
        return removed  # non-POSIX shm layout: nothing to sweep
    own = str(os.getpid())
    for entry in entries:
        parts = entry.split("-")
        # repro-shm-<pid>-<seq>
        if not (entry.startswith(SHM_PREFIX + "-") and len(parts) == 4):
            continue
        pid_part = parts[2]
        if pid_part == own or not pid_part.isdigit():
            continue
        try:
            os.kill(int(pid_part), 0)
        except ProcessLookupError:
            unlink_by_name(entry)
            removed.append(entry)
        except OSError:
            continue  # alive but not ours (EPERM): leave it
    return removed

#: Seconds between writes of a rank's *live* activity stamp into the
#: lock-guarded shared array. Every put/get calls ``touch``; stamping
#: each one would take the cross-process lock on every message, so live
#: stamps are batched to at most one write per interval. Half the
#: receive poll slice keeps the visible stamp at most 25 ms stale —
#: far inside any watchdog deadline's detection granularity.
STAMP_BATCH_S = POLL_SLICE / 2


class RemoteRankError(RuntimeError):
    """Surrogate for a rank failure that cannot cross the process
    boundary (exceptions whose constructors do not round-trip through
    pickle). Carries the original type name, message, and traceback
    text in one string."""


def _portable_exception(exc: BaseException) -> BaseException:
    """The exception itself if it pickle-round-trips, else a surrogate."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        tb = "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))
        return RemoteRankError(
            f"rank failed with {type(exc).__name__}: {exc}\n{tb}"
        )


class _ShmSlice:
    """Wire descriptor of one packed-alltoallv part: where in which
    segment, owned by which rank."""

    __slots__ = ("segment", "creator", "dtype", "offset", "count")

    def __init__(self, segment, creator, dtype, offset, count):
        self.segment = segment
        self.creator = creator
        self.dtype = dtype
        self.offset = offset
        self.count = count

    def __getstate__(self):
        return (self.segment, self.creator, self.dtype, self.offset, self.count)

    def __setstate__(self, state):
        self.segment, self.creator, self.dtype, self.offset, self.count = state


class _Fabric:
    """The shared primitives of one process-backed SPMD world, created
    before the fork so every rank inherits them."""

    def __init__(self, size: int, timeout: float) -> None:
        self.size = size
        self.timeout = timeout
        self.inboxes = [_CTX.Queue() for _ in range(size)]
        self.acks = [_CTX.Queue() for _ in range(size)]
        self.closed = _CTX.Event()
        self.activity = _CTX.Array("d", size)
        self.retries = _CTX.Value("i", 0)


class _ParentRouter:
    """The parent's facade over the fabric — exactly the two methods
    the :class:`~repro.resilience.watchdog.RankWatchdog` uses."""

    def __init__(self, fabric: _Fabric) -> None:
        self._fabric = fabric

    def activity(self) -> dict[int, float]:
        act = self._fabric.activity
        with act.get_lock():
            return {p: act[p] for p in range(self._fabric.size)}

    def close(self) -> None:
        self._fabric.closed.set()


class ProcessRouter(SendAdmission):
    """One rank's endpoint of the process fabric (lives in the child).

    Implements the same surface :class:`~repro.cluster.comm.Comm` uses
    on the thread router — ``put``/``get``/``touch``/``activity``/
    ``close``/``alloc_packed``/``comm_retries`` — over cross-process
    primitives.
    """

    shared_fabric = False

    #: Payloads are pickled eagerly in :meth:`put` (not by the queue's
    #: feeder thread), so the fabric itself isolates senders from their
    #: buffers — ``Comm._isolate`` meters but skips its physical copy.
    isolating_fabric = True

    def __init__(self, fabric: _Fabric, rank: int) -> None:
        self._fabric = fabric
        self._rank = rank
        self._timeout = fabric.timeout
        # Inbox demux: (source, tag) -> FIFO of materialized payloads.
        self._local: dict[tuple, deque] = defaultdict(deque)
        self._arena = ShmArena()
        self._attached = AttachCache()
        # Live-stamp batching state (see STAMP_BATCH_S / touch).
        self._stamp_written: dict[int, float] = {}
        self.stamp_writes = 0

    # -- SendAdmission hooks -------------------------------------------

    def _is_closed(self) -> bool:
        return self._fabric.closed.is_set()

    def _count_retry(self) -> None:
        with self._fabric.retries.get_lock():
            self._fabric.retries.value += 1

    @property
    def comm_retries(self) -> int:
        return self._fabric.retries.value

    # -- watchdog support ----------------------------------------------

    def touch(self, rank: int, stamp: float | None = None) -> None:
        """Monotonic-max activity stamp in the shared array. Stamps may
        arrive stale relative to another process's (cross-process store
        latency), so the max semantics are load-bearing here, not just
        defensive — see ``MailboxRouter.touch``.

        *Live* stamps (``stamp is None`` — the per-op put/get path) are
        batched: at most one shared-array write per
        :data:`STAMP_BATCH_S`, because taking the cross-process lock on
        every message measurably serializes the fabric. The visible
        stamp is then at most ``STAMP_BATCH_S`` older than the rank's
        true last activity, which only *advances* the moment the
        watchdog would see silence begin — detection latency is
        unchanged. Explicit stamps (tests, replayed clocks) always
        write."""
        if stamp is None:
            now = time.monotonic()
            if now - self._stamp_written.get(rank, 0.0) < STAMP_BATCH_S:
                return
            self._stamp_written[rank] = now
        else:
            now = stamp
        act = self._fabric.activity
        with act.get_lock():
            self.stamp_writes += 1
            if now > act[rank]:
                act[rank] = now

    def activity(self) -> dict[int, float]:
        act = self._fabric.activity
        with act.get_lock():
            return {p: act[p] for p in range(self._fabric.size)}

    def close(self) -> None:
        self._fabric.closed.set()

    # -- shared-memory packed buffers ----------------------------------

    def alloc_packed(self, dtype: np.dtype, total: int) -> np.ndarray:
        """A shared-memory-backed buffer for the packed alltoallv,
        leased from the persistent arena.

        Pending acknowledgements are drained first, so slabs whose
        slices have all landed return to the free list before the lease
        — at steady state (every shape seen once, acks keeping up) this
        is a freelist pop: no segment create, no unlink."""
        self._reap()
        dtype = np.dtype(dtype)
        if total == 0:
            return np.empty(0, dtype=dtype)
        slab = self._arena.lease(total * dtype.itemsize)
        return np.ndarray((total,), dtype=dtype, buffer=slab.shm.buf)

    def lend_packed(self, packed: np.ndarray, views) -> None:
        """Nothing to register: each view leaves as a slice descriptor
        (:meth:`_outbound`), and the receiver's landing acknowledgement
        returns the slab to the arena."""

    def _slice_of(self, arr: np.ndarray) -> _ShmSlice | None:
        """The descriptor of ``arr`` if its memory lives inside a slab
        this rank created (i.e. it is a packed-alltoallv view) —
        O(log #slabs) via the arena's base-address index."""
        if not isinstance(arr, np.ndarray) or not arr.flags["C_CONTIGUOUS"]:
            return None
        addr = arr.__array_interface__["data"][0]
        slab = self._arena.locate(addr, arr.nbytes)
        if slab is None:
            return None
        return _ShmSlice(
            slab.name, self._rank, arr.dtype, addr - slab.base, len(arr)
        )

    def _outbound(self, payload: object) -> object:
        """Swap packed-buffer views for slice descriptors on the way out."""
        if isinstance(payload, tuple) and len(payload) == 2:
            op, body = payload
            if isinstance(body, np.ndarray):
                desc = self._slice_of(body)
                if desc is not None:
                    self._arena.pin(desc.segment)
                    return (op, desc)
        return payload

    def _land(self, src: np.ndarray) -> np.ndarray:
        """Copy one inbound slice out of shared memory — into a
        pool-served landing buffer when possible, so the receiver's
        private copy is also the buffer the pass body can recycle
        (``bytes_landed_zero_extra_copy``). Unmetered as a data-plane
        copy by design (see module doc)."""
        if src.size:
            out = get_pool().land(src.dtype, src.shape[0])
            np.copyto(RecordFormat.items(out), RecordFormat.items(src))
            copy_stats().record_landed(src.nbytes)
            return out
        return src.copy()

    def _copy_out(self, src: np.ndarray, out: np.ndarray | None) -> np.ndarray:
        """One landing copy out of shared memory: into the caller's
        ``out=`` array when given (zero extra copies downstream), else
        into a pool-served landing buffer (:meth:`_land`)."""
        if out is not None:
            np.copyto(RecordFormat.items(out), RecordFormat.items(src))
            copy_stats().record_landed(src.nbytes)
            return out
        return self._land(src)

    def _materialize(
        self, desc: _ShmSlice, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Land one slice, then ack so the creator can recycle the slab.

        With ``out=`` (a writable array of exactly ``desc.count``
        records) the bytes land directly in it; otherwise a pool-served
        landing buffer is used. Receiver mappings come from the attach
        cache — one attach per ``(creator, segment)`` per run; a slice
        of this rank's own slab needs no mapping and acks synchronously."""
        own = self._arena.owned(desc.segment)
        shm = own.shm if own is not None else self._attached.get(desc.segment)
        src = np.ndarray(
            (desc.count,), dtype=desc.dtype, buffer=shm.buf,
            offset=desc.offset,
        )
        out = self._copy_out(src, out)
        del src
        if own is not None:
            self._arena.ack(desc.segment)
        else:
            self._fabric.acks[desc.creator].put(desc.segment)
        return out

    def _inbound(self, payload: object) -> object:
        if (
            isinstance(payload, tuple)
            and len(payload) == 2
            and isinstance(payload[1], _ShmSlice)
        ):
            return (payload[0], self._materialize(payload[1]))
        return payload

    def _reap(self, force: bool = False) -> None:
        """Apply queued acknowledgements: fully-acked slabs recycle to
        the arena free list."""
        acks = self._fabric.acks[self._rank]
        while True:
            try:
                name = acks.get_nowait()
            except _queue.Empty:
                break
            self._arena.ack(name)
        if force:
            self._arena.unlink_all()

    def teardown(self, grace_s: float = 2.0) -> list[str]:
        """End-of-rank cleanup: wait briefly for outstanding acks, then
        unlink every arena slab and close cached receiver mappings.
        Returns the names of segments that could not be unlinked (the
        parent sweeps them as a last resort)."""
        deadline = time.monotonic() + grace_s
        while not self._arena.all_acked() and time.monotonic() < deadline:
            self._reap()
            time.sleep(0.01)
        self._reap()
        failures = self._arena.unlink_all()
        self._attached.close_all()
        return failures

    # -- the fabric proper ---------------------------------------------

    def put(self, source: int, dest: int, tag: object, payload: object) -> None:
        self._admit_send(source, dest, tag)
        # Eager pickle: serializing here (instead of in the queue's
        # feeder thread) is what licenses ``isolating_fabric`` — once
        # put returns, the payload bytes are captured and the sender
        # may reuse its buffer. The feeder then only memcpys bytes.
        wire = pickle.dumps(
            (source, tag, self._outbound(payload)),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        self._fabric.inboxes[dest].put(wire)
        self.touch(source)

    def get(self, source: int, dest: int, tag: object) -> object:
        key = (source, tag)
        inbox = self._fabric.inboxes[dest]
        waited = 0.0
        while True:
            self._check_closed()
            self._check_cancel()
            ready = self._local.get(key)
            if ready:
                payload = ready.popleft()
                if not ready:
                    del self._local[key]  # every collective has a fresh tag
                self.touch(dest)
                return payload
            try:
                wire = inbox.get(timeout=POLL_SLICE)
            except _queue.Empty:
                waited += POLL_SLICE
                if waited >= self._timeout:
                    raise CommError(
                        f"receive timed out after {self._timeout}s: "
                        f"rank {dest} waiting for (source={source}, "
                        f"tag={tag!r}) — likely mismatched sends/receives "
                        f"or a collective mismatch"
                    ) from None
            else:
                src, got_tag, payload = pickle.loads(wire)
                self._local[(src, got_tag)].append(self._inbound(payload))

    def pending(self) -> dict[tuple, int]:
        """Locally buffered (demuxed but unconsumed) message counts."""
        return {
            key: len(fifo) for key, fifo in self._local.items() if fifo
        }


def _rank_meters(disks: list) -> list:
    """The process-wide meters a rank's work moves: the data plane, the
    pool's budget and each disk. A forked rank moves its own copies, so
    it ships one delta per meter home and the parent merges each into
    the same meter on its side."""
    return [copy_stats(), get_pool().budget_counters, *(d.stats for d in disks)]


def _child_main(fabric, rank, program, args, extra, kwargs, hooks, conns, disks):
    """Rank body in the forked child: run the program, ship results and
    accounting deltas home, always tear the shared segments down."""
    fault_plan, retry_policy, cancel = hooks
    # Only this rank's pipe write end stays open: EOF detection in the
    # parent needs every other inherited copy closed.
    own = conns[rank][1]
    for p, (parent_end, child_end) in enumerate(conns):
        parent_end.close()
        if p != rank:
            child_end.close()

    router = ProcessRouter(fabric, rank)
    router.fault_plan = fault_plan
    router.retry_policy = retry_policy
    router.cancel_token = cancel
    comm = Comm(rank, fabric.size, router, CommStats(rank=rank))

    copy_stats().rebase_peak(get_pool().outstanding())
    meters = _rank_meters(disks)
    before = [meter.snapshot() for meter in meters]

    message: dict = {"rank": rank}
    try:
        value = program(comm, *args, *extra, **kwargs)
        message["outcome"] = "ok"
        message["value"] = value
    except BaseException as exc:  # noqa: BLE001 — must cross processes
        router.close()  # unblock sibling ranks waiting in receives
        message["outcome"] = "err"
        message["error"] = _portable_exception(exc)
    finally:
        message["segments"] = router.teardown()

    message["comm"] = comm.stats.snapshot()
    message["deltas"] = [
        meter.delta(snap, meter.snapshot()) for meter, snap in zip(meters, before)
    ]
    try:
        own.send(message)
    except Exception as exc:
        # Usually an unpicklable rank return value; resend without it.
        message["outcome"] = "err"
        message["value"] = None
        message["error"] = RemoteRankError(
            f"rank {rank} result could not cross the process boundary: {exc}"
        )
        try:
            own.send(message)
        except Exception:
            pass
    own.close()
    # Deliberately no ``cancel_join_thread`` here: exit must wait for the
    # queue feeder threads to flush, or a message a sibling is blocked on
    # could be dropped. On the failure path (undelivered messages filling
    # a queue pipe) the parent drains the fabric and then escalates to
    # terminate, so a wedged feeder cannot hang the run.


class ProcessTransport(Transport):
    """One forked OS process per rank; see the module docstring."""

    name = "process"

    def run(
        self,
        size,
        program,
        *args,
        rank_args=None,
        timeout=DEFAULT_TIMEOUT,
        watchdog_deadline=None,
        fault_plan=None,
        retry_policy=None,
        cancel=None,
        disks=None,
        **kwargs,
    ):
        from repro.cluster.spmd import SpmdResult
        from repro.cluster.transport import ThreadTransport

        if size == 1:
            # Degenerate world: nothing to parallelize across processes,
            # and inline execution keeps single-rank debugging trivial —
            # the same choice the thread transport makes.
            return ThreadTransport().run(
                size, program, *args, rank_args=rank_args, timeout=timeout,
                watchdog_deadline=watchdog_deadline, fault_plan=fault_plan,
                retry_policy=retry_policy, cancel=cancel, disks=disks,
                **kwargs,
            )

        fabric = _Fabric(size, timeout)
        now = time.monotonic()
        for p in range(size):
            fabric.activity[p] = now  # baseline stamp per rank
        if cancel is not None:
            cancel.bind_shared_event(_CTX.Event())

        disks = list(disks) if disks else []
        conns = [_CTX.Pipe(duplex=False) for _ in range(size)]
        hooks = (fault_plan, retry_policy, cancel)
        procs = [
            _CTX.Process(
                target=_child_main,
                args=(
                    fabric, p, program, args,
                    rank_args[p] if rank_args is not None else (),
                    kwargs, hooks, conns, disks,
                ),
                name=f"spmd-rank-{p}",
                daemon=True,
            )
            for p in range(size)
        ]
        watchdog = None
        if watchdog_deadline is not None:
            from repro.resilience.watchdog import RankWatchdog

            watchdog = RankWatchdog(_ParentRouter(fabric), watchdog_deadline)

        messages: list[dict | None] = [None] * size
        try:
            for proc in procs:
                proc.start()
            for _, child_end in conns:
                child_end.close()
            if watchdog is not None:
                # Start polling only after the forks: forking a process
                # that already runs threads is the classic deadlock trap.
                watchdog.start()
            self._collect(fabric, procs, conns, messages, watchdog)
        finally:
            if watchdog is not None:
                watchdog.stop()
            # Drain before joining: a child exiting with undelivered
            # messages waits for its queue feeder to flush, which needs
            # room in the queue pipe.
            self._drain_fabric(fabric, close=False)
            self._join_all(procs)
            for disk in disks:
                # The ranks held the only up-to-date sizes and checksum
                # catalogs; take what they left on disk.
                disk.refresh()
            self._sweep_segments(messages, procs)
            self._drain_fabric(fabric, close=True)

        failures: list[tuple[int, BaseException]] = []
        stats: list[CommStats] = []
        returns: list = [None] * size
        meters = _rank_meters(disks)
        for p, msg in enumerate(messages):
            if msg is None:
                msg = {
                    "outcome": "err",
                    "error": RemoteRankError(
                        f"rank {p} process died without reporting "
                        f"({describe_exit(procs[p].exitcode)})"
                    ),
                }
            if msg["outcome"] == "ok":
                returns[p] = msg.get("value")
            else:
                failures.append((p, msg["error"]))
            # A rank that died before reporting leaves zeroed counters.
            stats.append(CommStats(rank=p))
            stats[-1].merge(msg.get("comm", {}))
            for meter, delta in zip(meters, msg.get("deltas", ())):
                meter.merge(delta)

        if watchdog is not None and watchdog.error is not None:
            failures.append((watchdog.error.rank, watchdog.error))
        if failures:
            raise_primary_failure(failures)
        return SpmdResult(
            returns=returns, stats=stats, comm_retries=fabric.retries.value
        )

    # -- internals -------------------------------------------------------

    @staticmethod
    def _collect(fabric, procs, conns, messages, watchdog) -> None:
        """Receive every rank's result message while the ranks run.

        Results are read *concurrently* with the run (not after join):
        a rank blocks in ``Pipe.send`` if its message outgrows the pipe
        buffer, so joining first would deadlock. A watchdog firing (or a
        rank dying without a message) closes the fabric and the loop
        gives the survivors a short grace period to fail out.
        """
        remaining = {p: conns[p][0] for p in range(len(procs))}
        grace_until = None
        while remaining:
            if grace_until is None and (
                watchdog is not None and watchdog.fired.is_set()
            ):
                grace_until = time.monotonic() + 2.0
            if grace_until is not None and time.monotonic() > grace_until:
                break
            for conn in connection.wait(list(remaining.values()), timeout=0.1):
                p = next(q for q, c in remaining.items() if c is conn)
                try:
                    messages[p] = conn.recv()
                except (EOFError, OSError):
                    messages[p] = None  # died without reporting
                    fabric.closed.set()
                    if grace_until is None:
                        grace_until = time.monotonic() + 2.0
                del remaining[p]
                if watchdog is not None:
                    watchdog.rank_done(p)

    @staticmethod
    def _join_all(procs) -> None:
        for proc in procs:
            proc.join(timeout=2.0)
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
        for proc in procs:
            if proc.is_alive():
                proc.join(timeout=2.0)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=1.0)

    @staticmethod
    def _sweep_segments(messages, procs=()) -> None:
        """Last-resort unlink of arena slabs a dead rank left behind.

        Two sources: names a rank *reported* but could not retire itself
        (terminated mid-teardown), and — for ranks that died without
        reporting at all (``os._exit``, SIGKILL) — a ``/dev/shm`` scan
        keyed by the dead child's pid, since every slab name is
        ``repro-shm-<creator pid>-<seq>``. Unlinks go by bare name
        (:func:`~repro.cluster.arena.unlink_by_name`): mapping a segment
        just to unlink it would fault its pages back in."""
        for msg in messages:
            for name in (msg or {}).get("segments", ()):
                unlink_by_name(name)
        silent_pids = {
            str(proc.pid)
            for proc, msg in zip(procs, messages)
            if msg is None and proc.pid is not None
        }
        if not silent_pids:
            return
        try:
            entries = os.listdir("/dev/shm")
        except OSError:
            return  # non-POSIX shm layout; reported names were handled
        for entry in entries:
            parts = entry.split("-")
            # repro-shm-<pid>-<seq>
            if (
                entry.startswith(SHM_PREFIX + "-")
                and len(parts) == 4
                and parts[2] in silent_pids
            ):
                unlink_by_name(entry)

    @staticmethod
    def _drain_fabric(fabric, close: bool) -> None:
        """Drop undelivered messages (and finally close the queues) so
        no feeder thread or pipe buffer outlives the run."""
        for q in fabric.inboxes + fabric.acks:
            try:
                while True:
                    q.get_nowait()
            except (_queue.Empty, OSError, EOFError):
                pass
            if close:
                q.close()
                q.cancel_join_thread()
