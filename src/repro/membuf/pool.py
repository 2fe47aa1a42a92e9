"""Reusable record-buffer pool.

Every pass of every out-of-core algorithm takes the same handful of
buffer sizes over and over: one column (``buffer_records`` rows) per
read, one packed send buffer per ``alltoallv``, one staging array per
write. :class:`BufferPool` keeps freelists of those buffers keyed by
their *byte size* — a record array and its item view
(:meth:`~repro.records.format.RecordFormat.items`) are one buffer — so
steady-state passes stop churning the allocator and reads can land via
``readinto`` in place of ``bytes`` round-trips.

Three acquisition modes:

* :meth:`BufferPool.lease` — *tracked*: the pool holds a strong
  reference until :meth:`BufferPool.recycle` returns the buffer.
  Used by pass bodies whose buffer lifetime ends inside the pass
  (read → sort → send/write → recycle); :meth:`outstanding` exposes
  the balance so the test suite can assert nothing is held past a
  pass's end.
* :meth:`BufferPool.grab` — *untracked*: ownership transfers to the
  caller (e.g. ``Comm._isolate`` handing an array to a receiver that
  may keep it indefinitely). Untracked buffers re-enter the pool only
  if someone explicitly recycles them; otherwise the garbage collector
  reclaims them.
* :meth:`BufferPool.land` — a grab for a transport's inbound bytes,
  unmetered by the copy meter.

**Reservations.** A run states its buffers before it starts
(:meth:`BufferPool.reserve`: so many buffers of each byte size, the
declaration :meth:`~repro.oocs.base.PassProgram.buffers` makes) and the
pool makes that declaration its contents: idle buffers that no running
reservation needs are released, and each reserved size is topped up
with *spares* — buffers mapped but never used, which hold no memory
until a take first touches them. Every take of the run is served from
the reserved buffers, and they stay idle in the pool for the next run.
A take past the reservations of its size is still served (a fresh
buffer when none is idle) and is counted (``uncovered_takes``), as is
every buffer the pool maps (``fresh_buffers``): a run of a correctly
declared program takes nothing uncovered, and a warm run of the same
shape maps nothing. Concurrent runs' reservations add up. Nothing else
bounds a freelist: the pool maps a buffer only when a size has none
idle, so it never holds more of a size than were reserved or out at
once.

**Released memory leaves the process.** Each buffer the pool allocates
is its own anonymous *private* memory mapping, so dropping it unmaps
its pages: a released buffer leaves the resident set, where a heap
allocator keeps freed chunks of this size for reuse. The mapping must
be private: forked process-backend ranks inherit the pool, and with a
shared mapping every rank would write into one set of pages.

:meth:`recycle` returns any whole, 1-D, C-contiguous view of a pool
buffer (the array handed out, or any other view of all its bytes);
a partial view is never pooled, because handing out a buffer that
aliases live data would corrupt records in flight. The one exception is
a view the pool *lent* (:meth:`lend`): the slices of a packed alltoallv
buffer, one per receiver. Recycling such a slice releases it, and the
buffer itself returns to its freelist once every slice has been
released — the rule the process fabric's shared-memory arena follows
for its slabs. A slice that is never released falls to the garbage
collector with its buffer, which is then never reused under a reader.
An array the pool did not make is adopted only when it owns its memory
and no idle buffer of its size is on hand.

Byte budget (:meth:`set_budget`): the pool tracks its *held bytes* —
freelist buffers plus open tracked leases (a spare holds none) — and a
budget is a hard ceiling on the runs' reservations. A reservation that
would take the running reservations past it raises
:class:`~repro.errors.BudgetExceeded` before its run starts; a tracked
take no reservation covers, that would hold fresh bytes past it, raises
at once. :meth:`grab` is exempt: its buffers leave the pool's ownership
at the call, so charging them would double-count the consumer's own
accounting.
"""

from __future__ import annotations

import mmap
import threading
import weakref
from collections import Counter, deque
from functools import partial

import numpy as np

from repro.errors import BudgetExceeded
from repro.membuf.copystats import copy_stats
from repro.telemetry import Counters

# A buffer's state: on a freelist, out of the pool (leased, grabbed,
# landed or lent), or out but no longer counted (a forgotten lease).
_FREE, _OUT, _FORGOTTEN = range(3)


class BudgetCounters(Counters):
    """A pool's accounting since its last
    :meth:`BufferPool.reset_budget_accounting`: the high-water mark of
    held bytes, the buffers the pool allocated, the takes no reservation
    covered and the idle buffers reservations released."""

    KEYS = (
        "peak_held_bytes",
        "fresh_buffers",
        "uncovered_takes",
        "released_buffers",
    )
    PEAKS = ("peak_held_bytes",)


class _Buffer(weakref.ref):
    """The pool's record of one buffer: a weak reference to its raw
    bytes (the array every view of it has as ``base``), its size and
    state. The pool holds the buffer itself only while it is idle or
    leased."""

    __slots__ = ("key", "nbytes", "state")

    def __init__(self, raw: np.ndarray, callback) -> None:
        super().__init__(raw, callback)
        self.key = id(raw)
        self.nbytes = raw.nbytes
        self.state = _OUT


def _raw_of(arr: np.ndarray) -> np.ndarray:
    """The array holding ``arr``'s bytes: NumPy points every view's
    ``base`` at the first array that owns its memory or wraps a foreign
    buffer (a pool buffer's mapping) — a pool buffer's raw bytes."""
    base = arr.base
    return base if isinstance(base, np.ndarray) else arr


def _map(nbytes: int) -> np.ndarray:
    """``nbytes`` of fresh private anonymous memory, as raw bytes."""
    if nbytes == 0:
        return np.empty(0, dtype=np.uint8)  # mmap cannot map nothing
    return np.frombuffer(
        mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS),
        dtype=np.uint8,
    )


def _bytes_of(buffers: Counter) -> int:
    """The bytes of ``buffers`` (byte size → count)."""
    return sum(nbytes * count for nbytes, count in buffers.items())


class Reservation:
    """One run's share of the pool (:meth:`BufferPool.reserve`): held
    until :meth:`release` (or the end of a ``with`` block)."""

    def __init__(self, pool: "BufferPool", buffers: Counter) -> None:
        self._pool = pool
        self.buffers = buffers

    def release(self) -> None:
        """Give the share back. Idempotent. The buffers stay idle in the
        pool for the next reservation to take or release."""
        buffers, self.buffers = self.buffers, Counter()
        self._pool._unreserve(buffers)

    def __enter__(self) -> "Reservation":
        return self

    def __exit__(self, *exc) -> None:
        self.release()


class BufferPool:
    """Thread-safe freelists of record buffers keyed by byte size, sized
    by the running reservations, with an optional hard byte budget."""

    def __init__(self, budget_bytes: int | None = None) -> None:
        self._free: dict[int, list[np.ndarray]] = {}
        # Reserved buffers no take has used yet: mapped, but their
        # pages are not, so they hold no memory (and no held bytes).
        self._spare: dict[int, list[np.ndarray]] = {}
        # Every buffer the pool knows, by id() of its raw bytes. An
        # entry whose referent died is reaped (its id may be reused).
        self._buffers: dict[int, _Buffer] = {}
        self._dead: deque = deque()  # entries whose buffer died
        # Strong references to tracked leases, by id() of their raw
        # bytes: the reference keeps the id from being reused while the
        # lease is open.
        self._tracked: dict[int, np.ndarray] = {}
        # Buffers of each size out of the pool now, and reserved.
        self._out: Counter = Counter()
        self._reserved: Counter = Counter()
        # Lent slices, by id(): a weak reference to the slice (checked
        # on release, so a reused id cannot pass for it). Lent buffers,
        # by id() of their raw bytes: weak references to the array lent
        # and to its raw bytes, and the number of slices still out.
        self._lent: dict[int, weakref.ref] = {}
        self._loans: dict[int, list] = {}
        self._sweep_at = 64
        # Re-entrant: budget_snapshot reads the counters under it.
        self._lock = threading.RLock()
        self._budget = budget_bytes
        self._held = 0
        self.budget_counters = BudgetCounters(lock=self._lock)

    # -- budget ---------------------------------------------------------

    def set_budget(self, budget_bytes: int | None) -> None:
        """Install (or with None, remove) the hard byte budget."""
        with self._lock:
            self._budget = budget_bytes

    def _bump_held(self, delta: int) -> None:
        """Adjust held bytes (call with ``self._lock`` held)."""
        self._held += delta
        if self._held > self.budget_counters.peak_held_bytes:
            self.budget_counters.peak_held_bytes = self._held

    def _drop_idle(self, nbytes: int, keep: int, table=None) -> int:
        """Drop idle buffers of ``nbytes`` from ``table`` (the freelists,
        or the spares) until ``keep`` remain, the least recently used
        first; returns how many went. Call with ``self._lock`` held."""
        table = self._free if table is None else table
        stack = table.get(nbytes)
        if not stack or len(stack) <= keep:
            return 0
        gone = len(stack) - keep
        for arr in stack[:gone]:
            del self._buffers[id(_raw_of(arr))]
        if table is self._free:
            self._bump_held(-nbytes * gone)
        del stack[:gone]
        if not stack:
            del table[nbytes]
        return gone

    # -- reservations ----------------------------------------------------

    def reserve(self, buffers: dict[int, int]) -> Reservation:
        """Reserve ``buffers`` (byte size → count) for one run and make
        them the pool's contents: idle buffers no running reservation
        needs are released (never-used spares first, then the least
        recently used), the peak of held bytes restarts from what the
        pool still holds, and each reserved size is topped up with fresh
        spare buffers. Raises :class:`BudgetExceeded`, reserving
        nothing, when the running reservations and this one together are
        larger than the budget.
        """
        share = Counter({n: k for n, k in buffers.items() if k > 0})
        need = _bytes_of(share)
        with self._lock:
            reserved = _bytes_of(self._reserved)
            if self._budget is not None and reserved + need > self._budget:
                raise BudgetExceeded(
                    need, self._budget, reserved,
                    "the run's reserved buffers and the running "
                    "reservations are larger than the whole budget",
                )
            self._reap()
            self._reserved.update(share)
            counters = self.budget_counters
            for nbytes in set(self._free) | set(self._spare):
                # Keep what the reservations still need of this size,
                # used buffers before spares.
                keep = max(0, self._reserved[nbytes] - self._out[nbytes])
                used = len(self._free.get(nbytes, ()))
                gone = self._drop_idle(nbytes, max(0, keep - used), self._spare)
                gone += self._drop_idle(nbytes, keep)
                counters.released_buffers += gone
            # The run holds from here: what it released was never its.
            counters.peak_held_bytes = self._held
            for nbytes in share:
                idle = len(self._free.get(nbytes, ()))
                idle += len(self._spare.get(nbytes, ()))
                short = self._reserved[nbytes] - self._out[nbytes] - idle
                if short > 0:
                    self._spare.setdefault(nbytes, []).extend(
                        self._register(_map(nbytes), _FREE) for _ in range(short)
                    )
                    counters.fresh_buffers += short
        return Reservation(self, share)

    def _unreserve(self, share: Counter) -> None:
        with self._lock:
            self._reserved.subtract(share)
            self._reserved = +self._reserved  # drop sizes at zero

    # -- acquisition ---------------------------------------------------

    def _register(self, raw: np.ndarray, state: int = _OUT) -> np.ndarray:
        """Start answering for ``raw``. Call with ``self._lock`` held."""
        entry = self._buffers[id(raw)] = _Buffer(raw, self._dead.append)
        entry.state = state
        return raw

    def _reap(self) -> None:
        """Forget buffers the garbage collector took; one that was out
        is no longer out. Call with ``self._lock`` held."""
        while self._dead:
            entry = self._dead.popleft()
            if self._buffers.get(entry.key) is entry:
                del self._buffers[entry.key]
            if entry.state == _OUT:
                self._out[entry.nbytes] -= 1

    def _take(
        self, dtype: np.dtype, rows: int, track: bool, meter: bool = True
    ) -> np.ndarray:
        dtype = np.dtype(dtype)
        rows = int(rows)
        nbytes = dtype.itemsize * rows
        with self._lock:
            self._reap()
            stack = self._free.get(nbytes)
            hit = bool(stack)
            covered = self._out[nbytes] < self._reserved[nbytes]
            if not covered:
                budget = self._budget
                if (
                    track and not hit and budget is not None
                    and self._held + nbytes > budget
                ):
                    raise BudgetExceeded(
                        nbytes, budget, self._held,
                        "no reservation covers the take, and with what the "
                        "pool holds it is larger than the whole budget",
                    )
                self.budget_counters.uncovered_takes += 1
            self._out[nbytes] += 1
            if hit:
                arr = stack.pop()
                raw = _raw_of(arr)
                if not track:
                    # Ownership leaves the pool with the buffer.
                    self._bump_held(-nbytes)
            else:
                # A first use: of a reserved spare, or of a fresh buffer.
                if track:
                    self._bump_held(nbytes)
                spares = self._spare.get(nbytes)
                if spares:
                    arr = raw = spares.pop()
                else:
                    arr = raw = self._register(_map(nbytes))
                    self.budget_counters.fresh_buffers += 1
            self._buffers[id(raw)].state = _OUT
            if arr.dtype != dtype or arr.shape != (rows,):
                arr = raw.view(dtype)
            if track:
                self._tracked[id(raw)] = arr
        if meter:
            copy_stats().record_pool(hit=hit)
        return arr

    def lease(self, dtype: np.dtype, rows: int) -> np.ndarray:
        """Acquire a tracked ``rows``-long array of ``dtype``; pair with
        :meth:`recycle`. With a budget set, a lease no reservation
        covers that needs fresh bytes past it raises
        :class:`BudgetExceeded`."""
        arr = self._take(dtype, rows, track=True)
        with self._lock:
            outstanding = len(self._tracked)
        copy_stats().record_lease(outstanding)
        return arr

    def grab(self, dtype: np.dtype, rows: int) -> np.ndarray:
        """Acquire an untracked array — ownership transfers to the
        caller; the pool forgets it unless it is later recycled."""
        return self._take(dtype, rows, track=False)

    def land(self, dtype: np.dtype, rows: int) -> np.ndarray:
        """Acquire an untracked *landing* buffer for a transport's
        inbound bytes — :meth:`grab` semantics, but unmetered.

        Landing a wire payload is the analogue of a NIC writing into a
        receive ring: transport-internal, invisible to the data plane's
        copy accounting. The thread backend hands receivers views (no
        pool op at all), so metering the process backend's landing
        acquisitions as pool hits/misses would make the operational
        counters diverge across backends for the same program. The
        buffer still comes from (and, once recycled, returns to) the
        ordinary freelists, so steady-state landings stop churning the
        allocator."""
        return self._take(dtype, rows, track=False, meter=False)

    # -- release -------------------------------------------------------

    def lend(self, base: np.ndarray, views) -> None:
        """Hand ``views`` — disjoint slices of ``base``, an untracked
        array this pool served (a packed alltoallv buffer) — to their
        readers. Each reader releases its slice with :meth:`recycle`;
        ``base`` returns to its freelist with the last release. The
        pool holds no strong reference: a slice never released falls to
        the garbage collector, and ``base`` with it."""
        views = list(views)
        if not views:
            self.recycle(base)
            return
        with self._lock:
            if len(self._lent) >= self._sweep_at:
                self._sweep_loans()
            raw = _raw_of(base)
            self._loans[id(raw)] = [
                weakref.ref(base), weakref.ref(raw), len(views)
            ]
            for view in views:
                self._lent[id(view)] = weakref.ref(view)

    def _sweep_loans(self) -> None:
        """Drop the entries of slices and buffers the garbage collector
        has taken. Call with ``self._lock`` held."""
        self._lent = {k: r for k, r in self._lent.items() if r() is not None}
        self._loans = {
            k: loan for k, loan in self._loans.items() if loan[1]() is not None
        }
        self._sweep_at = 2 * len(self._lent) + 64

    def _release_slice(self, arr: np.ndarray) -> np.ndarray | None:
        """Release ``arr``, a lent slice; returns the lent buffer when
        this was the last slice out. Call with ``self._lock`` held."""
        del self._lent[id(arr)]
        raw = _raw_of(arr)
        loan = self._loans.get(id(raw))
        if loan is None or loan[1]() is not raw:
            return None
        loan[2] -= 1
        if loan[2]:
            return None
        del self._loans[id(raw)]
        # The array lent, or — once its sender dropped it — the raw
        # bytes its slices kept alive.
        base = loan[0]()
        return raw if base is None else base

    def recycle(self, arr: np.ndarray) -> bool:
        """Return ``arr`` to the pool. Closes its lease if tracked;
        releases it if it is a lent slice (:meth:`lend`); takes back any
        whole view of a buffer it made, and adopts an untracked array
        that owns its memory when no idle buffer of its size is on hand.
        Partial views and foreign objects are ignored (returns False).

        With a budget set, an untracked buffer comes back only while it
        fits under the budget."""
        if not isinstance(arr, np.ndarray):
            return False
        with self._lock:
            self._reap()
            ref = self._lent.get(id(arr))
            if ref is not None and ref() is arr:
                # A lent slice's release may return its whole buffer.
                arr = self._release_slice(arr)
                if arr is None:
                    return False
            raw = _raw_of(arr)
            flags = arr.flags
            if not (
                arr.ndim == 1 and flags.c_contiguous and arr.nbytes == raw.nbytes
            ):
                return False  # a part of a buffer aliases the rest
            nbytes = arr.nbytes
            entry = self._buffers.get(id(raw))
            if entry is not None and entry() is not raw:
                entry = None
            tracked = self._tracked.pop(id(raw), None) is not None
            if entry is None:
                if arr.base is not None or self._free.get(nbytes):
                    return False  # not the pool's, and not wanted
                # Adopted: out of no count.
                entry = self._buffers[id(self._register(raw, _FORGOTTEN))]
            if entry.state == _FREE:
                return False  # already back: pooling it twice would alias
            if entry.state == _OUT:
                self._out[nbytes] -= 1
            fits = (
                tracked
                or self._budget is None
                or self._held + nbytes <= self._budget
            )
            if fits:
                entry.state = _FREE
                self._free.setdefault(nbytes, []).append(arr)
                if not tracked:
                    self._bump_held(nbytes)
            else:
                del self._buffers[id(raw)]
        if tracked:
            copy_stats().record_return()
        return fits

    # -- bookkeeping ---------------------------------------------------

    def outstanding(self) -> int:
        """Number of tracked leases not yet recycled."""
        with self._lock:
            return len(self._tracked)

    def forget_leases(self) -> int:
        """Drop all tracked leases without pooling them (crash cleanup:
        a failed rank cannot recycle its in-flight buffers). Returns the
        number forgotten."""
        with self._lock:
            n = len(self._tracked)
            for key, arr in self._tracked.items():
                self._bump_held(-arr.nbytes)
                entry = self._buffers.get(key)
                if entry is not None and entry.state == _OUT:
                    entry.state = _FORGOTTEN
                    self._out[entry.nbytes] -= 1
            self._tracked.clear()
        for _ in range(n):
            copy_stats().record_return()
        return n

    def lent(self) -> int:
        """Lent buffers (:meth:`lend`) still alive with a slice not yet
        released."""
        with self._lock:
            return sum(
                1 for loan in self._loans.values() if loan[1]() is not None
            )

    def free_buffers(self) -> int:
        """Total buffers currently sitting in freelists."""
        with self._lock:
            return sum(len(stack) for stack in self._free.values())

    def clear(self) -> int:
        """Empty the freelists and forget every tracked lease; returns
        the number of leases that were still outstanding."""
        with self._lock:
            for table in (self._free, self._spare):
                for nbytes in list(table):
                    self._drop_idle(nbytes, 0, table)
        return self.forget_leases()

    def held_bytes(self) -> int:
        """Bytes the pool currently answers for: freelists plus open
        tracked leases."""
        with self._lock:
            return self._held

    def budget_snapshot(self) -> dict:
        """Budget accounting for reports and tests."""
        with self._lock:
            return {
                "budget_bytes": self._budget,
                "held_bytes": self._held,
                **self.budget_counters.snapshot(),
            }

    def reset_budget_accounting(self) -> None:
        """Rebase the peak to the current state and zero the other
        counters (between runs sharing the global pool)."""
        with self._lock:
            counters = self.budget_counters
            for key in counters.KEYS:
                setattr(counters, key, 0)
            counters.peak_held_bytes = self._held


def _recycle_each(pool: BufferPool, arrays) -> None:
    for arr in arrays:
        pool.recycle(arr)


class LeaseScope:
    """The pool leases one piece of work (a pass body) currently holds.

    Arrays taken with :meth:`lease` or adopted with :meth:`hold` go back
    to the pool at :meth:`close` — the ``finally`` of the work — unless
    they were recycled earlier or their ownership moved on with
    :meth:`hand_off`. A body that holds a lease across a call that may
    raise (a collective, a disk write) registers it here and strands
    nothing when the call does raise.
    """

    def __init__(self, pool: BufferPool | None = None) -> None:
        self._pool = pool if pool is not None else get_pool()
        self._held: dict[int, np.ndarray] = {}

    def lease(self, dtype: np.dtype, rows: int) -> np.ndarray:
        """A tracked pool lease owned by this scope."""
        return self.hold(self._pool.lease(dtype, rows))

    def hold(self, arr: np.ndarray) -> np.ndarray:
        """Adopt ``arr`` (a lease taken elsewhere, e.g. by a reader)."""
        self._held[id(arr)] = arr
        return arr

    def recycle(self, arr: np.ndarray) -> None:
        """Return ``arr`` to the pool now; it need not be held here."""
        self._held.pop(id(arr), None)
        self._pool.recycle(arr)

    def holds(self, arr: np.ndarray) -> bool:
        """Whether ``arr`` is still one of this scope's arrays (not yet
        recycled, handed off or returned by :meth:`close`)."""
        return self._held.get(id(arr)) is arr

    def hand_off(self, *arrays: np.ndarray):
        """Stop answering for ``arrays``; returns the zero-argument
        callable that recycles them, for the new owner (a write-behind
        item) to call when it is done with them."""
        for arr in arrays:
            self._held.pop(id(arr), None)
        return partial(_recycle_each, self._pool, arrays)

    def close(self) -> None:
        """Recycle everything still held. Idempotent."""
        while self._held:
            self._pool.recycle(self._held.popitem()[1])


_GLOBAL = BufferPool()


def get_pool() -> BufferPool:
    """The process-wide buffer pool (all simulated ranks share one
    address space, so they share one pool)."""
    return _GLOBAL
