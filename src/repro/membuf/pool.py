"""Reusable record-buffer pool.

Every pass of every out-of-core algorithm allocates the same handful of
array shapes over and over: one column (``buffer_records`` rows) per
read, one packed send buffer per ``alltoallv``, one staging array per
write. :class:`BufferPool` keeps freelists of those arrays keyed by
``(dtype, rows)`` so steady-state passes stop churning the allocator
and reads can land via ``readinto`` in place of ``bytes`` round-trips.

Two acquisition modes:

* :meth:`BufferPool.lease` — *tracked*: the pool holds a strong
  reference until :meth:`BufferPool.recycle` returns the array.
  Used by pass bodies whose buffer lifetime ends inside the pass
  (read → sort → send/write → recycle); :meth:`outstanding` exposes
  the balance so the test suite can assert nothing is held past a
  pass's end.
* :meth:`BufferPool.grab` — *untracked*: ownership transfers to the
  caller (e.g. ``Comm._isolate`` handing an array to a receiver that
  may keep it indefinitely). Untracked arrays re-enter the pool only
  if someone explicitly recycles them; otherwise the garbage collector
  reclaims them as before.

:meth:`recycle` adopts any 1-D, C-contiguous, exclusively-owned array
of a pooled dtype — recycling any other *view* is a no-op, because
handing out a buffer that aliases live data would corrupt records in
flight. The one exception is a view the pool *lent* (:meth:`lend`):
the slices of a packed alltoallv buffer, one per receiver. Recycling
such a slice releases it, and the buffer itself returns to its freelist
once every slice has been released — the rule the process fabric's
shared-memory arena follows for its slabs. A slice that is never
released falls to the garbage collector with its buffer, which is then
never reused under a reader.

A freelist keeps as many arrays of its key as were ever out of the pool
at once (at least :data:`MAX_FREE_PER_KEY`), so a pass whose rounds
each need the same buffers takes them all from the pool after its first
round, whatever its pipeline depth and rank count.

Byte budget (:meth:`set_budget`): the pool tracks its *held bytes* —
freelist arrays plus open tracked leases — and, with a budget set, a
:meth:`lease` that would allocate past it first evicts idle freelist
arrays, then blocks (budget backpressure) until other leases are
recycled, and finally raises :class:`~repro.errors.BudgetExceeded` if
the bytes never materialize. Backpressure stalls are counted and
consumed by the run governor's adaptive pipeline-depth downshift
(:meth:`consume_pressure`). :meth:`grab` is exempt: its arrays leave
the pool's ownership at the call, so charging them would double-count
the consumer's own accounting.
"""

from __future__ import annotations

import threading
import time
import weakref
from functools import partial

import numpy as np

from repro.errors import BudgetExceeded
from repro.membuf.copystats import copy_stats
from repro.telemetry import Counters

#: Least freelist depth per (dtype, rows) key. A key keeps more when
#: more of its arrays were out of the pool at once (see
#: :meth:`BufferPool.recycle`); arrays the pool never handed out are
#: adopted only up to this depth.
MAX_FREE_PER_KEY = 8

#: Seconds between wakeups of a budget-blocked lease (matches the
#: pipeline pools' poll interval, so cancellation latency is uniform).
_BUDGET_POLL = 0.05


class BudgetCounters(Counters):
    """A pool's budget accounting since its last
    :meth:`BufferPool.reset_budget_accounting`: the high-water mark of
    held bytes, backpressure stalls and evicted freelist arrays."""

    KEYS = ("peak_held_bytes", "budget_stalls", "budget_evictions")
    PEAKS = ("peak_held_bytes",)


class BufferPool:
    """Thread-safe freelist of dtyped record arrays keyed by
    ``(dtype, rows)``, with an optional hard byte budget."""

    def __init__(
        self,
        max_free_per_key: int = MAX_FREE_PER_KEY,
        budget_bytes: int | None = None,
        budget_timeout_s: float = 30.0,
    ) -> None:
        self._max_free = int(max_free_per_key)
        self._free: dict[tuple[np.dtype, int], list[np.ndarray]] = {}
        # Strong references to tracked leases, keyed by id(). The strong
        # reference is what makes id() safe as a key: the array cannot
        # be collected (and its id reused) while the lease is open.
        self._tracked: dict[int, np.ndarray] = {}
        # Arrays of each key out of the pool now, and the most at once.
        self._out: dict[tuple[np.dtype, int], int] = {}
        self._most_out: dict[tuple[np.dtype, int], int] = {}
        # Lent slices, by id(): a weak reference to the slice (checked
        # on release, so a reused id cannot pass for it). Lent buffers,
        # by id(): a weak reference and the number of slices still out.
        self._lent: dict[int, weakref.ref] = {}
        self._loans: dict[int, list] = {}
        self._sweep_at = 64
        self._cv = threading.Condition()
        self._budget = budget_bytes
        self._budget_timeout = budget_timeout_s
        self._held = 0
        self.budget_counters = BudgetCounters(lock=self._cv)
        self._pressure_mark = 0

    # -- budget ---------------------------------------------------------

    def set_budget(
        self, budget_bytes: int | None, timeout_s: float | None = None
    ) -> None:
        """Install (or with None, remove) the hard byte budget."""
        with self._cv:
            self._budget = budget_bytes
            if timeout_s is not None:
                self._budget_timeout = timeout_s
            self._cv.notify_all()

    def _bump_held(self, delta: int) -> None:
        """Adjust held bytes (call with ``self._cv`` held)."""
        self._held += delta
        if self._held > self.budget_counters.peak_held_bytes:
            self.budget_counters.peak_held_bytes = self._held
        if delta < 0 and self._budget is not None:
            self._cv.notify_all()  # only a budgeted lease waits

    def _evict_until(self, target: int) -> None:
        """Drop idle freelist arrays until held bytes <= ``target`` (or
        the freelists are empty). Call with ``self._cv`` held."""
        for key in list(self._free):
            stack = self._free[key]
            while stack and self._held > target:
                arr = stack.pop()
                self._bump_held(-arr.nbytes)
                self.budget_counters.budget_evictions += 1
            if not stack:
                del self._free[key]
            if self._held <= target:
                return

    def _wait_for_budget(self, need: int) -> None:
        """Block until ``need`` fresh bytes fit under the budget. Call
        with ``self._cv`` held; raises :class:`BudgetExceeded` when the
        request can never fit or backpressure outlasts the timeout."""
        budget = self._budget
        if self._held + need <= budget:
            return
        if need > budget:
            raise BudgetExceeded(
                need, budget, self._held,
                "the request is larger than the whole budget",
            )
        self._evict_until(budget - need)
        if self._held + need <= budget:
            return
        self.budget_counters.budget_stalls += 1
        deadline = time.monotonic() + self._budget_timeout
        while self._held + need > self._budget:
            left = deadline - time.monotonic()
            if left <= 0:
                raise BudgetExceeded(
                    need, self._budget, self._held,
                    f"backpressure blocked for {self._budget_timeout:.1f}s "
                    "without enough leases being recycled",
                )
            self._cv.wait(min(left, _BUDGET_POLL))
            if self._budget is None:
                return
            self._evict_until(self._budget - need)

    # -- acquisition ---------------------------------------------------

    def _take(
        self, dtype: np.dtype, rows: int, track: bool, meter: bool = True
    ) -> np.ndarray:
        dtype = np.dtype(dtype)
        rows = int(rows)
        key = (dtype, rows)
        need = dtype.itemsize * rows
        with self._cv:
            out = self._out[key] = self._out.get(key, 0) + 1
            if out > self._most_out.get(key, 0):
                self._most_out[key] = out
            stack = self._free.get(key)
            if stack:
                arr = stack.pop()
                if track:
                    self._tracked[id(arr)] = arr
                else:
                    # Ownership leaves the pool with the array.
                    self._bump_held(-arr.nbytes)
                if meter:
                    copy_stats().record_pool(hit=True)
                return arr
            if track:
                if self._budget is not None:
                    self._wait_for_budget(need)
                self._bump_held(need)
        if meter:
            copy_stats().record_pool(hit=False)
        arr = np.empty(rows, dtype=dtype)
        if track:
            with self._cv:
                self._tracked[id(arr)] = arr
        return arr

    def lease(self, dtype: np.dtype, rows: int) -> np.ndarray:
        """Acquire a tracked ``rows``-long array of ``dtype``; pair with
        :meth:`recycle`. With a budget set, a lease that needs a fresh
        allocation blocks while the pool is at its byte ceiling."""
        arr = self._take(dtype, rows, track=True)
        with self._cv:
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
        with self._cv:
            if len(self._lent) >= self._sweep_at:
                self._sweep_loans()
            self._loans[id(base)] = [weakref.ref(base), len(views)]
            for view in views:
                self._lent[id(view)] = weakref.ref(view)

    def _sweep_loans(self) -> None:
        """Drop the entries of slices and buffers the garbage collector
        has taken. Call with ``self._cv`` held."""
        self._lent = {k: r for k, r in self._lent.items() if r() is not None}
        self._loans = {
            k: loan for k, loan in self._loans.items() if loan[0]() is not None
        }
        self._sweep_at = 2 * len(self._lent) + 64

    def _release_slice(self, arr: np.ndarray) -> np.ndarray | None:
        """Release ``arr`` if it is a lent slice; returns its buffer when
        this was the last slice out. Call with ``self._cv`` held."""
        ref = self._lent.get(id(arr))
        if ref is None or ref() is not arr:
            return None
        del self._lent[id(arr)]
        base = arr.base
        loan = self._loans.get(id(base))
        if loan is None or loan[0]() is not base:
            return None
        loan[1] -= 1
        if loan[1]:
            return None
        del self._loans[id(base)]
        return base

    def _returned(self, key: tuple[np.dtype, int]) -> None:
        """One array of ``key`` is back. Call with ``self._cv`` held."""
        out = self._out.get(key, 0)
        if out > 0:
            self._out[key] = out - 1

    def recycle(self, arr: np.ndarray) -> bool:
        """Return ``arr`` to the pool. Closes its lease if tracked;
        releases it if it is a lent slice (:meth:`lend`); adopts
        untracked arrays that exclusively own their memory. Other views
        and foreign objects are ignored (returns False).

        A key's freelist takes an array while it holds fewer than the
        most arrays of that key ever out of the pool at once (and at
        least ``max_free_per_key``), and, with a budget set, an
        untracked array only while it fits under the budget."""
        if not isinstance(arr, np.ndarray):
            return False
        with self._cv:
            if arr.base is not None:
                # A lent slice's release may return its whole buffer; any
                # other view's memory belongs to someone else, and
                # pooling it would alias live records.
                base = self._release_slice(arr)
                arr = arr if base is None else base
            tracked = self._tracked.pop(id(arr), None) is not None
            flags = arr.flags
            poolable = arr.ndim == 1 and flags.c_contiguous and flags.owndata
            if poolable:
                key = (arr.dtype, arr.shape[0])
                self._returned(key)
                stack = self._free.setdefault(key, [])
                depth = max(self._max_free, self._most_out.get(key, 0))
                fits = len(stack) < depth and (
                    tracked
                    or self._budget is None
                    or self._held + arr.nbytes <= self._budget
                )
                if fits:
                    stack.append(arr)
                    if not tracked:
                        self._bump_held(arr.nbytes)
                    elif self._budget is not None:
                        self._cv.notify_all()  # lease closed: bytes moved
                else:
                    poolable = False
                    if tracked:
                        self._bump_held(-arr.nbytes)
            elif tracked:
                self._bump_held(-arr.nbytes)
                self._returned((arr.dtype, arr.shape[0]))
        if tracked:
            copy_stats().record_return()
        return poolable

    # -- bookkeeping ---------------------------------------------------

    def outstanding(self) -> int:
        """Number of tracked leases not yet recycled."""
        with self._cv:
            return len(self._tracked)

    def forget_leases(self) -> int:
        """Drop all tracked leases without pooling them (crash cleanup:
        a failed rank cannot recycle its in-flight buffers). Returns the
        number forgotten."""
        with self._cv:
            n = len(self._tracked)
            for arr in self._tracked.values():
                self._bump_held(-arr.nbytes)
                self._returned((arr.dtype, arr.shape[0]))
            self._tracked.clear()
            self._cv.notify_all()
        for _ in range(n):
            copy_stats().record_return()
        return n

    def lent(self) -> int:
        """Lent buffers (:meth:`lend`) still alive with a slice not yet
        released."""
        with self._cv:
            return sum(
                1 for loan in self._loans.values() if loan[0]() is not None
            )

    def free_buffers(self) -> int:
        """Total arrays currently sitting in freelists."""
        with self._cv:
            return sum(len(stack) for stack in self._free.values())

    def clear(self) -> int:
        """Empty the freelists and forget every tracked lease; returns
        the number of leases that were still outstanding."""
        with self._cv:
            for stack in self._free.values():
                for arr in stack:
                    self._bump_held(-arr.nbytes)
            self._free.clear()
            self._most_out.clear()
        return self.forget_leases()

    def held_bytes(self) -> int:
        """Bytes the pool currently answers for: freelists plus open
        tracked leases."""
        with self._cv:
            return self._held

    def consume_pressure(self) -> int:
        """Backpressure stalls since the previous call (the run
        governor's downshift signal)."""
        with self._cv:
            stalls = self.budget_counters.budget_stalls
            since = stalls - self._pressure_mark
            self._pressure_mark = stalls
            return since

    def budget_snapshot(self) -> dict:
        """Budget accounting for reports and tests."""
        with self._cv:
            return {
                "budget_bytes": self._budget,
                "held_bytes": self._held,
                **self.budget_counters.snapshot(),
            }

    def reset_budget_accounting(self) -> None:
        """Rebase the peak/stall counters to the current state (between
        runs sharing the global pool)."""
        with self._cv:
            counters = self.budget_counters
            counters.peak_held_bytes = self._held
            counters.budget_stalls = counters.budget_evictions = 0
            self._pressure_mark = 0


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
