"""Data-plane copy accounting.

The paper's headline observation is that out-of-core columnsort is
I/O- and memory-bandwidth-bound — execution time tracks GB moved per
processor — so every redundant in-memory copy of a record batch is
directly visible in the wall clock. :class:`CopyStats` meters the data
plane's seams the same way :class:`~repro.disks.iostats.IoStats` meters
the disks:

* ``bytes_copied`` — bytes that were physically duplicated in memory
  (``ndarray.copy()``, ``tobytes()``, ``frombuffer(...).copy()``,
  packing scattered parts into a contiguous send buffer);
* ``bytes_zero_copy`` — bytes that crossed a seam *without* a Python
  level duplication (``readinto`` a pooled array, writing a column from
  a memoryview, handing an ``alltoallv`` receiver a view of the packed
  send buffer);
* ``pool_hits`` / ``pool_misses`` — :class:`~repro.membuf.pool.BufferPool`
  reuse vs. fresh allocation;
* ``leases`` / ``lease_returns`` / ``peak_leases`` — tracked buffer
  leases issued, returned, and the high-water mark of concurrently
  outstanding leases;
* ``arena_hits`` / ``arena_misses`` — shared-memory arena slab reuse
  vs. segment creation on the process transport
  (:mod:`repro.cluster.arena`); zero on the thread backend, which has
  no segments at all;
* ``attach_count`` — first-time receiver-side segment attaches (cache
  misses of the :class:`~repro.cluster.arena.AttachCache`);
* ``bytes_landed_zero_extra_copy`` — inbound shared-memory slices that
  landed directly in a pool-served buffer with a single transport
  ``memcpy`` and no further private copy.

The arena/attach/landing counters are *transport-operational* metrics:
they describe work the transport did (or avoided), not data-plane
bytes, so they are legitimately zero on the thread backend while the
byte meters above stay identical across backends.

One global instance (:func:`copy_stats`) serves the whole process; runs
meter themselves with the same snapshot/delta pattern the disk and comm
counters use (:class:`~repro.telemetry.Counters`).
"""

from __future__ import annotations

from repro.telemetry import Counters

#: The subset of :attr:`CopyStats.KEYS` describing the shared-memory arena
#: (transport-operational; zero on the thread backend by construction).
ARENA_KEYS = (
    "arena_hits",
    "arena_misses",
    "attach_count",
    "bytes_landed_zero_extra_copy",
)


class CopyStats(Counters):
    """Running data-plane totals for the whole process (all ranks — the
    simulated cluster shares one address space, so one meter sees every
    seam). ``peak_leases`` is a high-water mark: a process-backend merge
    keeps the maximum of the per-rank peaks (a lower bound on the
    would-be global peak)."""

    KEYS = (
        "bytes_copied",
        "bytes_zero_copy",
        "pool_hits",
        "pool_misses",
        "leases",
        "lease_returns",
        "peak_leases",
        *ARENA_KEYS,
    )
    PEAKS = ("peak_leases",)

    def record_copy(self, nbytes: int) -> None:
        with self._lock:
            self.bytes_copied += int(nbytes)

    def record_zero_copy(self, nbytes: int) -> None:
        with self._lock:
            self.bytes_zero_copy += int(nbytes)

    def record_pool(self, hit: bool) -> None:
        with self._lock:
            if hit:
                self.pool_hits += 1
            else:
                self.pool_misses += 1

    def record_lease(self, outstanding: int) -> None:
        """A tracked lease was issued; ``outstanding`` is the concurrent
        lease count including it."""
        with self._lock:
            self.leases += 1
            if outstanding > self.peak_leases:
                self.peak_leases = outstanding

    def record_return(self) -> None:
        with self._lock:
            self.lease_returns += 1

    def record_arena(self, hit: bool) -> None:
        """One ``alloc_packed`` served by the shared-memory arena:
        ``hit`` = slab reused, else a segment was created."""
        with self._lock:
            if hit:
                self.arena_hits += 1
            else:
                self.arena_misses += 1

    def record_attach(self) -> None:
        """One first-time receiver-side segment attach (mapping)."""
        with self._lock:
            self.attach_count += 1

    def record_landed(self, nbytes: int) -> None:
        """``nbytes`` of an inbound slice landed directly in a
        pool-served buffer — one transport memcpy, no extra private
        copy downstream."""
        with self._lock:
            self.bytes_landed_zero_extra_copy += int(nbytes)

    def rebase_peak(self, outstanding: int = 0) -> None:
        """Reset the high-water mark to the current outstanding count so
        a following :meth:`CopyStats.delta` reports this run's peak, not the
        process's."""
        with self._lock:
            self.peak_leases = outstanding


_GLOBAL = CopyStats()


def copy_stats() -> CopyStats:
    """The process-wide data-plane meter."""
    return _GLOBAL
