"""Persistent shared-memory arena for the process transport.

PR 6's packed ``alltoallv`` created one ``multiprocessing.shared_memory``
segment per collective and unlinked it once every slice was
acknowledged. That is correct but expensive: every collective pays a
``shm_open``/``ftruncate``/``mmap`` on the send side and an
``shm_open``/``mmap``/``munmap`` per receiving rank — kernel round
trips on the hottest path the transport has. The paper's discipline
(and Vitter's PDM framing) is that out-of-core sorts are won by not
moving or re-mapping the same bytes twice; this module applies it to
the transport:

* :class:`ShmArena` — the *creator-side* pool: size-classed slabs
  (power-of-two, ≥ 4 KiB) created once and recycled across collectives.
  A slab returns to its free list when every slice cut from it has been
  acknowledged, so at steady state ``alloc_packed`` is a freelist pop —
  zero segment creates, zero unlinks. Slabs are unlinked only at rank
  teardown (or by the parent sweep if the rank dies first).
* :class:`AttachCache` — the *receiver-side* mirror: each
  ``(creator, segment)`` mapping is attached once and cached for the
  run lifetime, so landing a slice is a single ``memcpy`` out of an
  already-mapped page range instead of attach/copy/detach.

Both sides meter into :class:`~repro.membuf.CopyStats`:
``arena_hits`` / ``arena_misses`` (slab reuse vs. creation) and
``attach_count`` (first-time receiver mappings);
``tests/test_shm_arena.py`` holds the arena to a ≥ 90 % hit rate with
zero steady-state creates.

Ownership rule (unchanged from PR 6): a slab belongs to the rank that
created it. Receivers never unlink; the creator recycles on full
acknowledgement and unlinks at teardown; the parent unlinks whatever a
dying rank left behind (reported names, or a ``/dev/shm`` scan keyed by
the dead child's pid).
"""

from __future__ import annotations

import os
from bisect import bisect_right, insort
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from repro.membuf import copy_stats

#: Prefix of every shared-memory segment the process transport creates;
#: the test-suite leak guard scans ``/dev/shm`` for it, and the parent's
#: crash sweep matches ``<prefix>-<pid>-*`` for children that died
#: without reporting their slab names.
SHM_PREFIX = "repro-shm"

#: Smallest slab the arena hands out. Collectives smaller than a page
#: are not worth distinguishing by size.
MIN_SLAB_BYTES = 4096


def slab_class(nbytes: int) -> int:
    """The size class serving a request: next power of two ≥ 4 KiB.

    Power-of-two rounding keeps the number of distinct classes one run
    touches small (a pass's collectives vary in exact byte count but
    rarely in magnitude), which is what makes the freelists hit."""
    cls = MIN_SLAB_BYTES
    while cls < nbytes:
        cls <<= 1
    return cls


def untrack(shm: shared_memory.SharedMemory) -> None:
    """Opt a segment out of the resource tracker's cleanup.

    The transport manages segment lifetime explicitly (ack-counted
    recycle, rank teardown, parent sweep). CPython < 3.13 registers a
    segment with the tracker on *attach* as well as create (bpo-39959),
    so every mapping — creator or receiver — must be unregistered, or
    the first rank to exit would unlink segments its siblings still
    map and the tracker would print spurious leak warnings."""
    try:
        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:
        pass


def unlink_quiet(shm: shared_memory.SharedMemory) -> None:
    """Unlink a segment without notifying the resource tracker.

    ``SharedMemory.unlink`` always sends the tracker an UNREGISTER, but
    every mapping here is already untracked (see :func:`untrack`), so
    that message would make the tracker log a spurious ``KeyError``.
    Missing segments (already unlinked by another path) are ignored."""
    try:
        shared_memory._posixshmem.shm_unlink(shm._name)
    except FileNotFoundError:
        pass
    except AttributeError:  # non-POSIX fallback
        try:
            shm.unlink()
        except FileNotFoundError:
            pass


def unlink_by_name(name: str) -> None:
    """Unlink a segment by bare name without ever mapping it — the
    parent's crash-sweep path (attaching just to unlink would fault the
    pages back in)."""
    try:
        shared_memory._posixshmem.shm_unlink("/" + name)
    except (FileNotFoundError, AttributeError):
        pass


class _Slab:
    """One arena segment: the mapping, its address range (for outbound
    view detection), how many remote slices are still unacknowledged,
    and whether it sits on its class's free list."""

    __slots__ = ("name", "shm", "base", "nbytes", "pending", "free")

    def __init__(self, name, shm, base, nbytes):
        self.name = name
        self.shm = shm
        self.base = base
        self.nbytes = nbytes
        self.pending = 0
        self.free = False


class ShmArena:
    """Creator-side pool of size-classed shared-memory slabs.

    Single-threaded by design: an arena belongs to exactly one rank
    (one process), and every call happens on that rank's program
    thread — acknowledgements from other ranks arrive over the fabric's
    ack queue and are applied here by the owner via :meth:`ack`.
    """

    def __init__(self) -> None:
        self._slabs: dict[str, _Slab] = {}
        self._free: dict[int, list[_Slab]] = {}
        # Base-address index for O(log n) outbound view lookup: a
        # sorted list of slab base addresses plus a dict to the slabs.
        self._bases: list[int] = []
        self._by_base: dict[int, _Slab] = {}
        self._seq = 0

    # -- acquisition ---------------------------------------------------

    def lease(self, nbytes: int) -> _Slab:
        """A slab with capacity ≥ ``nbytes``, exclusively the caller's
        until every slice cut from it has been acknowledged.

        Served from the size class's free list when it can be — an
        ``arena_hit`` — and otherwise a newly created slab (a miss)
        that will be recycled, not unlinked, on full ack."""
        cls = slab_class(nbytes)
        stack = self._free.get(cls)
        if stack:
            slab = stack.pop()
            slab.free = False
            slab.pending = 0
            copy_stats().record_arena(hit=True)
            return slab
        name = f"{SHM_PREFIX}-{os.getpid()}-{self._seq}"
        self._seq += 1
        shm = shared_memory.SharedMemory(create=True, size=cls, name=name)
        untrack(shm)
        base = np.frombuffer(shm.buf, dtype=np.uint8).__array_interface__[
            "data"
        ][0]
        slab = _Slab(name, shm, base, cls)
        self._slabs[name] = slab
        insort(self._bases, base)
        self._by_base[base] = slab
        copy_stats().record_arena(hit=False)
        return slab

    # -- outbound view lookup ------------------------------------------

    def locate(self, addr: int, nbytes: int) -> _Slab | None:
        """The slab whose address range contains ``[addr, addr+nbytes)``
        — O(log n) in the number of live slabs via the base index."""
        i = bisect_right(self._bases, addr) - 1
        if i < 0:
            return None
        slab = self._by_base[self._bases[i]]
        if addr + nbytes <= slab.base + slab.nbytes:
            return slab
        return None

    def owned(self, name: str) -> _Slab | None:
        """The live (leased, not yet recycled) slab named ``name`` if
        this arena created it — the receiver's self-send fast path."""
        slab = self._slabs.get(name)
        if slab is not None and not slab.free:
            return slab
        return None

    # -- acknowledgement / recycling -----------------------------------

    def pin(self, name: str) -> None:
        """One outbound slice descriptor now references ``name``: the
        slab stays leased until a matching :meth:`ack` arrives."""
        self._slabs[name].pending += 1

    def ack(self, name: str) -> None:
        """One slice of ``name`` has been landed by its receiver. On
        the last ack the slab returns to its free list."""
        slab = self._slabs.get(name)
        if slab is None or slab.free:
            return
        slab.pending -= 1
        if slab.pending <= 0:
            slab.free = True
            self._free.setdefault(slab.nbytes, []).append(slab)

    def _retire(self, slab: _Slab) -> None:
        """Close and unlink one slab, dropping it from every index."""
        del self._slabs[slab.name]
        self._bases.remove(slab.base)
        del self._by_base[slab.base]
        try:
            slab.shm.close()
        except BufferError:
            pass  # a stale view pins the mapping; the unlink still frees the name
        unlink_quiet(slab.shm)

    # -- lifecycle -----------------------------------------------------

    def all_acked(self) -> bool:
        """Whether every outstanding slice has been acknowledged."""
        return all(
            slab.free or slab.pending <= 0 for slab in self._slabs.values()
        )

    def slab_count(self) -> int:
        return len(self._slabs)

    def names(self) -> list[str]:
        return list(self._slabs)

    def unlink_all(self) -> list[str]:
        """Teardown: close and unlink every slab regardless of pending
        counts (callers wait out a grace period first). Returns the
        names that could not be unlinked — the parent sweeps those."""
        failures: list[str] = []
        for slab in list(self._slabs.values()):
            try:
                self._retire(slab)
            except Exception:
                failures.append(slab.name)
        self._free.clear()
        return failures


class AttachCache:
    """Receiver-side cache of segment mappings, attached once per
    ``(creator, segment)`` and held for the run lifetime.

    Safe because arena slab names are unique per creation
    (``repro-shm-<pid>-<seq>``) and a recycled slab keeps its name and
    size — the cached mapping stays valid across reuse; only the slice
    descriptors (offset, count) change. Every cache miss is metered as
    an ``attach_count``."""

    def __init__(self) -> None:
        self._maps: dict[str, shared_memory.SharedMemory] = {}

    def get(self, name: str) -> shared_memory.SharedMemory:
        shm = self._maps.get(name)
        if shm is None:
            shm = shared_memory.SharedMemory(name=name)
            untrack(shm)
            self._maps[name] = shm
            copy_stats().record_attach()
        return shm

    def close_all(self) -> None:
        for shm in self._maps.values():
            try:
                shm.close()
            except BufferError:
                pass
        self._maps.clear()
