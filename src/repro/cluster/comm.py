"""MPI-like communicator for the in-process SPMD engine.

The interface follows mpi4py's lowercase (object) methods: ``send`` /
``recv`` / ``bcast`` / ``allgather`` / ``alltoall`` / ``allreduce`` —
plus ``alltoallv`` taking one array per destination (the shape every
columnsort communicate stage uses).

Semantics intentionally modeled on MPI:

* **copy-on-send** — NumPy arrays are copied as they enter the fabric,
  so a sender mutating its buffer after ``send`` cannot corrupt the
  message (there is no shared memory between "nodes");
* **non-overtaking order** per (source, dest, tag);
* collectives must be called by every rank in the same order; a
  mismatch raises :class:`~repro.errors.CommError` (detected via the
  operation name traveling with each internal message) rather than
  deadlocking.

Every send is metered by :class:`~repro.cluster.stats.CommStats`,
self-messages and network messages separately (paper §3 reasons about
exactly this split).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.cluster.mailbox import MailboxRouter
from repro.cluster.stats import CommStats
from repro.errors import CommError
from repro.membuf import copy_stats, get_pool
from repro.records.format import RecordFormat


def _isolate(payload: object, fabric_isolates: bool = False) -> object:
    """Copy array payloads entering the fabric (no shared memory between
    simulated nodes). Non-array payloads are control-plane metadata and
    are passed through; senders must not mutate them after sending.

    The copy of a 1-D array lands in an *untracked* pool buffer
    (``grab`` — ownership transfers to the receiver, which may keep it
    indefinitely); the bytes duplicated are metered either way.

    ``fabric_isolates=True`` (a router advertising ``isolating_fabric``,
    e.g. the process backend's eager-pickling queues) means the fabric
    itself captures the payload bytes inside ``put`` — a second copy
    here would be pure overhead, so only the *meter* fires: the copy
    semantically happens (MPI copy-on-send holds, and the byte meters
    stay identical across backends), the fabric just provides it.
    """
    if isinstance(payload, np.ndarray):
        copy_stats().record_copy(payload.nbytes)
        if fabric_isolates:
            return payload
        if payload.ndim == 1 and payload.size:
            buf = get_pool().grab(payload.dtype, payload.shape[0])
            np.copyto(RecordFormat.items(buf), RecordFormat.items(payload))
            return buf
        return payload.copy()
    if isinstance(payload, (list, tuple)):
        return type(payload)(_isolate(x, fabric_isolates) for x in payload)
    return payload


class Comm:
    """One rank's endpoint of the SPMD world, or of a group split from
    it (:meth:`split`).

    Every message goes through one routing path: ``members`` maps the
    communicator's ranks to the fabric's (the identity for the world),
    and a split's member list namespaces its tags, so its traffic never
    collides with its parent's or a sibling's. Sends are metered by
    fabric rank.
    """

    def __init__(
        self,
        rank: int,
        size: int,
        router: MailboxRouter,
        stats: CommStats | None = None,
        members: tuple[int, ...] | None = None,
    ) -> None:
        self._rank = rank
        self._size = size
        self._router = router
        self._members = members if members is not None else tuple(range(size))
        self._group = members  # the tag namespace: None for the world
        self._me = self._members[rank]
        self.stats = stats if stats is not None else CommStats(rank=rank)
        self._epoch = 0
        # True when the router captures payload bytes inside put()
        # (process backend's eager pickle); _isolate then only meters.
        self._fabric_isolates = getattr(router, "isolating_fabric", False)

    @property
    def rank(self) -> int:
        """This rank's index, ``0 .. size-1``."""
        return self._rank

    @property
    def size(self) -> int:
        """Number of ranks in the world (the cluster's ``P``)."""
        return self._size

    @property
    def shared_fabric(self) -> bool:
        """Whether every rank shares one address space (thread backend).

        On a shared fabric, process-global meters (disk ``IoStats``,
        the buffer pool) already see every rank's work, so rank 0 may
        read them directly. On a non-shared fabric (process backend)
        each rank sees only its own counters and must gather —
        :class:`~repro.oocs.base.PassMarker` switches on exactly this.
        """
        return getattr(self._router, "shared_fabric", True)

    # ------------------------------------------------------------------
    # Point-to-point
    # ------------------------------------------------------------------

    def send(self, payload: object, dest: int, tag: int = 0) -> None:
        """Send ``payload`` to ``dest``. Never blocks (buffered)."""
        self._check_rank(dest)
        to = self._members[dest]
        self.stats.record_send(to, payload, "send")
        self._router.put(
            self._me, to, ("p2p", self._group, tag),
            _isolate(payload, self._fabric_isolates),
        )

    def recv(self, source: int, tag: int = 0) -> object:
        """Receive the next message from ``source`` on ``tag``."""
        self._check_rank(source)
        return self._router.get(
            self._members[source], self._me, ("p2p", self._group, tag)
        )

    def sendrecv(
        self, payload: object, dest: int, source: int | None = None, tag: int = 0
    ) -> object:
        """Combined send+receive (safe against exchange deadlock)."""
        if source is None:
            source = dest
        self.send(payload, dest, tag)
        return self.recv(source, tag)

    # ------------------------------------------------------------------
    # Collectives
    # ------------------------------------------------------------------

    def _coll_tag(self) -> tuple:
        tag = ("coll", self._group, self._epoch)
        self._epoch += 1
        return tag

    def _coll_put(
        self, dest: int, tag: tuple, op: str, payload, metered: bool = True
    ) -> None:
        """Deliver ``(op, payload)`` to ``dest`` as it is: the caller has
        isolated the payload (:meth:`_coll_send`) or sends a disjoint
        view of a fresh packed buffer. ``metered=False`` delivers
        without counting a message (empty alltoallv slots, out-of-band
        bookkeeping)."""
        to = self._members[dest]
        if metered:
            self.stats.record_send(to, payload, op)
        self._router.put(self._me, to, tag, (op, payload))

    def _coll_send(self, dest: int, tag: tuple, op: str, payload: object) -> None:
        self._coll_put(dest, tag, op, _isolate(payload, self._fabric_isolates))

    def _coll_recv(self, source: int, tag: tuple, op: str) -> object:
        got_op, payload = self._router.get(self._members[source], self._me, tag)
        if got_op != op:
            raise CommError(
                f"collective mismatch on rank {self._rank}: expected {op!r} "
                f"from rank {source}, found {got_op!r} — ranks are calling "
                f"collectives in different orders"
            )
        return payload

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self._size:
            raise CommError(f"rank {rank} out of range for size {self._size}")

    def barrier(self) -> None:
        """Block until every rank has entered the barrier."""
        tag = self._coll_tag()
        for dest in range(self._size):
            self._coll_send(dest, tag, "barrier", None)
        for source in range(self._size):
            self._coll_recv(source, tag, "barrier")

    def bcast(self, payload: object, root: int = 0) -> object:
        """Broadcast ``payload`` from ``root``; every rank returns it."""
        self._check_rank(root)
        tag = self._coll_tag()
        if self._rank == root:
            for dest in range(self._size):
                self._coll_send(dest, tag, "bcast", payload)
        return self._coll_recv(root, tag, "bcast")

    def allgather(self, payload: object) -> list:
        """Gather one payload per rank at every rank."""
        tag = self._coll_tag()
        for dest in range(self._size):
            self._coll_send(dest, tag, "allgather", payload)
        return [
            self._coll_recv(source, tag, "allgather") for source in range(self._size)
        ]

    def gather_oob(self, payload: object, root: int = 0) -> list | None:
        """Out-of-band gather: one payload per rank at ``root`` (others
        get None), *unmetered*.

        For accounting metadata that must cross ranks without becoming
        part of the communication accounting itself (e.g. the per-rank
        disk-I/O deltas :class:`~repro.oocs.base.PassMarker` combines on
        a non-shared fabric). The paper counts messages carrying
        records; a counter snapshot is bookkeeping, so metering it would
        make ``CommStats`` differ between backends that need the gather
        and backends that do not.
        """
        self._check_rank(root)
        tag = self._coll_tag()
        self._coll_put(root, tag, "gather_oob", payload, metered=False)
        if self._rank != root:
            return None
        return [
            self._coll_recv(source, tag, "gather_oob")
            for source in range(self._size)
        ]

    def barrier_oob(self) -> None:
        """Out-of-band barrier: like :meth:`barrier` but *unmetered*
        (see :meth:`gather_oob`). For synchronizing accounting
        snapshots without the synchronization itself showing up in the
        communication accounting."""
        tag = self._coll_tag()
        for dest in range(self._size):
            self._coll_put(dest, tag, "barrier_oob", None, metered=False)
        for source in range(self._size):
            self._coll_recv(source, tag, "barrier_oob")

    def alltoall(self, payloads: Sequence[object]) -> list:
        """Each rank provides one payload per destination; returns the
        payloads addressed to this rank, indexed by source."""
        if len(payloads) != self._size:
            raise CommError(
                f"alltoall needs exactly {self._size} payloads, got {len(payloads)}"
            )
        tag = self._coll_tag()
        for dest in range(self._size):
            self._coll_send(dest, tag, "alltoall", payloads[dest])
        return [
            self._coll_recv(source, tag, "alltoall") for source in range(self._size)
        ]

    def alltoallv(self, arrays: Sequence[np.ndarray]) -> list[np.ndarray]:
        """All-to-all of variable-length record arrays — the shape of
        every columnsort communicate stage.

        Empty arrays are still delivered (the receive side stays uniform)
        but are not metered: the paper counts *messages carrying records*
        (§3 properties 1-3), so the stats must match that accounting.

        Fast path (1-D arrays sharing one dtype; anything else is sent
        per destination): all outgoing parts are packed once into a
        single contiguous buffer and each destination receives a
        disjoint *view* of it — one copy total instead of one
        ``_isolate`` copy per destination. The sender never touches the
        packed buffer again, so MPI mutation semantics hold: receivers
        can write into their slice without affecting anyone else's.

        Ownership: a receiver owns what it receives until it releases it
        with :meth:`~repro.membuf.BufferPool.recycle` (directly, or
        through a :class:`~repro.membuf.LeaseScope`). On the thread
        fabric the packed buffer goes back to the buffer pool once every
        receiver has released its view; on the process fabric a
        receiver gets a landed pool buffer, and the shared-memory slab
        it came from is recycled by the landing's acknowledgement. A
        receiver that keeps its slice and never releases it keeps the
        bytes as long as it likes: the buffer then falls to the garbage
        collector instead of being reused.
        """
        if len(arrays) != self._size:
            raise CommError(
                f"alltoallv needs exactly {self._size} arrays, got {len(arrays)}"
            )
        tag = self._coll_tag()
        packable = all(
            isinstance(a, np.ndarray)
            and a.ndim == 1
            and a.dtype == arrays[0].dtype
            for a in arrays
        )
        if packable:
            self._alltoallv_packed(arrays, tag)
        else:
            for dest in range(self._size):
                arr = arrays[dest]
                if len(arr) == 0:
                    self._coll_put(dest, tag, "alltoallv", arr.copy(), metered=False)
                    continue
                self._coll_send(dest, tag, "alltoallv", arr)
        return [
            self._coll_recv(source, tag, "alltoallv") for source in range(self._size)
        ]

    def _alltoallv_packed(self, arrays: Sequence[np.ndarray], tag: tuple) -> None:
        """Send side of the contiguous alltoallv fast path: one packed
        buffer, one offset per destination, views out.

        The buffer comes from the router (``alloc_packed``) so each
        transport can choose its backing store: a buffer-pool array on
        the thread fabric, a ``multiprocessing.shared_memory`` slab on
        the process fabric. Allocation is unmetered on every backend, so
        the copy accounting below is byte-identical either way. Every
        view is lent (``lend_packed``) before the first one leaves, so a
        receiver's release always finds its view registered.

        Each part is booked on its own: its copy, its copy-meter
        updates, its ``record_send`` and its router ``put``. Booking the
        collective once measured inside the noise of a warm in-core sort
        (DESIGN.md §11).
        """
        total = sum(len(a) for a in arrays)
        packed = None
        if total:
            packed = self._router.alloc_packed(arrays[0].dtype, total)
        parts = []
        offset = 0
        for arr in arrays:
            n = len(arr)
            if n == 0:
                parts.append(None)
                continue
            part = packed[offset : offset + n]
            np.copyto(RecordFormat.items(part), RecordFormat.items(arr))
            offset += n
            copy_stats().record_copy(part.nbytes)
            copy_stats().record_zero_copy(part.nbytes)
            parts.append(part)
        if packed is not None:
            self._router.lend_packed(packed, [p for p in parts if p is not None])
        for dest, part in enumerate(parts):
            if part is None:
                self._coll_put(
                    dest, tag, "alltoallv", arrays[dest].copy(), metered=False
                )
            else:
                self._coll_put(dest, tag, "alltoallv", part)

    def allreduce(self, value, op: Callable = None):
        """Combine one value per rank with ``op`` (default: sum) and
        return the result on every rank."""
        parts = self.allgather(value)
        if op is None:
            total = parts[0]
            for part in parts[1:]:
                total = total + part
            return total
        result = parts[0]
        for part in parts[1:]:
            result = op(result, part)
        return result

    def exscan(self, value):
        """Exclusive prefix sum across ranks (rank 0 gets 0) — used by
        the distributed radix sort to place buckets."""
        parts = self.allgather(value)
        total = 0
        for source in range(self._rank):
            total = total + parts[source]
        return total

    # ------------------------------------------------------------------
    # Sub-communicators
    # ------------------------------------------------------------------

    def split(self, color: int, key: int | None = None) -> "Comm":
        """MPI_Comm_split: ranks with equal ``color`` form a
        sub-communicator, ordered by ``key`` (default: world rank).

        The sub-communicator shares the world's message fabric but uses
        namespaced tags, so point-to-point and collective traffic on the
        child never collides with the parent's. Used by the adjustable
        height interpretation (g-columnsort), whose sort stages are
        distributed sorts *within* processor groups.
        """
        if key is None:
            key = self._rank
        membership = self.allgather((color, key, self._me))
        members = sorted((k, me) for (c, k, me) in membership if c == color)
        return _SubComm(self, [me for _, me in members])


class _SubComm(Comm):
    """A communicator over a subset of the world's ranks: the parent's
    fabric and :class:`CommStats` (communication is communication), with
    the member list, in fabric ranks, as its rank map and tag namespace
    (so nested splits can never collide)."""

    def __init__(self, parent: Comm, members: list[int]) -> None:
        if parent._me not in members:
            raise CommError(
                f"rank {parent._me} is not a member of the split group {members}"
            )
        super().__init__(
            rank=members.index(parent._me),
            size=len(members),
            router=parent._router,
            stats=parent.stats,
            members=tuple(members),
        )
