"""Distributed in-core columnsort on an ``(M/P) × P`` matrix.

This is the sort stage of M-columnsort (paper §4): the records of one
out-of-core column (``M`` of them) form an in-core matrix of ``P``
columns, one per processor, each of height ``r' = M/P``. The eight
columnsort steps map onto the cluster as:

* steps 1, 3, 5, 7 — local sorts (one thread in the paper);
* steps 2, 4 — all-to-all exchanges realizing the deal permutations;
* steps 6-8 — a neighbor half-exchange and merge: rank ``q ≥ 1`` merges
  its top half with rank ``q−1``'s bottom half into window ``q``, which
  *is* the globally sorted slice ``[q·r' − r'/2, q·r' + r'/2)``; rank 0's
  top half and rank ``P−1``'s bottom half are the sorted head and tail
  as they stand (their windows only add ±∞ padding);
* the final communication step delivers each rank its requested
  ``target_ranges`` — the step M-columnsort folds its out-of-core
  routing into.

After steps 6-8 every rank holds exactly **one contiguous** range of
global sorted ranks: ``[0, r'/2)`` on rank 0, window ``q`` on rank
``q ≥ 1``, and on rank ``P−1`` also the tail ``[P·r' − r'/2, P·r')``,
which starts where window ``P−1`` stops. The ranges ascend with rank and
do not depend on the keys (the obliviousness the paper chose columnsort
for), so the delivery needs no metadata: each rank sends a destination
the part of its held range that destination asked for, ascending, and a
receiver concatenating its sources in source order has ascending global
order. :class:`ColumnsortPlan` works that routing out once per pass; a
round is then three ``alltoallv`` and the neighbor send/recv.

Height restriction: ``r' ≥ 2·P²``, i.e. ``M/P ≥ 2P²``.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.comm import Comm
from repro.errors import CommError, ConfigError, DimensionError
from repro.membuf import LeaseScope
from repro.oocs.incore.common import (
    IC_TAG,
    Ranges,
    balanced_ranges,
    validate_equal_lengths,
    validate_ranges,
)
from repro.records.format import RecordFormat, concat_records, take_records


def _overlap(slices: list[tuple[int, int]], lo: int, hi: int) -> list[tuple[int, int]]:
    """The parts of ``slices`` inside ``[lo, hi)``, ascending, with
    touching parts joined."""
    parts: list[tuple[int, int]] = []
    for start, stop in sorted(slices):
        a, b = max(start, lo), min(stop, hi)
        if a >= b:
            continue
        if parts and parts[-1][1] == a:
            parts[-1] = (parts[-1][0], b)
        else:
            parts.append((a, b))
    return parts


class _WorkingSet:
    """What one rank's rounds of a plan keep for the pass, leased once
    from one scope, with the fixed views of it every round sends from.

    ``a`` is where step 1 sorts the column and where every later step's
    output lands; the round's second buffer ``b`` (the consumed input,
    see :meth:`ColumnsortPlan.sort`) takes what each exchange delivers.
    After steps 6-8 the rank's ``held`` range is ``a[:r'/2]`` on rank 0
    and ``a`` on every other rank — on rank ``P−1``, whose ``a`` is
    ``r' + r'/2`` long, window ``P−1`` followed by the tail.
    ``gathered`` collects the scattered destinations' records, when
    there are any. What crosses the fabric is record views; what a rank
    copies into its own arrays lands in their item views
    (:meth:`RecordFormat.items`)."""

    def __init__(self, plan: "ColumnsortPlan", dtype: np.dtype, scope: LeaseScope):
        comm, rr = plan.comm, plan.rr
        p, rank = comm.size, comm.rank
        half = rr // 2
        self.scope, self.dtype = scope, dtype
        # Leased as opaque items; out of the pool for the whole pass, so
        # the run's declaration counts it apart from the round buffers
        # (repro.oocs.base.columnsort_buffers).
        items = np.dtype((np.void, dtype.itemsize))
        last = p > 1 and rank == p - 1
        self.lease = scope.lease(items, rr + half if last else rr)
        self.held = self.lease.view(dtype)
        a = self.held[:rr]
        self.a_items = self.lease[:rr]
        if p > 1:
            chunk = rr // p
            # Step 2: row i of the sorted column goes to column i mod P.
            self.step2 = [a[q::p] for q in range(p)]
            # Step 4: chunk m goes to column m.
            self.step4 = [a[m * chunk : (m + 1) * chunk] for m in range(p)]
            self.bottom = a[half:]  # sent to rank q+1 (steps 6-8)
            self.top = a[:half]  # merged with rank q−1's bottom half
            if rank == 0:
                self.held = a[:half]  # window 0 minus its −∞ padding
        self.gathered = None
        gathered = None
        if plan._gather is not None:
            self.gathered = scope.lease(items, len(plan._gather))
            gathered = self.gathered.view(dtype)
        self.deliver = [
            (gathered if scattered else self.held)[cut]
            for scattered, cut in plan._take
        ]

    def bound_to(self, dtype: np.dtype, scope: LeaseScope) -> bool:
        """Whether this set serves a round of ``dtype`` records under
        ``scope``: leased from it and not yet returned by its close."""
        return self.scope is scope and self.dtype == dtype and scope.holds(self.lease)


class ColumnsortPlan:
    """What is fixed for a pass of distributed columnsorts: every rank
    contributes ``rr = r' = M/P`` records a round and rank ``q`` gets
    back its ``target_ranges[q]`` slices of the sorted union, ascending
    (balanced contiguous slices by default). Construction is collective
    (the one ``allgather``: every rank plans the same ``r'``).

    The plan's working set — the array every step's output lands in
    (``r' + r'/2`` long on rank ``P−1``, whose held range it becomes)
    and the gather of scattered deliveries — is leased from the
    ``leases`` scope of the first :meth:`sort` given one and kept for
    every later round under that scope, until the scope closes (the
    pass's end). The column's other ping-pong buffer is the round's
    consumed input, so a round leases only the slice it returns.
    Nothing returned aliases the working set: the delivery copies out
    of it.
    """

    def __init__(
        self,
        comm: Comm,
        rr: int,
        target_ranges: Ranges | None = None,
        check: bool = True,
    ) -> None:
        p = comm.size
        n_total = validate_equal_lengths(comm, rr)
        if target_ranges is None:
            target_ranges = balanced_ranges(n_total, p)
        validate_ranges(target_ranges, n_total, p)
        if check and p > 1:
            if rr % p:
                raise DimensionError(f"P={p} must divide the local length r'={rr}")
            if rr < 2 * p * p:
                raise DimensionError(
                    f"in-core height restriction violated: r'={rr} < 2P²={2 * p * p} "
                    f"(distributed columnsort needs M/P ≥ 2P²)"
                )
        self.comm = comm
        self.rr = rr
        half = rr // 2
        # The one contiguous range rank q holds after steps 6-8.
        held = [
            (q * rr - half if q else 0, q * rr + half if q < p - 1 else n_total)
            for q in range(p)
        ]
        lo, hi = held[comm.rank]
        # Per destination, what to send: a slice of the held range or,
        # for scattered ranges, a slice of one gather of every scattered
        # destination's records (``self._gather`` indexes it).
        self._take = []
        gather = []
        at = 0
        for q in range(p):
            parts = _overlap(target_ranges[q], lo, hi)
            if len(parts) > 1:
                n = sum(b - a for a, b in parts)
                gather += [np.arange(a - lo, b - lo) for a, b in parts]
                self._take.append((True, slice(at, at + n)))
                at += n
            else:
                a, b = parts[0] if parts else (lo, lo)
                self._take.append((False, slice(a - lo, b - lo)))
        self._gather = np.concatenate(gather) if gather else None
        # Records each source owes this rank.
        self._owed = [
            sum(b - a for a, b in _overlap(target_ranges[comm.rank], *held[q]))
            for q in range(p)
        ]
        self._n_owed = sum(self._owed)
        self._working: _WorkingSet | None = None

    def sort(
        self,
        local: np.ndarray,
        fmt: RecordFormat,
        leases: LeaseScope | None = None,
    ) -> np.ndarray:
        """Sort the union of all ranks' ``local`` arrays (in-core column
        ``rank`` of the ``r' × P`` matrix); return this rank's planned
        slices of the sorted sequence — a lease held by ``leases`` when
        given (the caller recycles it), else an array the caller owns.
        With ``leases``, ``local`` (one of its leases) is consumed: once
        step 1 has sorted it, it is the round's second buffer, and it is
        recycled before the delivery.

        Every record-sized array a round needs is the plan's working set,
        ``local`` or the returned lease, and every slice received is
        released once it has landed, so a warm pass allocates no record
        arrays."""
        comm, rr = self.comm, self.rr
        if len(local) != rr:
            raise ConfigError(
                f"rank {comm.rank} planned a distributed columnsort of r'={rr} "
                f"records per rank, got {len(local)}"
            )
        scope = LeaseScope() if leases is None else leases
        try:
            ws = self._working
            if ws is None or not ws.bound_to(fmt.dtype, scope):
                ws = _WorkingSet(self, fmt.dtype, scope)
                self._working = ws if leases is not None else None
            # Step 1: sort own column.
            fmt.sort(local, out=ws.a_items)
            if comm.size > 1:
                b = local if leases is not None else scope.lease(fmt.dtype, rr)
                self._steps_2_to_8(ws, b, fmt)
                scope.recycle(b)
            elif leases is not None:
                scope.recycle(local)
            if ws.gathered is not None:
                take_records(ws.held, self._gather, ws.gathered)
            if leases is None:
                out = fmt.empty(self._n_owed)
            else:
                out = scope.lease(fmt.dtype, self._n_owed)
            # Final communication step: deliver the requested slices.
            if comm.size == 1:
                return concat_records(ws.deliver, out=out)
            recv = comm.alltoallv(ws.deliver)
            for q, (got, owed) in enumerate(zip(recv, self._owed)):
                if len(got) != owed:
                    raise CommError(
                        f"rank {comm.rank} expected {owed} records from "
                        f"rank {q} in the delivery, got {len(got)} — held "
                        f"ranges and target ranges disagree"
                    )
            concat_records(recv, out=out)
            _release(scope, recv)
            return out
        finally:
            if leases is None:
                scope.close()

    def _steps_2_to_8(
        self, ws: _WorkingSet, b: np.ndarray, fmt: RecordFormat
    ) -> None:
        """Steps 2-8 on the sorted column in ``ws.a_items``, each
        exchange landing in ``b`` and each step's output in
        ``ws.a_items`` (every exchange has copied its input out by the
        time it returns):
        afterwards the rank's held range (``ws.held``) is its contiguous
        slice of the sorted union."""
        comm, scope = self.comm, ws.scope
        p, rank = comm.size, comm.rank
        landing = RecordFormat.items(b)
        # Step 2 (transpose & reshape). Sources ascending == target rows
        # ascending.
        recv = comm.alltoallv(ws.step2)
        concat_records(recv, out=landing)
        _release(scope, recv)
        # Step 3: the P received slices are sorted runs.
        fmt.merge_runs(b, out=ws.a_items)
        # Step 4 (reshape & transpose): chunk m → column m, interleaved rows.
        recv = comm.alltoallv(ws.step4)
        for q, piece in enumerate(recv):
            landing[q::p] = RecordFormat.items(piece)
        _release(scope, recv)
        # Step 5.
        fmt.sort(b, out=ws.a_items)
        # Steps 6-8: neighbor merge into windows.
        if rank < p - 1:
            comm.send(ws.bottom, rank + 1, tag=IC_TAG)
        if rank == 0:
            return
        upper = comm.recv(rank - 1, tag=IC_TAG)
        concat_records([upper, ws.top], out=landing)
        scope.recycle(upper)
        if rank < p - 1:
            fmt.merge_runs(b, out=ws.a_items)
            return
        # Window P minus its +∞ padding starts where window P−1 stops:
        # the tail moves past window P−1 before the merge overwrites it.
        ws.lease[self.rr :] = ws.lease[self.rr // 2 : self.rr]
        fmt.merge_runs(b, out=ws.a_items)


def _release(scope: LeaseScope, arrays) -> None:
    """Recycle each of ``arrays`` (received slices)."""
    for arr in arrays:
        scope.recycle(arr)


def distributed_columnsort(
    comm: Comm,
    local: np.ndarray,
    fmt: RecordFormat,
    target_ranges: Ranges | None = None,
    check: bool = True,
) -> np.ndarray:
    """One-shot :class:`ColumnsortPlan`: sort the union of all ranks'
    ``local`` arrays (equal lengths ``r' = M/P``) and return this rank's
    ``target_ranges`` slices of the sorted sequence."""
    return ColumnsortPlan(comm, len(local), target_ranges, check).sort(local, fmt)
