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


class ColumnsortPlan:
    """What is fixed for a pass of distributed columnsorts: every rank
    contributes ``rr = r' = M/P`` records a round and rank ``q`` gets
    back its ``target_ranges[q]`` slices of the sorted union, ascending
    (balanced contiguous slices by default). Construction is collective
    (the one ``allgather``: every rank plans the same ``r'``).
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
        # Per destination, what to send: a slice of the held buffer (a
        # view) or, for scattered ranges, a slice of one gather of every
        # scattered destination's records (``self._gather`` indexes it).
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
        With ``leases``, ``local`` (one of its leases) is consumed: it is
        recycled as soon as step 1 has sorted it.

        Every record-sized array a round needs is a pool lease, recycled
        as soon as it is dead, and every slice received is released once
        it has landed, so a warm pass allocates no record arrays."""
        comm, rr = self.comm, self.rr
        p = comm.size
        if len(local) != rr:
            raise ConfigError(
                f"rank {comm.rank} planned a distributed columnsort of r'={rr} "
                f"records per rank, got {len(local)}"
            )
        scope = LeaseScope() if leases is None else leases
        try:
            held, dead = self._sort_held(local, fmt, scope, leases is not None)
            n_owed = sum(self._owed)
            if leases is None:
                out = fmt.empty(n_owed)
            else:
                out = scope.lease(fmt.dtype, n_owed)
            # Final communication step: deliver the requested slices.
            gathered = None
            if self._gather is not None:
                gathered = scope.lease(fmt.dtype, len(self._gather))
                take_records(held, self._gather, gathered)
                dead.append(gathered)
            parts = [
                (gathered if scattered else held)[cut]
                for scattered, cut in self._take
            ]
            if p == 1:
                concat_records(parts, out=out)
            else:
                recv = comm.alltoallv(parts)
                for q, (got, owed) in enumerate(zip(recv, self._owed)):
                    if len(got) != owed:
                        raise CommError(
                            f"rank {comm.rank} expected {owed} records from "
                            f"rank {q} in the delivery, got {len(got)} — held "
                            f"ranges and target ranges disagree"
                        )
                concat_records(recv, out=out)
                _release(scope, recv)
            _release(scope, dead)
            return out
        finally:
            if leases is None:
                scope.close()

    def _sort_held(
        self,
        local: np.ndarray,
        fmt: RecordFormat,
        scope: LeaseScope,
        consume: bool,
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        """Steps 1-8: this rank's held range of the sorted union, and
        the leases to recycle once it has been delivered (the held range
        may be a view of one of them). ``consume``: recycle ``local``
        once it is sorted.

        Two leases carry the column through every step, each step's
        output landing in the one its input is not in: every exchange
        has copied its input out by the time it returns."""
        comm, rr = self.comm, self.rr
        p = comm.size
        dtype = fmt.dtype
        a = scope.lease(dtype, rr)
        # Step 1: sort own column.
        fmt.sort(local, out=a)
        if consume:
            scope.recycle(local)
        if p == 1:
            return a, [a]
        chunk = rr // p
        b = scope.lease(dtype, rr)
        # Step 2 (transpose & reshape): row i of column q → column i mod P.
        recv = comm.alltoallv([a[q::p] for q in range(p)])
        # Sources ascending == target rows ascending.
        concat_records(recv, out=b)
        _release(scope, recv)
        # Step 3: the P received slices are sorted runs.
        fmt.merge_runs(b, out=a)
        # Step 4 (reshape & transpose): chunk m → column m, interleaved rows.
        recv = comm.alltoallv([a[m * chunk : (m + 1) * chunk] for m in range(p)])
        rows = fmt.items(b)
        for q, piece in enumerate(recv):
            rows[q::p] = fmt.items(piece)
        _release(scope, recv)
        # Step 5.
        fmt.sort(b, out=a)

        # Steps 6-8: neighbor merge into windows.
        half = rr // 2
        if comm.rank < p - 1:
            comm.send(a[half:], comm.rank + 1, tag=IC_TAG)
        if comm.rank == 0:
            scope.recycle(b)
            return a[:half], [a]  # window 0 minus its −∞ padding
        upper = comm.recv(comm.rank - 1, tag=IC_TAG)
        concat_records([upper, a[:half]], out=b)
        scope.recycle(upper)
        if comm.rank < p - 1:
            fmt.merge_runs(b, out=a)
            scope.recycle(b)
            return a, [a]
        # Window P minus its +∞ padding starts where window P−1 stops.
        held = scope.lease(dtype, rr + half)
        fmt.merge_runs(b, out=held[:rr])
        fmt.items(held)[rr:] = fmt.items(a[half:])
        scope.recycle(a)
        scope.recycle(b)
        return held, [held]


def _release(scope: LeaseScope, arrays) -> None:
    """Recycle each of ``arrays`` (received slices, or dead leases)."""
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
