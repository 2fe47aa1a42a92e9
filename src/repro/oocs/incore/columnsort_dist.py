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

Height restriction: ``r' ≥ 2·P²``, i.e. ``M/P ≥ 2P²``.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.comm import Comm
from repro.errors import DimensionError
from repro.oocs.incore.common import (
    IC_TAG,
    Ranges,
    balanced_ranges,
    redistribute,
    validate_equal_lengths,
    validate_ranges,
)
from repro.records.format import RecordFormat


def distributed_columnsort(
    comm: Comm,
    local: np.ndarray,
    fmt: RecordFormat,
    target_ranges: Ranges | None = None,
    check: bool = True,
) -> np.ndarray:
    """Sort the union of all ranks' ``local`` arrays; return this rank's
    ``target_ranges`` slices of the sorted sequence (balanced contiguous
    slices by default).

    ``local`` holds ``r' = M/P`` records — in-core column ``rank`` of the
    ``r' × P`` matrix.
    """
    p = comm.size
    rr = len(local)
    n_total = validate_equal_lengths(comm, rr)
    if target_ranges is None:
        target_ranges = balanced_ranges(n_total, p)
    validate_ranges(target_ranges, n_total, p)

    if p == 1:
        col = fmt.sort(local)
        return np.concatenate(
            [col[start:stop] for (start, stop) in target_ranges[0]]
        ) if target_ranges[0] else fmt.empty(0)

    if check:
        if rr % p:
            raise DimensionError(f"P={p} must divide the local length r'={rr}")
        if rr < 2 * p * p:
            raise DimensionError(
                f"in-core height restriction violated: r'={rr} < 2P²={2 * p * p} "
                f"(distributed columnsort needs M/P ≥ 2P²)"
            )
    chunk = rr // p

    # Step 1: sort own column.
    col = fmt.sort(local)
    # Step 2 (transpose & reshape): row i of column q → column i mod P.
    recv = comm.alltoallv([col[q::p] for q in range(p)])
    col = np.concatenate(recv)  # sources ascending == target rows ascending
    # Step 3: the P received slices are sorted runs.
    col = fmt.merge_runs(col)
    # Step 4 (reshape & transpose): chunk m → column m, interleaved rows.
    recv = comm.alltoallv(
        [col[m * chunk : (m + 1) * chunk] for m in range(p)]
    )
    col = fmt.empty(rr)
    for q, piece in enumerate(recv):
        col[q::p] = piece
    # Step 5.
    col = fmt.sort(col)

    # Steps 6-8: neighbor merge into windows.
    half = rr // 2
    if comm.rank < p - 1:
        comm.send(col[half:], comm.rank + 1, tag=IC_TAG)
    held: list[tuple[int, np.ndarray]] = []
    if comm.rank == 0:
        held.append((0, col[:half]))  # window 0 minus its −∞ padding
    else:
        upper = comm.recv(comm.rank - 1, tag=IC_TAG)
        merged = fmt.merge_runs(np.concatenate([upper, col[:half]]))
        held.append((comm.rank * rr - half, merged))
    if comm.rank == p - 1:
        held.append((p * rr - half, col[half:]))  # window P minus +∞ padding

    # Final communication step: deliver the requested slices.
    return redistribute(comm, held, target_ranges, fmt)
