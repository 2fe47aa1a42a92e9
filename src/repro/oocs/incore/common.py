"""Shared plumbing of the distributed in-core sorts.

The contract all of them implement::

    result = distributed_xxx(comm, local, fmt, target_ranges)

Every rank contributes ``local`` (equal lengths across ranks); the
union is sorted; rank ``q`` receives the globally sorted records at the
ranks listed in ``target_ranges[q]`` (disjoint ``[start, stop)`` slices
covering ``[0, N')`` between them), concatenated in ascending order.

``target_ranges`` is the hook that lets M-columnsort eliminate its
out-of-core communicate stage: the out-of-core permutation (step 2 or 4
of the outer columnsort) determines which sorted ranks each processor
must write into its own portion of the target columns, and the in-core
sort's final communication step delivers exactly those (paper §4).
"""

from __future__ import annotations

import numpy as np

from repro.cluster.comm import Comm
from repro.errors import CommError, ConfigError
from repro.records.format import RecordFormat

#: Tag for the neighbor half-exchange inside distributed columnsort.
IC_TAG = 91

Ranges = list[list[tuple[int, int]]]


def balanced_ranges(n_total: int, p: int) -> Ranges:
    """The default delivery: rank ``q`` gets the contiguous slice
    ``[q·N'/P, (q+1)·N'/P)``."""
    if n_total % p:
        raise ConfigError(f"cannot balance {n_total} records over {p} ranks")
    share = n_total // p
    return [[(q * share, (q + 1) * share)] for q in range(p)]


def validate_ranges(target_ranges: Ranges, n_total: int, p: int) -> None:
    """Check that the requested slices are disjoint, sorted, and cover
    ``[0, n_total)`` exactly."""
    if len(target_ranges) != p:
        raise ConfigError(
            f"target_ranges must have one entry per rank ({p}), got "
            f"{len(target_ranges)}"
        )
    pieces = sorted(
        (start, stop) for slices in target_ranges for (start, stop) in slices
    )
    at = 0
    for start, stop in pieces:
        if start != at or stop < start:
            raise ConfigError(
                f"target ranges must tile [0, {n_total}) exactly; "
                f"gap or overlap at {at} (next piece [{start}, {stop}))"
            )
        at = stop
    if at != n_total:
        raise ConfigError(f"target ranges cover [0, {at}), expected [0, {n_total})")


def validate_equal_lengths(comm: Comm, n_local: int) -> int:
    """Assert all ranks contribute the same count; returns the total."""
    lengths = comm.allgather(n_local)
    if len(set(lengths)) != 1:
        raise ConfigError(
            f"distributed sorts need equal local lengths, got {lengths}"
        )
    return n_local * comm.size


def redistribute(
    comm: Comm,
    held: list[tuple[int, np.ndarray]],
    target_ranges: Ranges,
    fmt: RecordFormat,
) -> np.ndarray:
    """Route globally-ranked sorted pieces to their requesting ranks.

    ``held`` is this rank's list of ``(global_start, records)`` pieces
    (each internally sorted; the global ranks they claim must be
    correct). Returns the records of this rank's ``target_ranges``
    slices, concatenated in ascending global order.
    """
    p = comm.size
    outgoing: list[list[tuple[int, np.ndarray]]] = [[] for _ in range(p)]
    for gstart, arr in held:
        gstop = gstart + len(arr)
        for q in range(p):
            for (start, stop) in target_ranges[q]:
                lo, hi = max(gstart, start), min(gstop, stop)
                if lo < hi:
                    outgoing[q].append((lo, arr[lo - gstart : hi - gstart]))
    received = comm.alltoall(outgoing)
    pieces = [piece for batch in received for piece in batch]
    pieces.sort(key=lambda piece: piece[0])
    want = sum(stop - start for (start, stop) in target_ranges[comm.rank])
    got = sum(len(arr) for _, arr in pieces)
    if got != want:
        raise CommError(
            f"rank {comm.rank} expected {want} records from redistribution, "
            f"got {got} — held ranges and target ranges disagree"
        )
    if not pieces:
        return fmt.empty(0)
    return np.concatenate([arr for _, arr in pieces])
