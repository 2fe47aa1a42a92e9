"""Distributed LSD radix sort (the other §4 comparison baseline).

Sorts by key digits, least significant first; each digit pass counts
local digit occurrences, computes every record's global destination by
prefix sums across ranks, and redistributes with one all-to-all. The
per-pass placement is stable, so after all passes the keys are globally
sorted.

The paper judged radix sort "competitive ... over a wide range of
problem sizes" but rejected it for its key-format dependence — visible
here in :func:`sortable_uint_keys`, which must encode each key type
into order-preserving unsigned integers, whereas columnsort never looks
at keys at all.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.comm import Comm
from repro.errors import ConfigError
from repro.oocs.incore.common import (
    Ranges,
    balanced_ranges,
    exchange_concat,
    redistribute,
    validate_equal_lengths,
    validate_ranges,
)
from repro.records.format import RecordFormat


def sortable_uint_keys(keys: np.ndarray) -> np.ndarray:
    """Map keys to unsigned 64-bit integers preserving order.

    * unsigned ints: widened as-is;
    * signed ints: sign bit flipped;
    * floats (IEEE 754): sign bit flipped for non-negatives, all bits
      inverted for negatives (the classical radix-sortable encoding).
    """
    kind = keys.dtype.kind
    if kind == "u":
        return keys.astype(np.uint64)
    if kind == "i":
        return keys.astype(np.int64).view(np.uint64) ^ np.uint64(1 << 63)
    if kind == "f":
        if keys.dtype.itemsize != 8:
            keys = keys.astype(np.float64)
        bits = keys.view(np.uint64)
        mask = np.where(
            bits >> np.uint64(63) == 1,
            np.uint64(0xFFFFFFFFFFFFFFFF),
            np.uint64(1 << 63),
        )
        return bits ^ mask
    raise ConfigError(f"radix sort cannot encode key dtype {keys.dtype}")


def distributed_radix_sort(
    comm: Comm,
    local: np.ndarray,
    fmt: RecordFormat,
    target_ranges: Ranges | None = None,
    digit_bits: int = 8,
) -> np.ndarray:
    """Sort the union of all ranks' ``local`` arrays by distributed LSD
    radix sort; return this rank's ``target_ranges`` slices."""
    p = comm.size
    n_local = len(local)
    n_total = validate_equal_lengths(comm, n_local)
    if target_ranges is None:
        target_ranges = balanced_ranges(n_total, p)
    validate_ranges(target_ranges, n_total, p)
    if digit_bits < 1 or digit_bits > 16:
        raise ConfigError(f"digit_bits must be in [1, 16], got {digit_bits}")

    radix = 1 << digit_bits
    mask = np.uint64(radix - 1)
    block = local.copy()
    encoded = sortable_uint_keys(block["key"])
    passes = -(-64 // digit_bits)

    for d in range(passes):
        shift = np.uint64(d * digit_bits)
        digits = ((encoded >> shift) & mask).astype(np.int64)
        # Early exit: if no rank has a nonzero digit here, placement is
        # the identity. (Common once d passes the keys' magnitude.)
        any_nonzero = comm.allreduce(int(digits.any()))
        if not any_nonzero:
            continue
        # Stable local order within each digit.
        order = np.argsort(digits, kind="stable")
        block, encoded, digits = block[order], encoded[order], digits[order]
        counts = np.bincount(digits, minlength=radix)
        # Global destination of this rank's first record of each digit:
        # all smaller digits everywhere + same digit on lower ranks.
        all_counts = np.stack(comm.allgather(counts))  # (P, radix)
        digit_base = np.concatenate([[0], np.cumsum(all_counts.sum(axis=0))[:-1]])
        lower_rank_same = all_counts[: comm.rank].sum(axis=0)
        my_base = digit_base + lower_rank_same
        starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
        dest = (
            my_base[digits]
            + np.arange(n_local)
            - starts[digits]
        )
        # dest is already strictly increasing: within a digit run it is
        # consecutive, and my_base[d] + counts[d] ≤ digit_base[d+1] ≤
        # my_base[d+1] across digit boundaries — so no second argsort
        # (and no triple gather) is needed before partitioning.
        # Destination rank q holds global slots [q·n_local, (q+1)·n_local).
        dest_rank = dest // n_local
        bounds = np.searchsorted(dest_rank, np.arange(p + 1))
        parts = [block[bounds[q] : bounds[q + 1]] for q in range(p)]
        eparts = [encoded[bounds[q] : bounds[q + 1]] for q in range(p)]
        dparts = [dest[bounds[q] : bounds[q + 1]] for q in range(p)]
        # Records, their encodings, and their destination slots travel
        # together; arrivals from different sources interleave in global
        # order, so the receiver re-places them by destination slot.
        block = exchange_concat(comm, parts)
        encoded = exchange_concat(comm, eparts)
        dest_got = exchange_concat(comm, dparts)
        place = np.argsort(dest_got, kind="stable")
        block, encoded = block[place], encoded[place]

    held = [(comm.rank * n_local, block)]
    return redistribute(comm, held, target_ranges, fmt)
