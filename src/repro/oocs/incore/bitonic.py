"""Distributed bitonic sort (the §4 comparison baseline).

The classic hypercube compare-split formulation: each rank keeps a
sorted block of ``n`` records; ``lg P`` merge phases of compare-split
exchanges leave the blocks globally sorted across ranks. Total
communication is ``n·lg P·(lg P + 1)/2`` records per rank — strictly
more than distributed columnsort's four exchanges once ``P ≥ 16``,
which the paper found "consistently slower" at sort-stage sizes.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.comm import Comm
from repro.errors import ConfigError
from repro.matrix.bits import ilog2, is_power_of_two
from repro.oocs.incore.common import (
    Ranges,
    balanced_ranges,
    redistribute,
    validate_equal_lengths,
    validate_ranges,
)
from repro.records.format import RecordFormat

#: Tag for compare-split exchanges.
BITONIC_TAG = 92


def _compare_split(
    comm: Comm, local: np.ndarray, partner: int, keep_low: bool
) -> np.ndarray:
    """Exchange blocks with ``partner``; keep the low (or high) half of
    the merged pair. Both sides keep exactly ``len(local)`` records."""
    other = comm.sendrecv(local, partner, tag=BITONIC_TAG)
    both = RecordFormat.merge_runs(np.concatenate([local, other]))
    n = len(local)
    return both[:n].copy() if keep_low else both[n:].copy()


def distributed_bitonic_sort(
    comm: Comm,
    local: np.ndarray,
    fmt: RecordFormat,
    target_ranges: Ranges | None = None,
) -> np.ndarray:
    """Sort the union of all ranks' ``local`` arrays by distributed
    bitonic sort; return this rank's ``target_ranges`` slices."""
    p = comm.size
    if not is_power_of_two(p):
        raise ConfigError(f"bitonic sort needs a power-of-2 rank count, got {p}")
    n_total = validate_equal_lengths(comm, len(local))
    if target_ranges is None:
        target_ranges = balanced_ranges(n_total, p)
    validate_ranges(target_ranges, n_total, p)

    block = fmt.sort(local)
    d = ilog2(p)
    for i in range(1, d + 1):
        # After this phase, blocks form bitonic sequences of length 2^(i+1)
        # (fully sorted when i == d: bit i of every rank is then 0).
        ascending = (comm.rank & (1 << i)) == 0
        for j in range(i - 1, -1, -1):
            partner = comm.rank ^ (1 << j)
            keep_low = (comm.rank < partner) == ascending
            block = _compare_split(comm, block, partner, keep_low)

    held = [(comm.rank * len(block), block)]
    return redistribute(comm, held, target_ranges, fmt)


def bitonic_exchange_count(p: int) -> int:
    """Compare-split exchanges per rank: ``lg P · (lg P + 1) / 2`` —
    used by the T-incore benchmark's communication accounting."""
    d = ilog2(p)
    return d * (d + 1) // 2
