"""Distributed sample (distribution) sort — the §6 future-work
alternative for M-columnsort's sort stage.

Each rank draws a regular sample of its sorted block; the gathered
samples yield ``P−1`` splitters; records are partitioned by splitter,
exchanged with one all-to-all, and merged locally. Unlike columnsort,
the resulting distribution is data-dependent (skewed inputs produce
imbalanced ranks — metered by the T-incore benchmark), which is exactly
the trade-off the paper's discussion anticipates.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.comm import Comm
from repro.errors import ConfigError
from repro.oocs.incore.common import (
    Ranges,
    balanced_ranges,
    redistribute,
    validate_equal_lengths,
    validate_ranges,
)
from repro.records.format import RecordFormat


def distributed_sample_sort(
    comm: Comm,
    local: np.ndarray,
    fmt: RecordFormat,
    target_ranges: Ranges | None = None,
    oversample: int = 4,
) -> np.ndarray:
    """Sort the union of all ranks' ``local`` arrays by sample sort;
    return this rank's ``target_ranges`` slices.

    ``oversample`` controls splitter quality: each rank contributes
    ``oversample·P`` regular samples.
    """
    p = comm.size
    n_local = len(local)
    n_total = validate_equal_lengths(comm, n_local)
    if target_ranges is None:
        target_ranges = balanced_ranges(n_total, p)
    validate_ranges(target_ranges, n_total, p)
    if oversample < 1:
        raise ConfigError(f"oversample must be ≥ 1, got {oversample}")

    block = fmt.sort(local)
    if p == 1:
        return redistribute(comm, [(0, block)], target_ranges, fmt)

    # Regular sampling of the sorted block.
    count = min(n_local, oversample * p)
    idx = (np.arange(count) * n_local) // count
    sample = block["key"][idx]
    gathered = comm.allgather(sample)
    pool = np.sort(np.concatenate(gathered), kind="stable")
    # P−1 evenly spaced splitters.
    splitters = pool[[(k * len(pool)) // p for k in range(1, p)]]

    # Partition: records with key < splitters[0] → rank 0, etc. Ties go
    # right-of-splitter consistently (searchsorted side="left" on the
    # sorted block gives contiguous cuts).
    cuts = np.searchsorted(block["key"], splitters, side="left")
    bounds = np.concatenate([[0], cuts, [n_local]])
    parts = [block[bounds[q] : bounds[q + 1]] for q in range(p)]
    received = comm.alltoallv(parts)
    merged = fmt.merge_runs(np.concatenate(received))

    # Ranks now hold variable-length sorted runs; global offsets follow
    # from an exclusive prefix sum of the run lengths.
    my_start = comm.exscan(len(merged))
    held = [(my_start, merged)]
    return redistribute(comm, held, target_ranges, fmt)
