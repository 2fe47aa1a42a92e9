"""Sorted-run structure between passes, and merge-based column sorting.

Paper footnote 5: "In a given pass p, the data might start with some
sorted runs, depending on the write pattern of pass p−1. The
implementation takes advantage of the sorted runs to sort by merging."

Our pass bodies produce exactly the run structures the paper exploits:

* after a **deal pass** (steps 1+2 or 3+4), every column is ``s``
  sorted runs of ``r/s`` records — each contribution is an ascending
  slice of one sorted source column;
* after the **subblock pass**, every column is ``√s`` sorted runs of
  ``r/√s`` records — the §3 structural theorem about the subblock
  permutation.

:func:`predict_runs` states this; the tests verify it against live
intermediate files. :func:`merge_sorted_runs` is the merging sort the
paper's C implementation used. An honest engineering note, timed by
the benchmark's ``oocs.runs.merge_mrps`` and ``records.sort_mrps``
probes: in NumPy, ``np.sort`` runs in
optimized C while the k-way merge tree pays Python-level iteration per
level, so merging only wins for few, long runs — the opposite economics
of the paper's hand-written C merger. :func:`sort_column` picks
whichever is predicted cheaper.

No pass calls :func:`merge_sorted_runs` or :func:`sort_column`: the pass
bodies merge runs through :meth:`RecordFormat.merge_runs
<repro.records.format.RecordFormat.merge_runs>` (timsort finds and
merges them). The ``oocs.runs.merge_mrps`` probe therefore prices no
pass; the kernel the passes run is ``merge_runs``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.matrix.bits import sqrt_pow4
from repro.records.format import RecordFormat


def predict_runs(pass_name: str, r: int, s: int) -> tuple[int, int]:
    """``(run_count, run_length)`` of a column at the *start* of the
    named pass, given our write patterns.

    ``pass_name`` is one of ``"after-deal"`` (the input came from a
    step-2 or step-4 deal pass) or ``"after-subblock"``.
    """
    if r % s:
        raise ConfigError(f"s={s} must divide r={r}")
    if pass_name == "after-deal":
        return s, r // s
    if pass_name == "after-subblock":
        t = sqrt_pow4(s)
        return t, r // t
    raise ConfigError(
        f"unknown pass {pass_name!r}; expected 'after-deal' or 'after-subblock'"
    )


def merge_two(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stable merge of two key-sorted record arrays (``a``'s elements
    precede equal-keyed ``b`` elements), vectorized: one searchsorted
    plus two scatters."""
    if not len(a):
        return b.copy()
    if not len(b):
        return a.copy()
    out = np.empty(len(a) + len(b), dtype=a.dtype)
    positions_b = np.searchsorted(a["key"], b["key"], side="right") + np.arange(
        len(b)
    )
    mask_a = np.ones(len(out), dtype=bool)
    mask_a[positions_b] = False
    out[positions_b] = b
    out[mask_a] = a
    return out


def merge_sorted_runs(records: np.ndarray, run_length: int) -> np.ndarray:
    """Sort records known to consist of key-sorted runs of
    ``run_length`` each, by a stable pairwise merge tree (⌈lg k⌉
    levels for ``k`` runs)."""
    n = len(records)
    if run_length < 1 or n % run_length:
        raise ConfigError(
            f"run_length={run_length} must evenly divide {n} records"
        )
    runs = [records[i : i + run_length] for i in range(0, n, run_length)]
    while len(runs) > 1:
        merged = [
            merge_two(runs[i], runs[i + 1]) if i + 1 < len(runs) else runs[i]
            for i in range(0, len(runs), 2)
        ]
        runs = merged
    return runs[0] if runs else records.copy()


def sort_column(records: np.ndarray, run_length: int | None = None) -> np.ndarray:
    """Sort a column, exploiting known run structure when it is
    predicted to pay off.

    The crossover in this NumPy setting: merging beats ``np.sort`` only
    when there are very few runs (k ≤ 4) of substantial length; below
    that we fall through to the stable full sort.
    """
    if run_length is not None and run_length >= 1 and len(records):
        k = -(-len(records) // run_length)
        if k <= 4 and len(records) % run_length == 0:
            return merge_sorted_runs(records, run_length)
    return RecordFormat.sort(records)


def verify_run_structure(records: np.ndarray, run_length: int) -> bool:
    """Whether records really are key-sorted runs of ``run_length``
    (the oracle the tests use against live intermediate columns)."""
    keys = records["key"] if records.dtype.names else records
    n = len(keys)
    if run_length < 1 or n % run_length:
        return False
    blocks = keys.reshape(n // run_length, run_length)
    return bool(np.all(blocks[:, :-1] <= blocks[:, 1:]))
