"""Distributed in-core sorts — M-columnsort's sort stage.

When the height interpretation becomes ``r = M``, each out-of-core
column holds as many records as the whole cluster's memory, and the
sort stage must be a distributed-memory multiprocessor sort. The paper
implemented three and measured them against each other (§4):

* :mod:`~repro.oocs.incore.columnsort_dist` — in-core columnsort on an
  ``(M/P) × P`` matrix (the winner; chosen also because its
  communication pattern is oblivious to key values);
* :mod:`~repro.oocs.incore.bitonic` — distributed bitonic sort
  (consistently slower at sort-stage-representative sizes);
* :mod:`~repro.oocs.incore.radix` — distributed LSD radix sort
  (competitive, but key-format dependent);
* :mod:`~repro.oocs.incore.sample` — a distribution (sample-based)
  sort, the §6 future-work alternative.

All share one contract: every rank contributes an equal-length local
array; afterwards each rank holds an arbitrary caller-chosen slice of
the globally sorted sequence (``target_ranges``). In-core columnsort
delivers those slices *in its own final communication step*, which is
what lets M-columnsort drop the out-of-core communicate stage entirely
(paper §4); the other sorts deliver balanced contiguous slices and
re-range afterwards.
"""

from repro.oocs.incore.common import (
    balanced_ranges,
    redistribute,
    validate_equal_lengths,
)
from repro.oocs.incore.columnsort_dist import ColumnsortPlan, distributed_columnsort
from repro.oocs.incore.bitonic import distributed_bitonic_sort
from repro.oocs.incore.radix import distributed_radix_sort
from repro.oocs.incore.sample import distributed_sample_sort

__all__ = [
    "balanced_ranges",
    "redistribute",
    "validate_equal_lengths",
    "ColumnsortPlan",
    "distributed_columnsort",
    "distributed_bitonic_sort",
    "distributed_radix_sort",
    "distributed_sample_sort",
]
