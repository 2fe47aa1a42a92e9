"""Record formats and workload generators.

Out-of-core columnsort sorts fixed-size *records*, each carrying a *key*
(the sort key) and an opaque *payload*. The paper used 64- to 128-byte
records; this subpackage provides:

* :class:`~repro.records.format.RecordFormat` — a structured-dtype record
  description (key type + record size) with constructors and accessors;
* :mod:`~repro.records.keys` — key dtypes, sentinel (±∞) values, and
  comparison helpers;
* :mod:`~repro.records.generators` — the workload generators used by the
  tests, examples, and benchmark harness (uniform, sorted, reverse,
  nearly-sorted, duplicate-heavy, gaussian, zipf, …). Generated payloads
  embed the record's original index so that any later permutation of the
  data can be verified to be a true permutation.
"""

from repro.records.format import RecordFormat
from repro.records.keys import (
    KEY_DTYPES,
    key_info,
)
from repro.records.generators import (
    WORKLOADS,
    generate,
    workload_names,
)

__all__ = [
    "RecordFormat",
    "KEY_DTYPES",
    "key_info",
    "WORKLOADS",
    "generate",
    "workload_names",
]
