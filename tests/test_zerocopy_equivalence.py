"""End-to-end guarantees of the zero-copy data plane.

Two properties protect it:

* **byte identity** — the sorted output equals NumPy's stable sort of
  the input byte-for-byte at every pipeline depth. Pooled buffers,
  ``readinto`` reads, and packed ``alltoallv`` views must be invisible
  to the data.
* **copy reduction** — the point of the exercise: the plane must copy
  at most half the bytes the copy-everything plane it replaced did on
  the reference workload (measured ≈2.7× fewer).

Both properties are checked on every transport backend: the process
backend's shared-memory alltoallv buffers and fork-copied data plane
must be exactly as invisible to the data as the thread backend's views.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import available_backends
from repro.cluster.config import ClusterConfig
from repro.membuf import get_pool
from repro.oocs.api import sort_out_of_core
from repro.records.format import RecordFormat
from repro.records.generators import generate

# (algorithm, n, buffer_records): smallest shapes where every algorithm
# is eligible and each pass still runs multiple rounds.
SHAPES = {
    "threaded": (8192, 512),
    "subblock": (16384, 1024),
    "m": (32768, 2048),
    "hybrid": (32768, 2048),
}


FMT = RecordFormat("u8", 64)


def _records(algorithm: str) -> np.ndarray:
    return generate("uniform", FMT, SHAPES[algorithm][0], seed=7)


def _sort(algorithm: str, depth: int, backend: str = "thread"):
    cluster = ClusterConfig(p=4, mem_per_proc=2**16)
    return sort_out_of_core(
        algorithm, _records(algorithm), cluster, FMT,
        buffer_records=SHAPES[algorithm][1], pipeline_depth=depth,
        backend=backend,
    )


@pytest.mark.parametrize("backend", available_backends())
@pytest.mark.parametrize("algorithm", sorted(SHAPES))
def test_legacy_and_pooled_outputs_byte_identical(algorithm, backend):
    # The cheapest thread shape sweeps the full depth set; the heavier
    # ones (and the process backend, which pays a fork per run) check
    # the synchronous and default-pipelined corners. The reference is
    # NumPy's stable sort of the input — independent of this code, so
    # it also pins cross-backend byte identity.
    full_sweep = algorithm == "threaded" and backend == "thread"
    depths = (0, 1, 2, 4) if full_sweep else (0, 2)
    records = _records(algorithm)
    keys = records["key"]
    assert len(np.unique(keys)) == len(keys)  # so the oracle is exact
    reference = records[np.argsort(keys, kind="stable")].tobytes()
    for depth in depths:
        result = _sort(algorithm, depth, backend)
        got = result.output.read_global(0, len(records)).tobytes()
        result.output.delete()
        assert get_pool().outstanding() == 0, "pool lease leaked by the run"
        assert got == reference, (
            f"{algorithm}: output differs at depth={depth} backend={backend}"
        )


def test_pooled_plane_copies_at_least_2x_fewer_bytes():
    # threaded, N = 8192, buffer 512, P = 4, depth 2. The plane that
    # copied at every seam (bytes round-trip reads, serialized writes,
    # one isolate copy per alltoallv destination) moved 4,980,736 B
    # here when it was last measured, immediately before its removal;
    # this one moves 1,835,008 B = 3.5 * N * 64 on both backends.
    result = _sort("threaded", depth=2)
    result.output.delete()
    assert result.copy["bytes_copied"] <= 4_980_736 // 2


def test_copy_accounting_surfaces_in_result():
    result = _sort("threaded", depth=2)
    result.output.delete()
    copy = result.copy
    assert copy["bytes_zero_copy"] > 0
    assert copy["leases"] == copy["lease_returns"] > 0
    assert copy["pool_hits"] + copy["pool_misses"] >= copy["leases"]
    assert copy["peak_leases"] >= 1
    # The result feeds the experiment table without massaging.
    from repro.experiments.breakdown import copy_breakdown_table

    rows = copy_breakdown_table(result)
    assert {row["metric"] for row in rows} >= {
        "bytes copied", "bytes zero-copy", "pool hit rate %", "peak leases",
    }
    assert all(row["algorithm"] == "threaded" for row in rows)
