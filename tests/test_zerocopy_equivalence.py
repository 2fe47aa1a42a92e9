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

import hashlib

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
    "g": (8192, 512),  # at group size 2
}


FMT = RecordFormat("u8", 64)


#: SHA-256 of the sorted output for *zipf* keys (same shapes, seed 7),
#: taken at the commit before the in-core sorts moved to the
#: sort-then-repair-ties order kernel. Columnsort as a whole is not a
#: stable sort, so with duplicate keys NumPy's stable sort is no oracle;
#: but which of two equal-keyed records comes first is decided by the
#: per-column stable sorts, so any kernel that is not *exactly* the
#: stable order changes these bytes.
ZIPF_DIGESTS = {
    "threaded": "486e487de8e22ab1b885c1b409049328ad53e8707681c561b9bc1c16f04adfd5",
    "subblock": "afcc6bfeae260ddf8a6b9a16657c11125362f2e25a94a9997e03eb57ea90eb62",
    "m": "d38d1d314635d9dfc15dfbf11035870948bdeffde73800b8b102cfd660475229",
    "hybrid": "eb8bb913df7f281033083295ab9b8f7e8de7511e17e1bdc6786407681983c7a7",
    # g-columnsort, N = 8192, buffer 512, group size 2
    "g2": "f667aba176874571b47fd3bde7648301784faaa611f974623c7b60938418941a",
}
ZIPF_DIGESTS["g"] = ZIPF_DIGESTS["g2"]

CLUSTER = ClusterConfig(p=4, mem_per_proc=2**16)


def _records(algorithm: str, keys: str = "uniform") -> np.ndarray:
    return generate(keys, FMT, SHAPES[algorithm][0], seed=7)


def _sort(
    algorithm: str, depth: int, backend: str = "thread", keys: str = "uniform"
):
    return sort_out_of_core(
        algorithm, _records(algorithm, keys), CLUSTER, FMT,
        buffer_records=SHAPES[algorithm][1], pipeline_depth=depth,
        backend=backend, group_size=2 if algorithm == "g" else None,
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


@pytest.mark.parametrize("algorithm", sorted(SHAPES))
def test_duplicate_keys_keep_the_stable_order_end_to_end(algorithm):
    # Zipf keys (thousands of ties per column) send every column sort
    # through the tie repair; the process backend joins on the cheapest
    # shape only.
    points = [(0, "thread"), (2, "thread")]
    if algorithm == "g":
        points += [(0, "process")]
    if algorithm in ("threaded", "g"):
        points += [(2, backend) for backend in available_backends()
                   if backend != "thread"]
    n = SHAPES[algorithm][0]
    for depth, backend in points:
        result = _sort(algorithm, depth, backend, keys="zipf")
        got = result.output.read_global(0, n).tobytes()
        result.output.delete()
        assert get_pool().outstanding() == 0, "pool lease leaked by the run"
        assert hashlib.sha256(got).hexdigest() == ZIPF_DIGESTS[algorithm], (
            f"{algorithm}: zipf output moved at depth={depth} backend={backend}"
        )


@pytest.mark.parametrize("backend", available_backends())
def test_gcolumnsort_outputs_byte_identical(backend):
    # The pre-runner spelling of the "g" points above, kept at depth 0:
    # unique keys against NumPy's stable sort, zipf keys against the
    # pinned digest.
    uniform = generate("uniform", FMT, 8192, seed=7)
    result = sort_out_of_core(
        "g", uniform, CLUSTER, FMT, 512, group_size=2, backend=backend
    )
    got = result.output.read_global(0, len(uniform)).tobytes()
    assert got == uniform[np.argsort(uniform["key"], kind="stable")].tobytes()
    zipf = generate("zipf", FMT, 8192, seed=7)
    result = sort_out_of_core(
        "g", zipf, CLUSTER, FMT, 512, group_size=2, backend=backend
    )
    got = result.output.read_global(0, len(zipf)).tobytes()
    assert hashlib.sha256(got).hexdigest() == ZIPF_DIGESTS["g2"]
    assert get_pool().outstanding() == 0


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
