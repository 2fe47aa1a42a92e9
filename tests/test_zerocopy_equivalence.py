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
from repro.disks.iostats import IoStats
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
    # g-columnsort, N = 8192, buffer 512, group size 2: at 1 < g < P the
    # order of equal keys follows the passes' same-member routing
    "g": "2d711a481e556d0b586e53ad202dacb6a80050ce001b42ff68336c9130180617",
}

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


#: The copy meters that count data-plane work, not transport operations.
COPY_BYTE_METERS = ("bytes_copied", "bytes_zero_copy", "leases", "lease_returns")


@pytest.mark.skipif(
    "process" not in available_backends(), reason="needs the process backend"
)
@pytest.mark.parametrize("algorithm", sorted(SHAPES))
def test_both_backends_report_identical_accounting(algorithm):
    """A forked rank meters its own copies of the disks and the data
    plane and ships the deltas home; merged, they must equal what the
    shared meters of the thread backend count, pass by pass."""
    seen = {}
    for backend in ("thread", "process"):
        result = _sort(algorithm, 2, backend)
        result.output.delete()
        total = IoStats.total(result.io_per_pass)
        assert total == result.io, f"{algorithm}/{backend}: passes ≠ run"
        seen[backend] = (
            result.io,
            result.io_per_pass,
            result.comm_per_pass,
            result.comm_total,
            {key: result.copy[key] for key in COPY_BYTE_METERS},
        )
    assert seen["process"] == seen["thread"]
