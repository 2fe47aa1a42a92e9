"""The four workloads and their geometry.

Every workload runs P = 2 ranks on 64-byte records with ``u8`` keys. N
is fixed: if a time cap bites, reps are cut, never N.

Stdlib only (imported before ``import repro`` is timed).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

P = 2
RECORD_SIZE = 64
KEY_DTYPE = "u8"

#: pass count of each algorithm (the paper's 3-pass / 4-pass programs)
PASSES = {"threaded": 3, "subblock": 4, "m": 3}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    algorithm: str
    buffer_records: int  # per-rank buffer r (the rank's portion for "m")
    n: int
    keys: str  # generator name
    depth: int
    backend: str
    #: run_baseline_io validates the *threaded* shape, so each workload
    #: names the smallest threaded-legal buffer for its N (README, known
    #: gaps); same bytes, same passes, whole-column I/O either way.
    baseline_buffer_records: int

    @property
    def passes(self) -> int:
        return PASSES[self.algorithm]

    @property
    def mem_per_proc(self) -> int:
        return max(self.buffer_records, self.baseline_buffer_records)

    @property
    def column_records(self) -> int:
        """Out-of-core column height r (``M = P x buffer`` for "m")."""
        if self.algorithm == "m":
            return P * self.buffer_records
        return self.buffer_records

    @property
    def columns(self) -> int:
        return self.n // self.column_records

    @property
    def segment_records(self) -> int:
        """Records one deal-pass write_at carries: a rank gathers its
        P sources' r/s-record bands per target column; M-columnsort
        appends portion/s records per target."""
        if self.algorithm == "m":
            return self.buffer_records // self.columns
        return P * self.column_records // self.columns

    @property
    def segment_extents(self) -> int:
        """Extents a deal pass appends to one object."""
        if self.algorithm == "m":
            return self.columns
        return self.columns // P

    @property
    def expected_bytes(self) -> int:
        """The paper's identity: bytes read == bytes written == this."""
        return self.passes * self.n * RECORD_SIZE

    def reduced(self) -> "Workload":
        """Same algorithm, backend, depth and keys at N = 8192, buffer
        512: the tiny-sort probe and the self-tests."""
        return replace(
            self, n=8192, buffer_records=512, baseline_buffer_records=512
        )


def smallest_threaded_buffer(n: int) -> int:
    """Smallest power-of-2 r with r | n and r >= 2 (n/r)^2."""
    r = 1
    while r ** 3 < 2 * n * n:
        r *= 2
    return r


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "threaded-thread",
            "paper's headline program at the largest N bound (1) allows for "
            "r=32768: fewest, largest writes, so disk bandwidth, CRC and the "
            "in-core column sort weigh most",
            algorithm="threaded", buffer_records=32768, n=2_097_152,
            keys="uniform", depth=2, backend="thread",
            baseline_buffer_records=32768,
        ),
        Workload(
            "threaded-process",
            "identical inputs and geometry on the process backend: I/O and "
            "message counts are byte-identical, so any difference is fork + "
            "arena + shm alltoallv (pure transport A/B)",
            algorithm="threaded", buffer_records=32768, n=2_097_152,
            keys="uniform", depth=2, backend="process",
            baseline_buffer_records=32768,
        ),
        Workload(
            "subblock-beyond-bound",
            "the paper's contribution: 4 passes at twice the N threaded can "
            "sort with r=4096; small segments, fewest bytes per rep, zipf keys "
            "so per-op and per-run fixed costs and duplicates dominate",
            algorithm="subblock", buffer_records=4096, n=262_144,
            keys="zipf", depth=2, backend="thread",
            baseline_buffer_records=8192,
        ),
        Workload(
            "mcol-small-buffer",
            "M-columnsort at depth 0: only here do the distributed in-core sort "
            "and many small collectives do real work; most, smallest writes; "
            "pipeline pools idle, so a pipeline change must not move it",
            algorithm="m", buffer_records=4096, n=524_288,
            keys="uniform", depth=0, backend="thread",
            baseline_buffer_records=8192,
        ),
    )
}
