"""Byte-accurate disk I/O accounting.

A *pass* in the paper's sense reads every record once from disk and
writes it back once. The integration tests assert pass counts from these
counters: threaded columnsort must move exactly ``3·N`` records through
read and write, subblock columnsort ``4·N``, M-columnsort ``3·N``.
Counters are thread-safe because each rank runs on its own thread.

``bytes_hashed``, ``checksum_failures`` and ``extents_verified`` meter
the durability layer's verification overhead: bytes fed through the
block-checksum CRC on both the write (compute) and read (verify) sides,
cataloged extents whose stored CRC did not match, and the cataloged
extents the successful reads checked (one per read when every read
covers exactly one extent — a column portion's appends are one chained
extent). They deliberately do not perturb ``reads``/``writes`` or the
byte totals — hashing is not data movement, so the pass-count
invariants stay exact with checksums on.
"""

from __future__ import annotations

from repro.telemetry import Counters


class IoStats(Counters):
    """Running I/O totals for one disk (or several sharing the meter)."""

    KEYS = (
        "reads",
        "writes",
        "bytes_read",
        "bytes_written",
        "read_retries",
        "write_retries",
        "bytes_hashed",
        "checksum_failures",
        "extents_verified",
    )

    def record_read(self, nbytes: int, hashed: int = 0, verified: int = 0) -> None:
        """Count one read of ``nbytes``, ``hashed`` of them verified
        against ``verified`` cataloged extents."""
        with self._lock:
            self.reads += 1
            self.bytes_read += nbytes
            self.bytes_hashed += hashed
            self.extents_verified += verified

    def record_write(self, nbytes: int, count: int = 1, hashed: int = 0) -> None:
        """Count ``count`` written extents of ``nbytes`` in all, ``hashed``
        of those bytes run through the block checksum (one update for a
        whole batch write)."""
        with self._lock:
            self.writes += count
            self.bytes_written += nbytes
            self.bytes_hashed += hashed

    def record_retry(self, op: str) -> None:
        """Count one retried operation. Retries are metered separately —
        ``reads``/``writes`` and the byte totals count only successful
        operations, so the pass-count assertions stay exact even under a
        transient fault plan."""
        with self._lock:
            if op == "read":
                self.read_retries += 1
            else:
                self.write_retries += 1

    def record_checksum_failure(self, n: int, hashed: int) -> None:
        """Count a refused read: ``n`` mismatched extents, found by
        hashing ``hashed`` bytes."""
        with self._lock:
            self.checksum_failures += n
            self.bytes_hashed += hashed
