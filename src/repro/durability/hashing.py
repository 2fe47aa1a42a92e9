"""One home for every digest the repo computes over stored bytes.

Three consumers share these helpers so their algorithms cannot drift:

* the disk layer's per-extent block checksums
  (:func:`block_checksum`);
* :meth:`~repro.disks.virtual_disk.VirtualDisk.fingerprint`
  (:func:`file_digest`);
* :func:`~repro.resilience.checkpoint.store_digest`, which folds disk
  fingerprints into one checkpoint digest (:func:`hexdigest`).

Block checksums prefer hardware-accelerated CRC32C when a ``crc32c``
module is importable and fall back to :func:`zlib.crc32` otherwise —
both are 32-bit CRCs computed on the zero-copy wire view, and the
sidecar records which algorithm wrote it so a mismatch between
environments is detected rather than misread as corruption.
"""

from __future__ import annotations

import hashlib
import zlib
from pathlib import Path

try:  # pragma: no cover - depends on the environment
    import crc32c as _crc32c_mod

    def block_checksum(data, crc: int = 0) -> int:
        """32-bit checksum of one block (any C-contiguous buffer, hashed
        in place), run on from ``crc``: the checksum of contiguous
        blocks chained in order is the checksum of their concatenation."""
        return _crc32c_mod.crc32c(memoryview(data), crc)

    CHECKSUM_ALGO = "crc32c"
except ImportError:  # pragma: no cover - the baked-in toolchain path
    def block_checksum(data, crc: int = 0) -> int:
        """32-bit checksum of one block (any C-contiguous buffer, read
        in place: a ``memoryview`` of a record array would cost more
        than hashing a 4 KB segment), run on from ``crc``: the checksum
        of contiguous blocks chained in order is the checksum of their
        concatenation."""
        return zlib.crc32(data, crc) & 0xFFFFFFFF

    CHECKSUM_ALGO = "crc32"

#: Digest used for whole-file fingerprints and checkpoint digests.
DIGEST_ALGO = "sha256"


def file_digest(path: str | Path) -> str:
    """Streaming hex digest of a file's bytes (:data:`DIGEST_ALGO`)."""
    h = hashlib.new(DIGEST_ALGO)
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def hexdigest(data: bytes) -> str:
    """Hex digest of in-memory bytes (:data:`DIGEST_ALGO`) — used to
    fold per-file fingerprints into one store/checkpoint digest."""
    return hashlib.new(DIGEST_ALGO, data).hexdigest()
