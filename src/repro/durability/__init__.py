"""Durability layer: block checksums and per-pass audits.

The paper's runs are I/O-bound on commodity SCSI disks, one per node
and without redundancy, so the failure modes that matter in practice
are disk-level: silent corruption (bit rot, torn writes) and
whole-disk loss mid-run. Corruption is detected here; a lost disk
fails the run with an error that names it, and pass-boundary
checkpoints plus the supervisor restart it:

* :mod:`repro.durability.hashing` — the one place checksum and digest
  algorithms live (block CRCs, file/checkpoint SHA-256), so the disk
  layer and :class:`~repro.resilience.checkpoint.CheckpointStore` can
  never drift apart;
* block checksums — every :class:`~repro.disks.virtual_disk.VirtualDisk`
  write records a per-extent CRC (persisted in a ``.meta/`` sidecar at
  the pass boundary), every read verifies it, and a mismatch raises
  :class:`~repro.errors.CorruptionError`;
* :mod:`repro.durability.audit` — an optional per-pass auditor that
  checks the columnsort invariants before a checkpoint is declared
  good, so a corrupted pass can never be resumed from.
"""

from __future__ import annotations

from repro.durability.hashing import (
    CHECKSUM_ALGO,
    block_checksum,
    file_digest,
    hexdigest,
)
from repro.durability.audit import PassAuditor

__all__ = [
    "CHECKSUM_ALGO",
    "block_checksum",
    "file_digest",
    "hexdigest",
    "PassAuditor",
]
