"""Durability layer: block checksums, XOR parity, degraded-mode recovery.

The paper's runs are I/O-bound on commodity SCSI disks, so the failure
modes that matter in practice are disk-level: silent corruption (bit
rot, torn writes) and whole-disk loss mid-run. This package adds the
three defenses the resilience layer (PR 3) left open:

* :mod:`repro.durability.hashing` — the one place checksum and digest
  algorithms live (block CRCs, file/checkpoint SHA-256), so the disk
  layer and :class:`~repro.resilience.checkpoint.CheckpointStore` can
  never drift apart;
* block checksums — every :class:`~repro.disks.virtual_disk.VirtualDisk`
  write records a per-extent CRC (persisted in a ``.meta/`` sidecar at
  the pass boundary), every read verifies it, and a mismatch raises
  :class:`~repro.errors.CorruptionError`;
* :mod:`repro.durability.parity` — an opt-in RAID-5-style XOR parity
  layer across the D disks; any single lost or corrupt block is
  reconstructed online from the surviving D−1 disks;
* :mod:`repro.durability.audit` — an optional per-pass auditor that
  checks the columnsort invariants before a checkpoint is declared
  good, so a corrupted pass can never be resumed from.

``attach_durability`` wires a disk array up: it creates (or reuses) a
:class:`~repro.resilience.quarantine.DiskQuarantine` and, when
``parity=True``, a :class:`~repro.durability.parity.ParityLayer`.
"""

from __future__ import annotations

from repro.durability.hashing import (
    CHECKSUM_ALGO,
    block_checksum,
    file_digest,
    hexdigest,
)
from repro.durability.parity import ParityLayer, attach_durability
from repro.durability.audit import PassAuditor

__all__ = [
    "CHECKSUM_ALGO",
    "block_checksum",
    "file_digest",
    "hexdigest",
    "ParityLayer",
    "PassAuditor",
    "attach_durability",
]
