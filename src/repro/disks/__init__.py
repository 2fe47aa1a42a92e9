"""File-backed parallel disks and out-of-core data layouts.

The paper's setting (§2): ``D ≥ P`` disks, each processor owning the
``D/P`` disks it accesses; matrix columns stored in contiguous locations
on their owner's disks; final output in the standard striped ordering of
the Parallel Disk Model (PDM).

* :class:`~repro.disks.virtual_disk.VirtualDisk` — one disk as a
  directory of files with byte-offset block I/O, byte-accurate
  accounting (:class:`~repro.disks.iostats.IoStats`), optional capacity
  limits, and fault injection;
* :class:`~repro.disks.matrixfile.ColumnStore` — the one ``r × s``
  column store: columns of height ``g·M/P`` each striped over a group
  of ``g`` processors — whole columns owned by ``j mod P`` at the
  default ``g = 1`` (threaded and subblock columnsort), M-columnsort's
  ``r = M`` at ``g = P``, g-columnsort's adjustable interpretation in
  between;
* :mod:`~repro.disks.pdm` + :class:`~repro.disks.matrixfile.PdmStore` —
  PDM striped ordering: the address arithmetic, ownership splitting for
  the final communicate stage, and verification readback.
"""

from repro.disks.iostats import IoStats
from repro.disks.virtual_disk import VirtualDisk, make_disk_array
from repro.disks.pdm import (
    pdm_disk_of,
    pdm_position,
    split_range_by_disk,
    split_range_by_owner,
)
from repro.disks.matrixfile import ColumnStore, PdmStore

__all__ = [
    "IoStats",
    "VirtualDisk",
    "make_disk_array",
    "pdm_disk_of",
    "pdm_position",
    "split_range_by_disk",
    "split_range_by_owner",
    "ColumnStore",
    "PdmStore",
]
