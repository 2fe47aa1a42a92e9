"""Zero-copy data plane: pooled record buffers and copy accounting.

``membuf`` is the memory-side counterpart of ``repro.disks``: the disks
package meters bytes crossing the (simulated) platters, this package
pools the in-memory record buffers those bytes land in and meters how
often the data plane duplicates them. See DESIGN §7 for the ownership
rules at each seam.
"""

from repro.membuf.copystats import ARENA_KEYS, CopyStats, copy_stats
from repro.membuf.pool import BufferPool, LeaseScope, get_pool

__all__ = [
    "ARENA_KEYS",
    "BufferPool",
    "CopyStats",
    "LeaseScope",
    "copy_stats",
    "get_pool",
]
