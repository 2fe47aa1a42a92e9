"""Cluster configuration.

Describes the machine shape of the paper's out-of-core setting (§2):
``P`` processors ``P0..P(P-1)`` and ``D`` disks ``D0..D(D-1)``. When
``D ≥ P``, processor ``p`` owns the ``D/P`` disks it accesses; when
``D < P``, processors share a node's disk through distinct "virtual
disk" regions, which lets the algorithms assume ``D ≥ P`` throughout.
All parameters are powers of 2 (so ``P | D`` after virtualization).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.matrix.bits import is_power_of_two


@dataclass(frozen=True)
class ClusterConfig:
    """Machine shape for the out-of-core algorithms.

    Parameters
    ----------
    p:
        Number of processors (power of 2).
    d:
        Number of physical disks (power of 2). Defaults to ``p`` — the
        paper's testbed had one disk per node. When ``d < p``, each disk
        is split into ``p/d`` virtual disks.
    mem_per_proc:
        Records of in-core memory available per processor (power of 2).
        This is the ``M/P`` of the problem-size restrictions — already
        net of the auxiliary communication/pipeline buffers (paper
        footnote 2).

    >>> cfg = ClusterConfig(p=4, d=4, mem_per_proc=2**16)
    >>> cfg.m
    262144
    >>> cfg.disks_per_proc
    1
    """

    p: int
    d: int | None = None
    mem_per_proc: int = 2**20

    def __post_init__(self) -> None:
        if self.d is None:
            object.__setattr__(self, "d", self.p)
        if not is_power_of_two(self.p):
            raise ConfigError(f"P must be a power of 2, got {self.p}")
        if not is_power_of_two(self.d):
            raise ConfigError(f"D must be a power of 2, got {self.d}")
        if not is_power_of_two(self.mem_per_proc):
            raise ConfigError(
                f"mem_per_proc must be a power of 2 records, got {self.mem_per_proc}"
            )

    @property
    def m(self) -> int:
        """Total memory of the system, in records (``M = P · M/P``)."""
        return self.p * self.mem_per_proc

    @property
    def virtual_disks(self) -> int:
        """Number of disks after virtualization — always ``max(d, p)``,
        so that every processor owns at least one (virtual) disk."""
        return max(self.d, self.p)

    @property
    def disks_per_proc(self) -> int:
        """Virtual disks owned by each processor (``D/P`` after
        virtualization)."""
        return self.virtual_disks // self.p

    def disks_of(self, rank: int) -> range:
        """The virtual-disk indices owned by processor ``rank``.

        Disk ``k`` belongs to processor ``k mod P`` so that consecutive
        stripe blocks round-robin across processors — the layout PDM
        ordering assumes.
        """
        self.check_rank(rank)
        return range(rank, self.virtual_disks, self.p)

    def owner_of_disk(self, disk: int) -> int:
        """The processor owning virtual disk ``disk``."""
        if not 0 <= disk < self.virtual_disks:
            raise ConfigError(
                f"disk {disk} out of range for {self.virtual_disks} virtual disks"
            )
        return disk % self.p

    def check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.p:
            raise ConfigError(f"rank {rank} out of range for P={self.p}")
