"""Disk quarantine: the registry that declares a disk dead.

A transient fault is retried; a *permanent* disk fault means the medium
itself is gone. :class:`DiskQuarantine` counts permanent faults per disk
and, once a disk crosses the ``dead_after`` threshold, marks it dead.
What happens next depends on whether a
:class:`~repro.durability.parity.ParityLayer` is attached to the array:

* **with parity** — the dead disk's reads are served by reconstructing
  its blocks from the surviving D−1 disks into a spare region, and its
  writes are rerouted to that spare region; the run completes in
  *degraded mode*, byte-identical to a fault-free run;
* **without parity** — every further operation on the dead disk fails
  fast with a structural (never-retryable) ``DiskError``, so the run
  aborts promptly instead of burning its retry budget against a disk
  that cannot answer.

The quarantine also counts writes rerouted to a dead disk's spare
region. Each other durability fact has one meter: checksum failures
are :class:`~repro.disks.iostats.IoStats` counters, reconstructions and
repairs the parity layer's.

A process-global registry tracks quarantines that currently hold dead
disks; the test suite's leak check asserts it is empty between tests so
a degraded run can never silently bleed state into the next one.
"""

from __future__ import annotations

import threading

from repro.telemetry import Counters

_active_lock = threading.Lock()
_active: set["DiskQuarantine"] = set()


def active_quarantines() -> list["DiskQuarantine"]:
    """Quarantines currently holding at least one dead disk (leak check)."""
    with _active_lock:
        return list(_active)


def release_all_quarantines() -> int:
    """Release every active quarantine; returns how many there were.

    Test-teardown helper so one leaked degraded run cannot cascade into
    failures of every later test.
    """
    leaked = active_quarantines()
    for q in leaked:
        q.release()
    return len(leaked)


class DiskQuarantine(Counters):
    """Permanent-fault bookkeeping for one disk array.

    Parameters
    ----------
    dead_after:
        Permanent faults a disk may suffer before it is declared dead.
        The default of 1 models the paper's hardware: one SCSI disk per
        node, and a permanent error means the disk is gone.
    """

    KEYS = ("spare_writes",)

    def __init__(self, dead_after: int = 1) -> None:
        if dead_after < 1:
            raise ValueError(f"dead_after must be >= 1, got {dead_after}")
        super().__init__()
        self.dead_after = dead_after
        self._permanent: dict[int, int] = {}
        self._dead: set[int] = set()
        self._released = False

    # -- fault accounting ----------------------------------------------

    def record_permanent(self, disk_id: int) -> bool:
        """Count one permanent fault; returns True if the disk just died."""
        with self._lock:
            n = self._permanent.get(disk_id, 0) + 1
            self._permanent[disk_id] = n
            if n >= self.dead_after and disk_id not in self._dead:
                self._dead.add(disk_id)
                self._register()
                return True
        return False

    def mark_dead(self, disk_id: int) -> None:
        """Declare a disk dead outright (tests, operator action)."""
        with self._lock:
            self._permanent[disk_id] = max(
                self._permanent.get(disk_id, 0), self.dead_after
            )
            if disk_id not in self._dead:
                self._dead.add(disk_id)
                self._register()

    def is_dead(self, disk_id: int) -> bool:
        with self._lock:
            return disk_id in self._dead

    def degraded_disks(self) -> list[int]:
        """Sorted ids of the disks currently declared dead."""
        with self._lock:
            return sorted(self._dead)

    # -- counters -------------------------------------------------------

    def record_spare_write(self) -> None:
        with self._lock:
            self.spare_writes += 1

    def _state(self) -> dict:
        return {
            "degraded_disks": sorted(self._dead),
            "permanent_faults": dict(self._permanent),
        }

    # -- lifecycle ------------------------------------------------------

    def _register(self) -> None:
        # Called with self._lock held; the global lock nests inside.
        if not self._released:
            with _active_lock:
                _active.add(self)

    def revive(self) -> list[int]:
        """Forget dead-disk state between supervised restart attempts.

        A supervised relaunch re-executes the failed pass against the
        same virtual disks; dead/permanent state inherited from the
        crashed attempt would make the fresh attempt fail fast on disks
        that (in the simulated world) came back with the new cohort —
        and would trip the leak check if the run then succeeded.
        Clears the dead set and permanent-fault counts and drops the
        quarantine from the global registry, but — unlike
        :meth:`release` — leaves it *armed*: a disk that dies again in
        the next attempt re-registers normally. ``spare_writes`` is
        kept: a run's count covers its wasted attempts too. Returns the
        disk ids that were dead.
        """
        with self._lock:
            revived = sorted(self._dead)
            self._dead.clear()
            self._permanent.clear()
        with _active_lock:
            _active.discard(self)
        return revived

    def release(self) -> None:
        """Retire this quarantine from the global leak-check registry.

        Idempotent. A test or benchmark that drove a disk dead must call
        this (directly or via ``OocResult.release_durability``) once it
        is done reading the degraded workspace.
        """
        with self._lock:
            self._released = True
        with _active_lock:
            _active.discard(self)
