"""Per-run governance: scratch accounting and the disk-full reclaim.

One :class:`RunGovernor` is shared by all ranks of one pass program. It
knows the run's store graph (which stores each remaining pass still
reads or writes), so when a disk raises
:class:`~repro.errors.DiskFullError` mid-pass it can reclaim before the
run fails: it deletes *dead* scratch stores (stores no remaining pass
touches, excluding the input, the output, and the previous pass's
output — the live resume point) and, if that freed any bytes, lets the
disk retry the failed operation once. With nothing left to reclaim the
error propagates with the failing disk named.

What the reclaim does is counted and surfaced on ``OocResult.governor``
(see :attr:`RunGovernor.KEYS`). A run's memory is not governed here: it
is the reservation the run makes before any rank starts
(:meth:`~repro.membuf.BufferPool.reserve`), and every pass runs at the
job's pipeline depth.
"""

from __future__ import annotations

from repro.telemetry import Counters


class RunGovernor(Counters):
    """Scratch-space governance for one run.

    Parameters
    ----------
    stores:
        The run's store dict (``{"input": ..., "t1": ..., "output": ...}``).
    specs:
        The run's ordered :class:`~repro.oocs.base.PassSpec` list; the
        ``src``/``dst`` keys define which stores are live at each pass.
    cancel:
        Optional :class:`~repro.governor.CancelToken` observed by the
        run (carried here so disks and pools can reach it).
    """

    KEYS = ("disk_full_events", "scratch_reclaims", "reclaimed_bytes")

    def __init__(self, stores: dict, specs: list, cancel=None) -> None:
        super().__init__()
        self.stores = stores
        self.specs = list(specs)
        self.cancel = cancel
        self._pass_index = 0  # 1-based index of the pass in flight
        self._reclaimed = False

    # -- pass-boundary bookkeeping ---------------------------------------

    def begin_pass(self, index: int) -> None:
        """Called by every rank as pass ``index`` (1-based) starts;
        idempotent — the highest index wins. Each new pass re-arms the
        reclaim (earlier passes may have died since)."""
        with self._lock:
            if index > self._pass_index:
                self._pass_index = index
                self._reclaimed = False

    # -- disk full: reclaim dead scratch ----------------------------------

    def _dead_store_keys(self) -> list[str]:
        """Store keys no remaining pass touches (and that are not the
        input, the output, or the previous pass's output — the store a
        checkpoint resume would restart from)."""
        live = {"input", "output"}
        idx = self._pass_index
        for spec in self.specs[max(0, idx - 1):]:
            live.add(spec.src)
            live.add(spec.dst)
        if idx >= 2:
            live.add(self.specs[idx - 2].dst)  # resume point
        return [key for key in self.stores if key not in live]

    def handle_disk_full(self, disk) -> bool:
        """Called by a disk's retry loop when a write raises
        :class:`~repro.errors.DiskFullError`. Returns True when the disk
        should retry the operation (dead scratch was reclaimed), False
        when the error must propagate."""
        with self._lock:
            self.disk_full_events += 1
            if self._reclaimed:
                return False
            self._reclaimed = True
            freed = self._reclaim_locked()
            if freed <= 0:
                return False
            self.scratch_reclaims += 1
            self.reclaimed_bytes += freed
            return True

    def _reclaim_locked(self) -> int:
        """Delete every dead scratch store; returns the bytes freed
        across the whole disk array."""
        disks = self.stores["input"].disks
        before = sum(d.used_bytes() for d in disks)
        for key in self._dead_store_keys():
            try:
                self.stores[key].delete()
            except Exception:
                pass  # reclaim is best-effort; the retry will re-check
        return before - sum(d.used_bytes() for d in disks)


def attach_governor(disks: list, governor: "RunGovernor | None") -> None:
    """Install (or with None, clear) a run's governor and cancel token
    on every disk of the array."""
    for disk in disks:
        disk.scratch_governor = governor
        disk.cancel_token = governor.cancel if governor is not None else None
