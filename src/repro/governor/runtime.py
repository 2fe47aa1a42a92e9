"""Per-run governance: scratch accounting and the disk-full ladder.

One :class:`RunGovernor` is shared by all ranks of one pass program. It
knows the run's store graph (which stores each remaining pass still
reads or writes), so when a disk raises
:class:`~repro.errors.DiskFullError` mid-pass it can walk a degradation
ladder instead of aborting outright:

1. **reclaim** — delete *dead* scratch stores (stores no remaining pass
   touches, excluding the input, the output, and the previous pass's
   output — the live resume point) and, if that freed any bytes, let the
   disk retry the failed operation once;
2. **degrade** — with nothing left to reclaim, disable read-ahead for
   the remaining passes (effective pipeline depth 0 — fewer buffers in
   flight), then the error propagates with the failing disk named — the
   degraded mode bounds the *next* attempt, it does not rescue this one.

The governor also owns the run's adaptive **depth downshift**: when the
:class:`~repro.membuf.BufferPool` reports sustained budget backpressure
(allocation stalls since the last pass boundary), the effective pipeline
depth for subsequent passes is reduced one step at a time, trading
overlap for headroom. Correctness is unaffected — every pass program is
byte-identical at any depth — so the downshift needs no coordination
beyond the shared counter.

Everything the ladder and downshift do is counted and surfaced on
``OocResult.governor`` (see :attr:`RunGovernor.KEYS`).
"""

from __future__ import annotations

from repro.pipeline import SYNCHRONOUS, PipelinePlan
from repro.telemetry import Counters

#: Pool allocation stalls within one pass that trigger a depth downshift.
PRESSURE_STALLS = 2


class RunGovernor(Counters):
    """Scratch-space and pipeline-depth governance for one run.

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
    pool:
        Optional :class:`~repro.membuf.BufferPool` whose backpressure
        drives the depth downshift (the global pool by default).
    """

    KEYS = (
        "disk_full_events",
        "scratch_reclaims",
        "reclaimed_bytes",
        "depth_downshifts",
    )

    def __init__(self, stores: dict, specs: list, cancel=None, pool=None) -> None:
        super().__init__()
        self.stores = stores
        self.specs = list(specs)
        self.cancel = cancel
        self._pool = pool
        self._pass_index = 0  # 1-based index of the pass in flight
        self._reclaimed = False
        self.degraded = False
        self._depth_penalty = 0

    # -- pass-boundary bookkeeping ---------------------------------------

    def begin_pass(self, index: int) -> None:
        """Called by every rank as pass ``index`` (1-based) starts;
        idempotent — the highest index wins. Each new pass re-arms the
        reclaim stage (earlier passes may have died since) and samples
        pool pressure for the depth downshift."""
        with self._lock:
            if index > self._pass_index:
                self._pass_index = index
                self._reclaimed = False
                pool = self._effective_pool()
                if pool is not None and pool.consume_pressure() >= PRESSURE_STALLS:
                    self._depth_penalty += 1
                    self.depth_downshifts += 1

    def _effective_pool(self):
        if self._pool is not None:
            return self._pool
        from repro.membuf import get_pool

        return get_pool()

    def effective_plan(self, plan: PipelinePlan) -> PipelinePlan:
        """The plan a pass should actually run with: the job's plan,
        minus the accumulated downshift, forced to depth 0 once the run
        is degraded (read-ahead disabled)."""
        with self._lock:
            depth = 0 if self.degraded else max(0, plan.depth - self._depth_penalty)
        if depth == plan.depth:
            return plan
        if depth == 0 and plan.cancel is None:
            return SYNCHRONOUS
        return PipelinePlan(depth=depth, timeout=plan.timeout, cancel=plan.cancel)

    # -- the disk-full ladder --------------------------------------------

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
        """One rung of the ladder, called by a disk's retry loop when a
        write raises :class:`~repro.errors.DiskFullError`. Returns True
        when the disk should retry the operation (dead scratch was
        reclaimed), False when the error must propagate — after
        degrading the run so the remaining passes need less space."""
        with self._lock:
            self.disk_full_events += 1
            if not self._reclaimed:
                self._reclaimed = True
                freed = self._reclaim_locked()
                if freed > 0:
                    self.scratch_reclaims += 1
                    self.reclaimed_bytes += freed
                    return True
            # Degrade: the remaining passes run without read-ahead.
            self.degraded = True
            return False

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

    # -- observation -----------------------------------------------------

    def _state(self) -> dict:
        # The degradation flags, beside the counters in ``OocResult.governor``.
        return {"degraded": self.degraded, "depth_penalty": self._depth_penalty}


def attach_governor(disks: list, governor: "RunGovernor | None") -> None:
    """Install (or with None, clear) a run's governor and cancel token
    on every disk of the array."""
    for disk in disks:
        disk.scratch_governor = governor
        disk.cancel_token = governor.cancel if governor is not None else None
