"""Seeded fault plans: the chaos layer's one source of injected failure.

A :class:`FaultPlan` decides, per operation, whether an injected fault
fires. Beyond the one-shot fault of :meth:`FaultPlan.arm_once` it goes
in three directions the chaos harness needs:

* **probabilistic faults** — each matching op fails with probability
  ``p``, drawn from a seeded PRNG so a soak run is exactly
  reproducible from its seed;
* **nth-op triggers** — deterministic "fail the 3rd write" plans, the
  precision tool for kill-and-resume tests;
* **transient vs. permanent modes** — a *transient* fault marks its
  exception with ``transient=True`` so a
  :class:`~repro.resilience.retry.RetryPolicy` may retry the op; a
  *permanent* fault is never retryable and must surface as a
  structured failure.

One plan may be shared by many disks and the communication fabric at
once (its counters are lock-protected); ``snapshot()`` reports how
often it fired so the chaos harness can assert the run actually saw
faults.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import signal
import threading
from dataclasses import dataclass

from repro.errors import (
    CommError,
    DiskError,
    DiskFullError,
    RankKilled,
    ResilienceError,
)

#: Operation kinds a fault spec may target. ``"any"`` matches every
#: disk op (read and write) but not comm.
FAULT_OPS = ("read", "write", "comm", "any")

#: Failure kinds a spec may inject. ``"fault"`` is a medium error
#: (:class:`~repro.errors.DiskError` / :class:`~repro.errors.CommError`);
#: ``"disk_full"`` is ENOSPC (:class:`~repro.errors.DiskFullError`),
#: only meaningful for write-side disk ops; ``"rank_kill"`` /
#: ``"rank_exit"`` kill the rank performing the op — SIGKILL or a bare
#: ``os._exit`` when the rank is a real forked process, a
#: :class:`~repro.errors.RankKilled` exception on the thread backend.
FAULT_KINDS = ("fault", "disk_full", "rank_kill", "rank_exit")

#: The kinds that kill the executing rank instead of failing the op.
KILL_KINDS = ("rank_kill", "rank_exit")

#: Exit status a ``rank_exit`` fault dies with — distinct from both a
#: clean exit and any signal, so the parent's dead-rank cause names it.
RANK_EXIT_CODE = 86


@dataclass(frozen=True)
class FaultSpec:
    """One fault rule inside a :class:`FaultPlan`.

    Parameters
    ----------
    op:
        Which operations the rule watches: ``"read"``, ``"write"``,
        ``"comm"``, or ``"any"`` (any *disk* op).
    probability:
        Chance each matching op fails, in ``[0, 1]``. Ignored when
        ``nth`` is set.
    nth:
        Fire deterministically on the nth matching op (1-based, counted
        per plan — per disk when ``disk`` is set), instead of
        probabilistically. With ``count=None`` the rule keeps firing on
        every later matching op too — "the medium fails at op n and
        stays failed", the disk-kill scenario.
    count:
        Maximum number of times this rule may fire (``None`` =
        unlimited). A permanent fault with ``count=None`` fails every
        matching op forever.
    transient:
        Transient faults mark their exception ``transient=True`` (a
        retry may succeed); permanent ones mark it ``False``.
    disk:
        Restrict the rule to one disk id (``None`` = any). The nth-op
        counter for a disk-targeted rule counts only that disk's ops,
        so "kill disk 2 at its 5th read" is exact regardless of what
        the other disks do.
    kind:
        ``"fault"`` (default) injects a medium error; ``"disk_full"``
        injects :class:`~repro.errors.DiskFullError` — the disk ran out
        of space at exactly this op, which fails the run naming the
        disk (ENOSPC is never retried). ``disk_full``
        rules must target write-side ops (``"write"`` or ``"any"``):
        reads never allocate space. ``"rank_kill"`` / ``"rank_exit"``
        kill the *rank* performing the op: a real forked rank dies on
        the spot (SIGKILL, or ``os._exit(RANK_EXIT_CODE)`` for
        ``rank_exit``) so the parent must detect the silent death; a
        thread-backend rank raises :class:`~repro.errors.RankKilled`
        instead. Kill rules require a finite ``count`` and claim their
        fires through a fork-shared counter, so exactly ``count`` ranks
        of the whole cohort die — and a supervised restart of the same
        plan does not re-fire a spent kill.
    """

    op: str = "any"
    probability: float = 1.0
    nth: int | None = None
    count: int | None = 1
    transient: bool = True
    disk: int | None = None
    kind: str = "fault"

    def __post_init__(self) -> None:
        if self.op not in FAULT_OPS:
            raise ResilienceError(f"unknown fault op {self.op!r}")
        if self.kind not in FAULT_KINDS:
            raise ResilienceError(f"unknown fault kind {self.kind!r}")
        if self.kind == "disk_full" and self.op not in ("write", "any"):
            raise ResilienceError(
                f"disk_full faults only fire on write-side ops, not {self.op!r}"
            )
        if self.kind in KILL_KINDS and self.count is None:
            raise ResilienceError(
                "rank-kill faults need a finite count — an unlimited kill "
                "rule would kill every restarted cohort forever"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ResilienceError(
                f"fault probability must be in [0, 1], got {self.probability}"
            )
        if self.nth is not None and self.nth < 1:
            raise ResilienceError(f"nth-op trigger must be >= 1, got {self.nth}")
        if self.count is not None and self.count < 1:
            raise ResilienceError(f"fault count must be >= 1, got {self.count}")
        if self.disk is not None and self.disk < 0:
            raise ResilienceError(f"fault disk id must be >= 0, got {self.disk}")

    def matches(self, op: str) -> bool:
        if self.op == op:
            return True
        return self.op == "any" and op in ("read", "write")


class FaultPlan:
    """A seeded, thread-safe schedule of injected faults.

    Attach one to a :class:`~repro.disks.virtual_disk.VirtualDisk`
    (``disk.fault_plan``) and/or a
    :class:`~repro.cluster.mailbox.MailboxRouter` (``router.fault_plan``);
    both call :meth:`check` at the top of every operation, before any
    state changes, so a retried op is indistinguishable from a fresh one.
    """

    def __init__(self, specs: tuple | list = (), seed: int = 0) -> None:
        self.seed = seed
        self._specs: list[FaultSpec] = list(specs)
        self._fired: dict[int, int] = {}
        self._ops: dict[str, int] = {}
        self._ops_by_disk: dict[tuple[str, int], int] = {}
        self._faults: dict[str, int] = {}
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        # Kill rules claim fires through fork-shared cells: a plan is
        # fork-copied into every rank of the process backend, so a
        # plain dict counter would (a) let every rank kill itself on
        # its own nth op and (b) die with the killed child, re-arming
        # the rule on every supervised restart. An anonymous
        # multiprocessing.Value is inherited over fork, written
        # atomically under its own lock, and survives any child's
        # SIGKILL — the parent sees the spent counter.
        self._kill_cells: dict[int, object] = {}
        self._register_kill_cells()

    def _register_kill_cells(self) -> None:
        ctx = multiprocessing.get_context("fork")
        for i, spec in enumerate(self._specs):
            if spec.kind in KILL_KINDS and i not in self._kill_cells:
                self._kill_cells[i] = ctx.Value("i", 0)

    @property
    def specs(self) -> tuple[FaultSpec, ...]:
        """The plan's rules, as an immutable snapshot."""
        with self._lock:
            return tuple(self._specs)

    def add(self, spec: FaultSpec) -> None:
        """Append one more rule to the plan."""
        with self._lock:
            self._specs.append(spec)
            self._register_kill_cells()

    def arm_once(self, op: str) -> None:
        """The next matching op fails, permanently (not retryable),
        exactly once."""
        self.add(FaultSpec(op=op, probability=1.0, count=1, transient=False))

    def _error(self, op: str, spec: FaultSpec, where: str):
        mode = "transient" if spec.transient else "permanent"
        if spec.kind == "disk_full":
            exc: Exception = DiskFullError(f"injected disk-full {where}")
        elif op == "comm":
            exc = CommError(f"injected {mode} comm fault {where}")
        else:
            exc = DiskError(f"injected {op} fault {where} ({mode})")
        exc.transient = spec.transient
        return exc

    def _kill(self, spec: FaultSpec, where: str):
        """Kill the executing rank. Never returns normally."""
        if multiprocessing.parent_process() is not None:
            # A real forked rank: die for real, no unwind, no goodbye
            # message — the parent must detect the silent death.
            if spec.kind == "rank_exit":
                os._exit(RANK_EXIT_CODE)
            os.kill(os.getpid(), signal.SIGKILL)
        # Thread-backend ranks share the test runner's address space;
        # the closest analogue of losing the rank is a structured,
        # never-retryable exception.
        raise RankKilled(f"injected {spec.kind} {where}")

    def check(self, op: str, where: str = "", disk_id: int | None = None) -> None:
        """Raise an injected fault if a rule fires for this op.

        Disk ops raise :class:`~repro.errors.DiskError`, comm ops
        :class:`~repro.errors.CommError`; either way the exception
        carries ``transient`` so a retry policy can classify it. Called
        before the op has any side effect, so retrying after a
        transient fault is always safe. ``disk_id`` identifies the
        disk performing the op (``None`` for comm) so disk-targeted
        rules can match.
        """
        with self._lock:
            n = self._ops.get(op, 0) + 1
            self._ops[op] = n
            if disk_id is not None:
                key = (op, disk_id)
                n_disk = self._ops_by_disk.get(key, 0) + 1
                self._ops_by_disk[key] = n_disk
            else:
                n_disk = 0
            for i, spec in enumerate(self._specs):
                if not spec.matches(op):
                    continue
                if spec.kind == "disk_full" and op != "write":
                    continue  # reads never allocate space
                if spec.disk is not None and spec.disk != disk_id:
                    continue
                if spec.kind in KILL_KINDS:
                    cell = self._kill_cells[i]
                    with cell.get_lock():
                        if cell.value >= spec.count:
                            continue
                        if spec.nth is not None:
                            seen = n_disk if spec.disk is not None else n
                            # >= rather than ==: the first rank past the
                            # threshold claims the kill, whatever its
                            # exact local count (each forked rank counts
                            # its own ops).
                            hit = seen >= spec.nth
                        else:
                            hit = self._rng.random() < spec.probability
                        if not hit:
                            continue
                        cell.value += 1
                    self._faults[op] = self._faults.get(op, 0) + 1
                    self._kill(spec, where)
                fired = self._fired.get(i, 0)
                if spec.count is not None and fired >= spec.count:
                    continue
                if spec.nth is not None:
                    seen = n_disk if spec.disk is not None else n
                    # An unlimited-count nth rule models a medium that
                    # dies at op n and never answers again.
                    hit = seen == spec.nth if spec.count is not None else seen >= spec.nth
                else:
                    hit = self._rng.random() < spec.probability
                if hit:
                    self._fired[i] = fired + 1
                    self._faults[op] = self._faults.get(op, 0) + 1
                    raise self._error(op, spec, where)

    def snapshot(self) -> dict:
        """Ops seen and faults fired, per op kind. ``rank_kills`` is
        read from the fork-shared cells, so the parent sees kills that
        fired inside (and died with) a forked rank."""
        with self._lock:
            kills = sum(cell.value for cell in self._kill_cells.values())
            return {
                "ops": dict(self._ops),
                "faults": dict(self._faults),
                "fired_total": sum(self._fired.values()) + kills,
                "rank_kills": kills,
            }
