"""Simulated power-loss crash-consistency harness (DESIGN §14).

``kill -9`` can never lose fsynced data, reorder buffered writes, or
tear a sector — the page cache belongs to the kernel and survives the
process. Real power loss can do all three, and the durability claims
of the journal, checkpoint, and block-checksum planes are only
credible if recovery is exercised against the *full space of legal
post-crash disk states*, not just process death.

This package provides that harness in four layers:

* :mod:`repro.crashsim.interpose` — a recorder that interposes on every
  durability-critical filesystem operation (``open``/``write``/
  ``truncate``, ``os.replace``/``rename``/``unlink``/``mkdir``/
  ``rmdir``, ``os.fsync`` on files and directory handles) while a real
  workload runs, producing an inode-accurate operation log plus a
  snapshot of the pre-workload tree;
* :mod:`repro.crashsim.oplog` — the op and snapshot datatypes and the
  durability scan (which ops an ``fsync`` barrier has made durable at
  each instant);
* :mod:`repro.crashsim.cache` — the simulated page-cache model: a
  crash-state enumerator generating legal post-crash materializations
  (dropped unfsynced writes, reordered writes between barriers, torn
  sector-prefix writes, renames without the parent-directory fsync),
  a POSIX-legality checker the hypothesis suite leans on, and the
  materializer that writes any crash state to a scratch root;
* :mod:`repro.crashsim.invariants` / :mod:`repro.crashsim.harness` —
  checkers that run the *real* recovery paths
  (:meth:`~repro.service.journal.JobJournal.repair` + replay,
  :class:`~repro.resilience.checkpoint.CheckpointStore` resume,
  verified disk reads, daemon ``_recover``) against each materialized state and assert the repo's
  claims: no acknowledged job lost or duplicated, no torn or stale
  manifest accepted as a resume point, recovered output byte-identical
  to an uncrashed run.
"""

from __future__ import annotations

from repro.crashsim.cache import (
    CrashState,
    enumerate_crash_states,
    is_legal_state,
    materialize,
)
from repro.crashsim.interpose import Recorder, trace
from repro.crashsim.oplog import Op, Snapshot, durable_at, pending_at
from repro.crashsim.harness import run_sweep

__all__ = [
    "CrashState",
    "Op",
    "Recorder",
    "Snapshot",
    "durable_at",
    "enumerate_crash_states",
    "is_legal_state",
    "materialize",
    "pending_at",
    "run_sweep",
    "trace",
]
