"""Fault tolerance for out-of-core runs: retries, checkpoints, watchdog.

The layer has five pieces, each usable alone:

* :class:`~repro.resilience.faults.FaultPlan` — seeded fault injection
  (probabilistic, nth-op, transient vs. permanent, optionally
  disk-targeted, up to killing the executing rank outright) shared by
  the disks and the communication fabric;
* :class:`~repro.resilience.retry.RetryPolicy` — bounded retry with
  deterministic backoff, wrapped around disk and mailbox operations;
* :class:`~repro.resilience.checkpoint.CheckpointStore` — pass-boundary
  manifests that let a killed multi-pass sort resume byte-identically;
* :class:`~repro.resilience.watchdog.RankWatchdog` — converts a hung
  rank into a prompt, structured :class:`~repro.errors.SpmdError`;
* :class:`~repro.resilience.supervisor.RunSupervisor` — the in-run
  restart loop above all of the above: when a rank dies or a cohort
  failure escapes the per-op retries, classify it against a
  :class:`~repro.resilience.supervisor.RestartPolicy` and relaunch
  from the last pass-boundary checkpoint within the same call.
"""

from repro.resilience.checkpoint import (
    MANIFEST_VERSION,
    CheckpointStore,
    corrupt_blocks,
    pass_manifest,
    store_digest,
)
from repro.resilience.faults import (
    FAULT_KINDS,
    FAULT_OPS,
    KILL_KINDS,
    RANK_EXIT_CODE,
    FaultPlan,
    FaultSpec,
)
from repro.resilience.retry import RetryPolicy
from repro.resilience.supervisor import (
    RestartPolicy,
    RunSupervisor,
    SupervisorStats,
)
from repro.resilience.watchdog import RankWatchdog

__all__ = [
    "FAULT_KINDS",
    "FAULT_OPS",
    "KILL_KINDS",
    "MANIFEST_VERSION",
    "RANK_EXIT_CODE",
    "CheckpointStore",
    "FaultPlan",
    "FaultSpec",
    "RankWatchdog",
    "RestartPolicy",
    "RetryPolicy",
    "RunSupervisor",
    "SupervisorStats",
    "corrupt_blocks",
    "pass_manifest",
    "store_digest",
]
