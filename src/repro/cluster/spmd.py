"""SPMD launcher: run ``P`` ranks of a program on a pluggable transport.

Rank programs have the signature ``program(comm, *args, **kwargs)`` and
are written exactly like MPI programs (the paper's are C + MPI). The
``backend`` argument selects the substrate through the
:class:`~repro.cluster.transport.Transport` registry:

* ``"thread"`` (default) — one daemon thread per rank. The heavy
  per-rank work is NumPy sorting and copying, which releases the GIL,
  so ranks genuinely overlap — the same overlap structure the paper
  gets from pthreads.
* ``"process"`` — one forked OS process per rank with shared-memory
  collectives, so rank-local Python-level compute escapes the GIL too.

If any rank raises, the world is shut down (unblocking ranks stuck in
receives) and an :class:`~repro.errors.SpmdError` carrying the first
failing rank propagates to the caller — ranked by the same severity
order on every backend (see
:func:`~repro.cluster.transport.failure_severity`).

With ``watchdog_deadline=`` set, a
:class:`~repro.resilience.watchdog.RankWatchdog` additionally converts
a *hung* world (every rank silent past the deadline) into the same
structured ``SpmdError``, whose cause is a
:class:`~repro.errors.WatchdogTimeout` naming the stuck rank.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.cluster.mailbox import DEFAULT_TIMEOUT
from repro.cluster.stats import CommStats
from repro.errors import ConfigError


@dataclass
class SpmdResult:
    """Results of one SPMD run: per-rank return values and comm stats."""

    returns: list
    stats: list[CommStats]
    comm_retries: int = field(default=0)


def run_spmd(
    size: int,
    program: Callable,
    *args,
    rank_args: Sequence[tuple] | None = None,
    timeout: float = DEFAULT_TIMEOUT,
    watchdog_deadline: float | None = None,
    fault_plan=None,
    retry_policy=None,
    cancel=None,
    backend: str = "thread",
    disks=None,
    **kwargs,
) -> SpmdResult:
    """Run ``program(comm, *args, **kwargs)`` on ``size`` ranks.

    Parameters
    ----------
    size:
        Number of ranks (the cluster's ``P``).
    program:
        The rank program; its first argument is the rank's
        :class:`~repro.cluster.comm.Comm`.
    rank_args:
        Optional per-rank extra positional arguments: rank ``p`` runs
        ``program(comm, *args, *rank_args[p], **kwargs)``.
    timeout:
        Deadlock timeout for blocked receives, in seconds.
    watchdog_deadline:
        If set, seconds of universal rank silence after which a
        :class:`~repro.resilience.watchdog.RankWatchdog` aborts the run
        with a :class:`~repro.errors.WatchdogTimeout` cause.
    fault_plan:
        Optional :class:`~repro.resilience.faults.FaultPlan` injecting
        comm faults at the fabric's send side.
    retry_policy:
        Optional :class:`~repro.resilience.retry.RetryPolicy` retrying
        transient comm faults; retry counts surface as
        ``SpmdResult.comm_retries``.
    cancel:
        Optional :class:`~repro.governor.CancelToken` attached to the
        fabric, so every blocked send/receive is a cancellation
        point. A run whose primary failure is a
        :class:`~repro.errors.Cancellation` re-raises it *unwrapped*
        (not inside :class:`~repro.errors.SpmdError`): the caller asked
        for the stop and should catch the structured cause directly.
    backend:
        Transport to run on: ``"thread"`` (default) or ``"process"``
        (see :func:`~repro.cluster.transport.get_transport`).
    disks:
        The run's :class:`~repro.disks.virtual_disk.VirtualDisk` list.
        Only needed by non-shared-memory backends, which use it to
        merge the ranks' per-disk I/O counter deltas back into these
        (the caller's) stats objects after the join and to refresh
        their sizes and checksum catalogs from what the ranks left on
        disk.

    Returns
    -------
    SpmdResult
        ``returns[p]`` is rank ``p``'s return value; ``stats[p]`` its
        communication counters.
    """
    from repro.cluster.transport import get_transport

    if size < 1:
        raise ConfigError(f"SPMD world needs at least 1 rank, got {size}")
    if rank_args is not None and len(rank_args) != size:
        raise ConfigError(
            f"rank_args must have one entry per rank ({size}), got {len(rank_args)}"
        )
    return get_transport(backend).run(
        size,
        program,
        *args,
        rank_args=rank_args,
        timeout=timeout,
        watchdog_deadline=watchdog_deadline,
        fault_plan=fault_plan,
        retry_policy=retry_policy,
        cancel=cancel,
        disks=disks,
        **kwargs,
    )
