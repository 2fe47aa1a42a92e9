"""Pluggable SPMD transports.

A :class:`Transport` turns ``P`` copies of a rank program into one
:class:`~repro.cluster.spmd.SpmdResult`: it spawns the ranks, wires each
one's :class:`~repro.cluster.comm.Comm` to a message fabric, keeps the
watchdog's activity stamps flowing, threads the resilience hooks (fault
plan, retry policy, cancel token) through the fabric, and aggregates
per-rank failures with one shared severity ranking. Everything above
this interface — the pass programs in :mod:`repro.oocs`, the governor's
cancellation unwinding, the byte-exact ``CommStats`` / ``IoStats`` /
``CopyStats`` accounting — is backend-agnostic by construction, which
the transport conformance suite (``tests/test_transport_conformance.py``)
pins down.

Two implementations ship:

* ``"thread"`` (:class:`ThreadTransport`, here) — one daemon thread per
  rank over a shared :class:`~repro.cluster.mailbox.MailboxRouter`.
  NumPy kernels release the GIL, so sorts overlap, but Python-level
  record packing serializes.
* ``"process"`` (:class:`~repro.cluster.process_backend.ProcessTransport`,
  imported lazily) — one forked OS process per rank with
  ``multiprocessing.shared_memory`` segments backing the packed
  ``alltoallv``, so rank-local compute escapes the GIL entirely.
"""

from __future__ import annotations

import threading
import time
from abc import ABC, abstractmethod
from typing import Callable, Sequence

from repro.cluster.comm import Comm
from repro.cluster.mailbox import DEFAULT_TIMEOUT, MailboxRouter
from repro.cluster.stats import CommStats
from repro.errors import Cancellation, CommError, ConfigError, WatchdogTimeout


def is_collateral(exc: BaseException) -> bool:
    """True for the CommError a rank gets because the world was already
    shutting down around it — noise, not the root cause."""
    return isinstance(exc, CommError) and "shut down" in str(exc)


def failure_severity(exc: BaseException) -> int:
    """Rank a failure for primary-cause selection.

    A CommError("shut down") on another rank is collateral damage of
    the primary failure; prefer reporting a non-collateral cause, a
    genuine rank failure over a requested cancellation (the bug
    outranks the stop that raced it), and either over the watchdog's
    verdict. Used identically by every transport so the reported cause
    never depends on the backend.
    """
    if isinstance(exc, Cancellation):
        return 1
    if isinstance(exc, WatchdogTimeout):
        return 2
    if is_collateral(exc):
        return 3
    return 0


def raise_primary_failure(failures: list[tuple[int, BaseException]]):
    """Raise the most blameworthy failure of a run (see
    :func:`failure_severity`; within a class, the lowest rank wins).
    A :class:`~repro.errors.Cancellation` is re-raised *unwrapped* —
    the caller asked for the stop and should catch the structured
    cause directly, not a rank-failure wrapper."""
    from repro.errors import SpmdError

    ranked = sorted(failures, key=lambda f: (failure_severity(f[1]), f[0]))
    rank, cause = ranked[0]
    if isinstance(cause, Cancellation):
        raise cause
    raise SpmdError(rank, cause) from cause


class Transport(ABC):
    """One way of running ``P`` ranks of an SPMD program.

    The ``run`` contract (shared by every backend, enforced by the
    conformance suite):

    * ``program(comm, *args, *rank_args[p], **kwargs)`` runs once per
      rank with an MPI-shaped :class:`~repro.cluster.comm.Comm`;
    * per-rank return values and :class:`CommStats` come back in rank
      order; stats meter sends identically on every backend;
    * a failing rank shuts the world down (unblocking receivers) and
      the primary cause propagates per :func:`failure_severity`;
    * ``fault_plan`` / ``retry_policy`` instrument the fabric's send
      side; retries surface as ``SpmdResult.comm_retries``;
    * ``cancel`` makes every blocked send/receive a cancellation point;
    * ``watchdog_deadline`` converts universal rank silence into a
      structured :class:`~repro.errors.WatchdogTimeout`;
    * ``disks`` (the run's :class:`~repro.disks.virtual_disk.VirtualDisk`
      list) lets a non-shared-memory backend merge per-rank I/O counter
      deltas back into the caller's stats objects and
      :meth:`~repro.disks.virtual_disk.VirtualDisk.refresh` the caller's
      sizes and checksum catalogs once the cohort has exited — the
      thread backend ignores it because the objects are already shared;
    * **idempotent teardown** — before ``run`` raises, the cohort is
      fully torn down (ranks joined or abandoned-as-daemons, fabric
      drained and closed, crash-swept segments unlinked), leaving no
      state that would poison an immediate re-``run`` on the same
      transport. This is what lets a
      :class:`~repro.resilience.supervisor.RunSupervisor` relaunch a
      crashed run inside the same call, on either backend: the one
      supervised caller is :func:`~repro.oocs.base.run_pass_program`.
    """

    #: Registry key (``"thread"`` / ``"process"``).
    name: str = ""

    @abstractmethod
    def run(
        self,
        size: int,
        program: Callable,
        *args,
        rank_args: Sequence[tuple] | None = None,
        timeout: float = DEFAULT_TIMEOUT,
        watchdog_deadline: float | None = None,
        fault_plan=None,
        retry_policy=None,
        cancel=None,
        disks=None,
        **kwargs,
    ):
        """Run the program; returns :class:`~repro.cluster.spmd.SpmdResult`."""


class ThreadTransport(Transport):
    """One daemon thread per rank over a shared mailbox fabric."""

    name = "thread"

    def run(
        self,
        size: int,
        program: Callable,
        *args,
        rank_args: Sequence[tuple] | None = None,
        timeout: float = DEFAULT_TIMEOUT,
        watchdog_deadline: float | None = None,
        fault_plan=None,
        retry_policy=None,
        cancel=None,
        disks=None,
        **kwargs,
    ):
        from repro.cluster.spmd import SpmdResult

        router = MailboxRouter(timeout=timeout)
        router.fault_plan = fault_plan
        router.retry_policy = retry_policy
        router.cancel_token = cancel
        stats = [CommStats(rank=p) for p in range(size)]
        comms = [Comm(p, size, router, stats[p]) for p in range(size)]
        returns: list = [None] * size
        failures: list[tuple[int, BaseException]] = []
        failure_lock = threading.Lock()

        watchdog = None
        if watchdog_deadline is not None:
            from repro.resilience.watchdog import RankWatchdog

            watchdog = RankWatchdog(router, watchdog_deadline)
        for p in range(size):
            router.touch(p)  # baseline stamp: a rank that never speaks is stuck

        def runner(p: int) -> None:
            extra = rank_args[p] if rank_args is not None else ()
            try:
                returns[p] = program(comms[p], *args, *extra, **kwargs)
            except BaseException as exc:  # noqa: BLE001 — must cross threads
                with failure_lock:
                    failures.append((p, exc))
                router.close()  # unblock ranks waiting in receives
            finally:
                if watchdog is not None:
                    watchdog.rank_done(p)

        if watchdog is not None:
            watchdog.start()
        if size == 1:
            # Degenerate world: run inline for easier debugging. (The
            # watchdog still works — closing the router unblocks a stuck
            # receive on the calling thread.)
            runner(0)
        else:
            threads = [
                threading.Thread(
                    target=runner, args=(p,), name=f"spmd-rank-{p}", daemon=True
                )
                for p in range(size)
            ]
            for t in threads:
                t.start()
            if watchdog is None:
                for t in threads:
                    t.join()
            else:
                for t in threads:
                    while t.is_alive() and not watchdog.fired.is_set():
                        t.join(timeout=0.25)
                    if watchdog.fired.is_set():
                        break
                if watchdog.fired.is_set():
                    # The router is closed; give ranks a moment to fail out
                    # of their receives, then abandon any thread still wedged
                    # (daemons — they cannot pin the process).
                    grace_until = time.monotonic() + 2.0
                    for t in threads:
                        t.join(timeout=max(0.0, grace_until - time.monotonic()))
        if watchdog is not None:
            watchdog.stop()
            if watchdog.error is not None:
                with failure_lock:
                    failures.append((watchdog.error.rank, watchdog.error))

        if failures:
            raise_primary_failure(failures)
        return SpmdResult(
            returns=returns, stats=stats, comm_retries=router.comm_retries
        )


def available_backends() -> tuple[str, ...]:
    """Names accepted by :func:`get_transport` (and every ``backend=``
    knob built on it)."""
    return ("thread", "process")


def get_transport(name: str) -> Transport:
    """Resolve a backend name to a transport instance.

    The process backend is imported lazily so that merely loading the
    cluster package never touches :mod:`multiprocessing`.
    """
    if name == "thread":
        return ThreadTransport()
    if name == "process":
        from repro.cluster.process_backend import ProcessTransport

        return ProcessTransport()
    raise ConfigError(
        f"unknown transport backend {name!r}; expected one of "
        f"{available_backends()}"
    )
