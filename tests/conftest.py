"""Shared fixtures.

Functional out-of-core tests run at laptop scale (a few thousand
records) but exercise every code path of the full programs; the shapes
here are chosen so the interesting regimes all occur: multiple rounds
per pass, both ``√s ≥ P`` and ``√s < P`` for the subblock pass, and
matrices at the exact edge of each height restriction.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from contextlib import contextmanager

import numpy as np
import pytest

from repro.cluster.config import ClusterConfig
from repro.cluster.process_backend import SHM_PREFIX
from repro.membuf import get_pool
from repro.records.format import RecordFormat

_DEV_SHM = "/dev/shm"


def _orphaned_children(deadline_s: float = 2.0) -> list[str]:
    """Names of multiprocessing children still alive after a grace
    period. The process transport joins (and, on the failure path,
    terminates) every rank before ``run`` returns, so any survivor here
    is a leak — it would hold shared-memory segments open and shadow
    the next test's fabric."""
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        alive = multiprocessing.active_children()
        if not alive:
            return []
        time.sleep(0.02)
    return [p.name for p in multiprocessing.active_children()]


def _leaked_shm_segments() -> list[str]:
    """Transport shared-memory segments left in ``/dev/shm``. Segment
    names embed the creating rank's pid (``repro-shm-<pid>-<seq>``) and
    every rank process dies with its run, so anything carrying the
    prefix after teardown is an unreleased segment — kernel memory that
    would outlive the whole pytest process. This covers the persistent
    :class:`~repro.cluster.arena.ShmArena` slabs too (same prefix):
    recycled or not, every slab must be unlinked by rank teardown or
    the parent's crash sweep before the run returns."""
    try:
        entries = os.listdir(_DEV_SHM)
    except OSError:  # non-Linux: rely on the teardown paths' own checks
        return []
    return sorted(
        name for name in entries if name.startswith(f"{SHM_PREFIX}-")
    )


def _lingering_pipeline_threads(deadline_s: float = 2.0) -> list[str]:
    """Names of ``pipeline-*`` worker threads still alive after a grace
    period. Only the pipeline pools' own threads are checked: watchdog
    tests legitimately abandon timed-out daemon rank threads, but a
    read-ahead/write-behind worker outliving its pass means ``close``
    was skipped on some unwind path (e.g. a cancelled run)."""
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        alive = [
            t.name for t in threading.enumerate()
            if t.name.startswith("pipeline-")
        ]
        if not alive:
            return []
        time.sleep(0.02)
    return [
        t.name for t in threading.enumerate()
        if t.name.startswith("pipeline-")
    ]


def pytest_runtest_teardown(item, nextitem):
    """Buffer-pool and pipeline-thread leak checks after every test.

    Every lease taken from the global :class:`~repro.membuf.BufferPool`
    must be recycled (or forgotten by the crash path) by the time a
    test finishes; an outstanding lease here means a pass body dropped
    a buffer on the floor. Likewise every pipeline worker thread must
    have been joined. The pool's byte
    budget (process-wide state a governor test may have set) is cleared
    unconditionally. Plain hooks, not autouse fixtures — hypothesis
    rejects function-scoped fixtures around its tests.
    """
    pool = get_pool()
    leaked = pool.outstanding()
    if leaked:
        pool.forget_leases()  # don't cascade the failure into later tests
        pool.set_budget(None)
        pytest.fail(
            f"{item.nodeid} leaked {leaked} buffer-pool lease(s)",
            pytrace=False,
        )
    pool.set_budget(None)
    lingering = _lingering_pipeline_threads()
    if lingering:
        pytest.fail(
            f"{item.nodeid} leaked pipeline worker thread(s): {lingering}",
            pytrace=False,
        )
    orphans = _orphaned_children()
    if orphans:
        for child in multiprocessing.active_children():
            child.kill()  # don't let the leak shadow later tests
        pytest.fail(
            f"{item.nodeid} leaked child process(es): {orphans}",
            pytrace=False,
        )
    leaked_shm = _leaked_shm_segments()
    if leaked_shm:
        for name in leaked_shm:  # reap so later tests start clean
            try:
                os.unlink(os.path.join(_DEV_SHM, name))
            except OSError:
                pass
        pytest.fail(
            f"{item.nodeid} leaked shared-memory segment(s): {leaked_shm}",
            pytrace=False,
        )


@contextmanager
def alarm_timeout(seconds: int, message: str = "test deadlocked"):
    """Abort the enclosed block with ``TimeoutError`` after ``seconds``.

    SIGALRM-based (pytest-timeout is not a dependency): the signal
    interrupts the main thread even while it blocks joining SPMD worker
    threads, which is exactly the hang mode the deadlock-regression
    tests guard against. Unix-only, like the rest of the test matrix.
    """

    def _fire(signum, frame):
        raise TimeoutError(f"{message} (alarm after {seconds}s)")

    old_handler = signal.signal(signal.SIGALRM, _fire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old_handler)


@pytest.fixture
def hard_timeout():
    """The :func:`alarm_timeout` context manager, as a fixture."""
    return alarm_timeout


@pytest.fixture
def fmt() -> RecordFormat:
    """The workhorse: 64-byte records with u8 keys (the paper's
    smaller record size)."""
    return RecordFormat("u8", 64)


@pytest.fixture
def small_fmt() -> RecordFormat:
    """Compact records to keep heavy tests fast."""
    return RecordFormat("u8", 16)


@pytest.fixture(params=["u8", "i8", "f8"])
def any_key_fmt(request) -> RecordFormat:
    """Sweep the key dtypes that matter (unsigned, signed, float)."""
    return RecordFormat(request.param, 32)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture
def cluster4() -> ClusterConfig:
    return ClusterConfig(p=4, mem_per_proc=2**14)


def arm_fault(disk, op: str) -> None:
    """Make ``disk``'s next ``op`` (``"read"``, ``"write"`` or ``"any"``)
    fail permanently, once: :meth:`FaultPlan.arm_once` on the disk's own
    plan."""
    from repro.resilience import FaultPlan

    if disk.fault_plan is None:
        disk.fault_plan = FaultPlan()
    disk.fault_plan.arm_once(op)


def make_cluster(p: int, mem: int = 2**14) -> ClusterConfig:
    return ClusterConfig(p=p, mem_per_proc=mem)
