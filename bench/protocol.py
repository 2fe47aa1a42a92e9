"""The measurement protocol for one workload in one fresh process.

Closed loop, one job at a time: set-up -> one discarded warm-up pair ->
timed reps of ``run_baseline_io``, ``sort_out_of_core``, ``run_baseline_io``,
each in a fresh workdir created and deleted outside the timer -> after every
sort rep, outside the timer, ``verify_output`` and the paper's I/O
identity -> hygiene checks -> ``ru_maxrss`` -> (traced run and layer
probes when tracing).

Uses only the public surface ROADMAP's refactors keep:
``sort_out_of_core``, ``run_baseline_io``, ``generate``, ``RecordFormat``,
``ClusterConfig``, ``verify_output`` and the ``OocResult`` fields
``io`` / ``comm_total`` / ``copy`` / ``stage_wall()``.
"""

from __future__ import annotations

import os
import resource
import shutil
import statistics
import tempfile
import threading
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

from repro import (
    ClusterConfig,
    RecordFormat,
    generate,
    sort_out_of_core,
    verify_output,
)
from repro.membuf import get_pool
from repro.oocs.api import run_baseline_io

from bench.trace import Tracer
from bench.workloads import KEY_DTYPE, P, RECORD_SIZE, Workload

GENERATE_CALLS = 5
SHM_DIR = Path("/dev/shm")
#: what the process backend names its segments; spelled out here so the
#: hygiene check does not hang on an internal symbol of the layer it audits
SHM_PREFIX = "repro-shm"
STAGES = ("read_wait", "compute", "comm", "incore", "write_wait")


class CheckFailed(Exception):
    """A rep's output or I/O identity was wrong."""


@dataclass
class Session:
    """What one process measured for one workload."""

    workload: Workload
    seed: int
    records: object = None
    fmt: object = None
    cluster: object = None
    scratch_base: Path | None = None
    scratch: Path | None = None
    generate_s: list[float] = field(default_factory=list)
    scratch_s: float = 0.0
    warmup_s: float = 0.0
    sort_s: list[float] = field(default_factory=list)
    baseline_s: list[float] = field(default_factory=list)
    verify_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    rss_self_mb: float = 0.0
    rss_children_mb: float = 0.0
    hygiene: list[str] = field(default_factory=list)


def shm_segments() -> set[str]:
    if not SHM_DIR.is_dir():
        return set()
    return {e for e in os.listdir(SHM_DIR) if e.startswith(SHM_PREFIX)}


def fs_free(path: Path) -> int:
    stat = os.statvfs(path)
    return stat.f_bavail * stat.f_frsize


def choose_scratch(need: int, fallback: Path) -> Path:
    """tmpfs when it is there, writable and roomy; else ``fallback``
    (inside the checkout). On the checkout's ext4 every sidecar rename
    starts real write-back (auto_da_alloc), so medians follow the
    host's disk: 10-60 % between runs, against 1-7 % on tmpfs."""
    if (
        SHM_DIR.is_dir()
        and os.access(SHM_DIR, os.W_OK | os.X_OK)
        and fs_free(SHM_DIR) >= need
    ):
        return SHM_DIR / "oocs-bench"
    return fallback


def setup(
    session: Session, scratch_base: Path | None, fallback: Path, tracer: Tracer
) -> None:
    """Generate the inputs (median of 5 calls; the last array is the
    input), create the scratch root, and preflight its free space."""
    wl = session.workload
    session.fmt = RecordFormat(KEY_DTYPE, RECORD_SIZE)
    session.cluster = ClusterConfig(p=P, mem_per_proc=wl.mem_per_proc)
    for _ in range(GENERATE_CALLS):
        with tracer.span("setup.generate"):
            t0 = time.perf_counter()
            session.records = generate(
                wl.keys, session.fmt, wl.n, seed=session.seed
            )
            session.generate_s.append(time.perf_counter() - t0)
    # A sort holds input + two intermediates + output at once; the
    # baseline and sidecars fit in the slack.
    need = 6 * wl.n * RECORD_SIZE
    with tracer.span("setup.scratch"):
        t0 = time.perf_counter()
        if scratch_base is None:
            scratch_base = choose_scratch(need, fallback)
        scratch_base.mkdir(parents=True, exist_ok=True)
        session.scratch_base = scratch_base
        session.scratch = Path(
            tempfile.mkdtemp(prefix=f"{wl.name}-", dir=scratch_base)
        )
        session.scratch_s = time.perf_counter() - t0
    free = fs_free(session.scratch)
    if free < need:
        teardown(session)
        raise SystemExit(
            f"scratch {scratch_base} has {free >> 20} MiB free, "
            f"{wl.name} needs {need >> 20} MiB"
        )


def teardown(session: Session) -> None:
    """Remove the scratch root, and its base when nothing else is in it."""
    shutil.rmtree(session.scratch, ignore_errors=True)
    try:
        session.scratch_base.rmdir()
    except OSError:
        pass  # another run's scratch lives there too


def run_baseline(session: Session, workdir: Path):
    wl = session.workload
    return run_baseline_io(
        session.records, session.cluster, session.fmt,
        wl.baseline_buffer_records, passes=wl.passes, workdir=workdir,
        pipeline_depth=wl.depth, collect_trace=False, backend=wl.backend,
    )


def run_sort(session: Session, workdir: Path, collect_trace: bool = False):
    wl = session.workload
    return sort_out_of_core(
        wl.algorithm, session.records, session.cluster, session.fmt,
        wl.buffer_records, workdir=workdir, verify=False,
        collect_trace=collect_trace, pipeline_depth=wl.depth,
        backend=wl.backend,
    )


def check_io_identity(wl: Workload, result) -> None:
    """bytes_read == bytes_written == passes x N x record_size."""
    io = result.io
    if not (
        result.passes == wl.passes
        and io["bytes_read"] == io["bytes_written"] == wl.expected_bytes
    ):
        raise CheckFailed(
            f"I/O identity violated: passes={result.passes} "
            f"read={io['bytes_read']} written={io['bytes_written']} "
            f"expected {wl.passes} x {wl.n} x {RECORD_SIZE} = "
            f"{wl.expected_bytes}"
        )


def fresh_workdir(session: Session) -> Path:
    return Path(tempfile.mkdtemp(prefix="rep-", dir=session.scratch))


def timed_call(session: Session, fn, workdir: Path, tracer: Tracer, span: str,
               rep=None):
    """Time ``fn(session, workdir)``; creating and deleting the workdir
    is the caller's, outside the timer. Returns (wall, result)."""
    with tracer.span(span, rep):
        t0 = time.perf_counter()
        result = fn(session, workdir)
        wall = time.perf_counter() - t0
    return wall, result


def cleanup(workdir: Path, tracer: Tracer, rep=None) -> None:
    with tracer.span("rep.cleanup", rep):
        shutil.rmtree(workdir, ignore_errors=True)


def warm_up(session: Session, tracer: Tracer) -> None:
    """One discarded pair: pool fill, page faults, lazy imports."""
    t0 = time.perf_counter()
    for fn, span in ((run_baseline, "warmup.baseline"), (run_sort, "warmup.sort")):
        workdir = fresh_workdir(session)
        try:
            timed_call(session, fn, workdir, tracer, span)
        finally:
            cleanup(workdir, tracer)
    session.warmup_s = time.perf_counter() - t0


def one_rep(session: Session, tracer: Tracer, rep: int) -> None:
    """Baseline, sort, baseline — each timed, then checked outside the
    timer. (Two baselines a sort: they are cheap, and on a real
    filesystem their wall is the noisier half of io_ratio.) A call that
    raises or fails a check is a failed operation and contributes no
    timing."""
    wl = session.workload
    baseline = (run_baseline, "rep.baseline", session.baseline_s)
    for fn, span, walls in (
        baseline, (run_sort, "rep.sort", session.sort_s), baseline
    ):
        session.attempted += 1
        workdir = fresh_workdir(session)
        try:
            wall, result = timed_call(session, fn, workdir, tracer, span, rep)
            check_io_identity(wl, result)
            if fn is run_sort:
                with tracer.span("rep.verify", rep):
                    t0 = time.perf_counter()
                    verify_output(result.output, session.records)
                    session.verify_s.append(time.perf_counter() - t0)
            walls.append(wall)
        except Exception as exc:  # noqa: BLE001 — a failed op is data
            session.failures.append(f"{span} rep {rep}: {exc!r}")
        finally:
            cleanup(workdir, tracer, rep)


def timed_reps(
    session: Session, tracer: Tracer, seconds: float, min_reps: int
) -> None:
    """Reps until the next one would overrun ``seconds`` (never fewer
    than ``min_reps``). Verification and cleanup count against the
    budget but not against any timing."""
    start = time.perf_counter()
    rep = 0
    while True:
        t0 = time.perf_counter()
        one_rep(session, tracer, rep)
        rep += 1
        now = time.perf_counter()
        if rep >= min_reps and (now - start) + (now - t0) > seconds:
            break


def check_hygiene(session: Session, shm_before: set[str]) -> None:
    """Nothing may outlive a workload: no lease, shm segment, workdir or
    pipeline thread."""
    problems = session.hygiene
    outstanding = get_pool().outstanding()
    if outstanding:
        problems.append(f"{outstanding} pool leases outstanding")
    leaked = shm_segments() - shm_before
    if leaked:
        problems.append(f"shm segments left behind: {sorted(leaked)}")
    left = sorted(p.name for p in session.scratch.iterdir())
    if left:
        problems.append(f"workdirs left behind: {left}")
    threads = [
        t.name for t in threading.enumerate() if t.name.startswith("pipeline-")
    ]
    if threads:
        problems.append(f"pipeline threads alive: {threads}")


def read_peak_rss(session: Session) -> None:
    """ru_maxrss is KiB on Linux; children = the process backend's ranks
    (0 on the thread backend: nothing else has been waited for yet)."""
    session.rss_self_mb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    )
    session.rss_children_mb = (
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    )


def traced_run(session: Session, tracer: Tracer) -> tuple[dict, float]:
    """One sort with ``collect_trace=True``: the per-layer counts and the
    rank-0 stage seconds the program already exposes. Returns (metric
    values, traced wall)."""
    workdir = fresh_workdir(session)
    try:
        wall, result = timed_call(
            session, partial(run_sort, collect_trace=True),
            workdir, tracer, "traced.sort",
        )
        check_io_identity(session.workload, result)
        stages = result.stage_wall()
        io, comm, copy = result.io, result.comm_total, result.copy
        values = {f"oocs.stage.{k}_s": stages.get(k, 0.0) for k in STAGES}
        values.update({
            "oocs.unattributed_s": wall - sum(stages.values()),
            "oocs.passes": result.passes,
            "disks.reads": io["reads"],
            "disks.writes": io["writes"],
            "disks.bytes_read": io["bytes_read"],
            "disks.bytes_written": io["bytes_written"],
            "disks.bytes_hashed": io["bytes_hashed"],
            "disks.retries": io["read_retries"] + io["write_retries"],
            "cluster.messages": comm["messages"],
            "cluster.network_bytes": comm["network_bytes"],
            "cluster.comm_retries": comm["retries"],
            "cluster.arena_misses": copy["arena_misses"],
            "membuf.bytes_copied": copy["bytes_copied"],
            "membuf.pool_misses": copy["pool_misses"],
            "membuf.peak_leases": copy["peak_leases"],
            "bench.trace_overhead_x": wall / statistics.median(session.sort_s),
        })
        return values, wall
    finally:
        cleanup(workdir, tracer)
