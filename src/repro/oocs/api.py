"""One-call convenience API over the out-of-core sorting programs.

:func:`sort_out_of_core` builds a workspace (virtual disks + input
store) around an in-memory record array, runs the chosen algorithm, and
optionally verifies the output — the entry point the examples and most
tests use. For long-lived stores or repeated runs over the same data,
hand :func:`~repro.oocs.base.run_pass_program` a record of
:data:`ALGORITHMS` and your own input store.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.cluster.config import ClusterConfig
from repro.errors import ConfigError
from repro.governor import CancelToken, get_job_governor
from repro.membuf import get_pool
from repro.oocs.base import (
    OocJob,
    OocResult,
    PassProgram,
    make_workspace,
    run_pass_program,
)
from repro.oocs.baseline_io import baseline_program
from repro.oocs.grid import WHOLE_CLUSTER, columnsort_program
from repro.oocs.verify import verify_output
from repro.records.format import RecordFormat
from repro.simulate.trace import RunTrace

#: algorithm name → the program record :func:`run_pass_program` runs:
#: five points (group size, relaxed) of :mod:`repro.oocs.grid`. Scratch
#: stores are ``<scratch>-t1`` …; ``{g}`` stands for the resolved group
#: size.
ALGORITHMS: dict[str, PassProgram] = {
    "threaded": columnsort_program("threaded", "thr", 1, relaxed=False),
    "subblock": columnsort_program("subblock", "sub", 1, relaxed=True),
    "m": columnsort_program("m-columnsort", "m", WHOLE_CLUSTER, relaxed=False),
    "hybrid": columnsort_program("hybrid", "hy", WHOLE_CLUSTER, relaxed=True),
    "g": columnsort_program("g-columnsort(g={g})", "g", None, relaxed=False),
}


def analytic_trace(
    algorithm: str,
    n: int,
    p: int,
    buffer_records: int,
    record_size: int,
    passes: int = 3,
    group_size: int | None = None,
) -> RunTrace:
    """The structural trace of a configuration, at any scale and
    without touching data: what a live run of the same job reports as
    ``OocResult.trace``, minus the measured walls. ``algorithm`` is a
    key of :data:`ALGORITHMS`, or ``"baseline-io"`` for the
    ``passes``-pass I/O-only baseline. Configurations the program would
    refuse to run are refused here, with the same exception."""
    program = (
        baseline_program(passes)
        if algorithm == "baseline-io"
        else ALGORITHMS[algorithm]
    )
    job = OocJob(
        cluster=ClusterConfig(p=p, mem_per_proc=buffer_records),
        fmt=RecordFormat("u8", record_size),
        n=n,
        buffer_records=buffer_records,
        group_size=group_size,
    )
    return program.trace(job)


def job_demands(job: OocJob) -> tuple[int, int]:
    """Declared ``(mem_bytes, scratch_bytes)`` demand of a job, for
    admission control.

    Memory: per rank, ``depth`` column buffers prefetched plus the one
    in the reader's hand, ``depth`` round buffers queued for writing
    plus the one being written, and the pass body's own two (sorted
    column and assembly buffer, or column and window): ``2·depth + 4``.
    The measured peak (``OocResult.governor["peak_held_bytes"]``,
    ``copy["peak_leases"]``) stays within it at every depth —
    ``tests/test_governor_budget.py`` holds it there. Scratch: a pass
    program keeps at most input + two generations of intermediates on
    disk at once, ≈ ``3·N`` records (the paper's experiments were
    disk-space limited at exactly this multiple — footnote 7).
    """
    mem = job.buffer_bytes * job.cluster.p * (2 * job.pipeline_depth + 4)
    scratch = 3 * job.n * job.fmt.record_size
    return mem, scratch


def sort_out_of_core(
    algorithm: str,
    records: np.ndarray,
    cluster: ClusterConfig,
    fmt: RecordFormat,
    buffer_records: int,
    workdir: str | Path | None = None,
    verify: bool = True,
    collect_trace: bool = True,
    pipeline_depth: int = 0,
    checkpoint_dir: str | Path | None = None,
    resume: bool = False,
    keep_checkpoints: bool = False,
    retry_policy=None,
    fault_plan=None,
    watchdog_deadline: float | None = None,
    parity: bool = False,
    audit: bool = False,
    cancel: CancelToken | None = None,
    deadline_s: float | None = None,
    mem_budget_bytes: int | None = None,
    governor=None,
    backend: str = "thread",
    restart_policy=None,
    group_size: int | None = None,
) -> OocResult:
    """Sort ``records`` out-of-core with the named algorithm
    (``"threaded"``, ``"subblock"``, ``"m"``, ``"hybrid"``, or ``"g"``).

    ``buffer_records`` is the per-processor buffer ``r`` in records:
    the column height for threaded/subblock, the per-processor portion
    of an ``M``-high column for m/hybrid and of a ``g·buffer``-high one
    for g, whose ``group_size`` ``g`` defaults to the smallest feasible.

    ``pipeline_depth`` enables overlapped I/O inside every pass: each
    rank prefetches up to that many columns ahead of the compute stage
    and retires writes through a write-behind flusher. Depth 0 (the
    default) runs every pass synchronously; any depth produces
    byte-identical output.

    With ``verify=True`` (default) the PDM output is read back and
    checked to be a sorted permutation of the input with intact keys.

    Resilience knobs: ``checkpoint_dir`` persists a manifest after
    every completed pass; with ``resume=True`` a killed run restarts
    after the last completed pass (requires an explicit ``workdir`` so
    the scratch files survive the kill) and produces byte-identical
    output. A successful run prunes its checkpoint directory (the
    manifests and, when empty, the directory itself) — pass
    ``keep_checkpoints=True`` to keep it for inspection.
    ``retry_policy`` / ``fault_plan`` /
    ``watchdog_deadline`` are forwarded to the disks and the SPMD
    world — see :mod:`repro.resilience`. If the run fails with a
    temporary workdir, the scratch directory is removed.

    Durability knobs (see :mod:`repro.durability`): ``parity=True``
    maintains an XOR parity stripe across the disk array, letting the
    run repair corrupt blocks in place and complete byte-identically in
    degraded mode if a disk is lost to permanent faults mid-run;
    ``audit=True`` verifies sampled columnsort invariants of every
    pass's output before its checkpoint is declared good. Counters for
    both land in ``OocResult.durability``. A degraded run should call
    ``OocResult.release_durability()`` once its output has been read.

    Governance knobs (see :mod:`repro.governor`): ``cancel`` threads a
    :class:`~repro.governor.CancelToken` through every blocking seam —
    cancelling it (or passing ``deadline_s``, which builds a
    deadline-armed token) unwinds all ranks within one poll interval
    into a structured :class:`~repro.errors.Cancellation`, leaking no
    leases/threads/quarantines and leaving the last checkpoint valid
    for ``resume``. ``mem_budget_bytes`` installs a hard byte budget on
    the (process-wide) buffer pool: leases block under backpressure and
    the run downshifts its pipeline depth when pressure persists.
    ``governor`` (or a process-wide one installed via
    :func:`repro.governor.set_job_governor`) gates the run through
    admission control — it may queue FIFO and can be shed with
    :class:`~repro.errors.AdmissionRejected`. Counters land in
    ``OocResult.governor``.

    ``backend`` selects the SPMD transport: ``"thread"`` (default) or
    ``"process"`` — one forked OS process per rank with shared-memory
    alltoallv buffers, so rank-local compute escapes the GIL. Output
    and accounting are byte-identical across backends; ``parity=True``
    requires the thread backend (the parity layer's state lives in one
    address space).

    ``restart_policy`` arms in-run supervised recovery (see
    :mod:`repro.resilience.supervisor`): a rank that dies mid-run
    (SIGKILL, ``os._exit``, an unhandled exception, a watchdog timeout)
    no longer aborts the call — the cohort is torn down, stale state
    swept, and the pass program relaunched from the last pass-boundary
    checkpoint (from scratch without a ``checkpoint_dir``), up to
    ``max_restarts`` times with seeded backoff. Restart attempts run
    under the *same* cancel token and admission ticket: a deadline
    expiring during recovery still cancels the run, and a supervised
    job is admitted (and charged) exactly once however many attempts
    it takes. The supervision record lands in ``OocResult.supervisor``.

    >>> from repro.records import RecordFormat, generate
    >>> from repro.cluster import ClusterConfig
    >>> fmt = RecordFormat("u8", 64)
    >>> recs = generate("uniform", fmt, 8192, seed=1)
    >>> cfg = ClusterConfig(p=4, mem_per_proc=2**12)
    >>> res = sort_out_of_core("threaded", recs, cfg, fmt, buffer_records=512)
    >>> res.passes
    3
    """
    try:
        program = ALGORITHMS[algorithm]
    except KeyError:
        raise ConfigError(
            f"unknown algorithm {algorithm!r}; expected one of {sorted(ALGORITHMS)}"
        ) from None
    if resume and workdir is None:
        raise ConfigError(
            "resume=True needs an explicit workdir (a temporary workspace "
            "does not survive the run being resumed)"
        )
    if checkpoint_dir is None and resume:
        raise ConfigError("resume=True needs a checkpoint_dir")
    if deadline_s is not None:
        if cancel is not None:
            raise ConfigError(
                "pass either cancel= or deadline_s=, not both (arm the "
                "deadline on your own CancelToken instead)"
            )
        cancel = CancelToken(deadline_s=deadline_s)
    if mem_budget_bytes is not None:
        # The buffer pool is process-wide, so the budget outlives this
        # call; the last caller to set it wins.
        get_pool().set_budget(mem_budget_bytes)
    job = OocJob(
        cluster=cluster,
        fmt=fmt,
        n=len(records),
        buffer_records=buffer_records,
        workdir=workdir,
        pipeline_depth=pipeline_depth,
        retry_policy=retry_policy,
        fault_plan=fault_plan,
        watchdog_deadline=watchdog_deadline,
        parity=parity,
        audit=audit,
        cancel=cancel,
        backend=backend,
        restart_policy=restart_policy,
        group_size=group_size,
    )
    if governor is None:
        governor = get_job_governor()
    ticket = None
    if governor is not None:
        mem_demand, scratch_demand = job_demands(job)
        ticket = governor.admit(
            mem_bytes=mem_demand, scratch_bytes=scratch_demand, cancel=cancel
        )
    try:
        r, s, g = program.layout(job)
        ws = make_workspace(
            cluster, fmt, records, r, s,
            workdir=workdir, group_size=g, parity=parity,
        )
        try:
            result = run_pass_program(
                program,
                job,
                ws.input,
                collect_trace=collect_trace,
                checkpoint_dir=checkpoint_dir,
                resume=resume,
                keep_checkpoints=keep_checkpoints,
            )
        except BaseException:
            if ws._tmp is not None:
                ws._tmp.cleanup()  # a temp workspace of a failed run is garbage
            raise
    finally:
        if ticket is not None:
            ticket.release()
    if ticket is not None:
        result.governor.update(ticket.snapshot())
    result.workspace = ws  # keep disks (and any TemporaryDirectory) alive
    if verify:
        verify_output(result.output, records)
    return result


def run_baseline_io(
    records: np.ndarray,
    cluster: ClusterConfig,
    fmt: RecordFormat,
    buffer_records: int,
    passes: int = 3,
    workdir: str | Path | None = None,
    pipeline_depth: int = 0,
    cancel: CancelToken | None = None,
    collect_trace: bool = True,
    checkpoint_dir: str | Path | None = None,
    resume: bool = False,
    retry_policy=None,
    fault_plan=None,
    backend: str = "thread",
) -> OocResult:
    """Run the §5 I/O-only baseline over ``records``.

    ``cancel`` / ``checkpoint_dir`` / ``resume`` / ``retry_policy`` /
    ``fault_plan`` behave exactly as in :func:`sort_out_of_core`, so the
    baseline participates in the same cancel-then-resume and chaos
    drills as the real algorithms.
    """
    job = OocJob(
        cluster=cluster,
        fmt=fmt,
        n=len(records),
        buffer_records=buffer_records,
        workdir=workdir,
        pipeline_depth=pipeline_depth,
        cancel=cancel,
        retry_policy=retry_policy,
        fault_plan=fault_plan,
        backend=backend,
    )
    program = baseline_program(passes)
    r, s, _ = program.layout(job)
    ws = make_workspace(cluster, fmt, records, r, s, workdir=workdir)
    result = run_pass_program(
        program,
        job,
        ws.input,
        collect_trace=collect_trace,
        checkpoint_dir=checkpoint_dir,
        resume=resume,
    )
    result.workspace = ws
    return result
