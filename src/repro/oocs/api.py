"""One-call convenience API over the out-of-core sorting programs.

:func:`sort_out_of_core` builds a workspace (virtual disks + input
store) around an in-memory record array, runs the chosen algorithm, and
optionally verifies the output — the entry point the examples and most
tests use. It and :func:`run_baseline_io` name a program and build its
:class:`~repro.oocs.base.OocJob`; :func:`run_job` runs a job over
records, and :func:`job_from_spec` builds the program and job a
``sort`` spec names — :data:`SPEC_FIELDS` is that vocabulary, the one
the CLI's ``sort`` options and the service's job specs are built from.
For long-lived stores or repeated runs over the same data, hand
:func:`~repro.oocs.base.run_pass_program` a record of
:data:`ALGORITHMS` and your own input store.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

import numpy as np

from repro.cluster.config import ClusterConfig
from repro.cluster.transport import available_backends
from repro.errors import ConfigError
from repro.matrix.bits import is_power_of_two
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
from repro.records.generators import workload_names
from repro.records.keys import KEY_DTYPES
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


def job_demands(program: PassProgram, job: OocJob) -> tuple[int, int]:
    """Declared ``(mem_bytes, scratch_bytes)`` demand of running
    ``program`` on ``job``, for admission control.

    Memory: the bytes of the buffers the run reserves in the pool
    before any rank starts (:meth:`~repro.oocs.base.PassProgram.buffers`,
    by byte size): the program's one statement of its memory, so
    admission charges exactly what the pool then holds for the run.
    A columnsort program declares per rank ``2·depth + 6`` portions of
    round buffers and its half-column traffic, and at group size
    g > 1 its in-core plan's pass-long working set apart from them
    (:func:`~repro.oocs.base.columnsort_buffers`); the I/O-only
    baseline declares ``2·depth + 3`` columns a rank
    (:func:`~repro.oocs.base.io_only_buffers`). Every record buffer of
    a run is a pool buffer, so the pool's measured peak
    (``OocResult.governor["peak_held_bytes"]``) stays within this —
    ``tests/test_governor_budget.py`` holds it there — and a run that
    keeps to its declaration takes no buffer past it
    (``OocResult.governor["uncovered_takes"]`` is 0;
    ``tests/test_warm_run_reservation.py``).

    Scratch: ``3·N`` records — the input, a pass's source and its
    destination, as each intermediate is deleted at the boundary after
    its last reader (:meth:`~repro.oocs.base.PassProgram.deletions`;
    the paper's experiments were disk-space limited at exactly this
    multiple — footnote 7). ``tests/test_scratch_lifecycle.py`` runs
    every program with each disk capped there.
    """
    mem = sum(
        nbytes * count for nbytes, count in program.buffers(job).items()
    )
    scratch = 3 * job.n * job.fmt.record_size
    return mem, scratch


class SpecField(NamedTuple):
    """One field of a ``sort`` spec: its default, what is legal (a
    tuple of choices, the least integer allowed, or None when any
    value of the default's type may be tried — :func:`job_from_spec`
    refuses a shape the program cannot run), and the CLI's help."""

    default: object
    legal: tuple | int | None = None
    help: str | None = None


#: The ``sort`` spec vocabulary, declared once: the ``sort`` CLI adds
#: one option per field but ``verify`` (it always verifies), and the
#: service's :func:`~repro.service.protocol.validate_spec` checks a
#: submitted spec against it. :func:`job_from_spec` reads the fields
#: that shape the job; ``workload`` and ``seed`` make the input, and
#: ``verify`` says whether the output is checked.
SPEC_FIELDS: dict[str, SpecField] = {
    "algorithm": SpecField("threaded", tuple(ALGORITHMS)),
    "records": SpecField(8192),
    "buffer": SpecField(512, help="per-processor buffer in records"),
    "processors": SpecField(4),
    "record_size": SpecField(64),
    "key": SpecField("u8", tuple(KEY_DTYPES)),
    "workload": SpecField("uniform", tuple(workload_names())),
    "seed": SpecField(0, 0),
    "pipeline_depth": SpecField(
        2, 0,
        "read-ahead/write-behind depth per pass (0 = synchronous); "
        "output is byte-identical at every depth",
    ),
    "backend": SpecField(
        "thread", available_backends(),
        "SPMD transport: 'thread' (one thread per rank, shared address "
        "space) or 'process' (one forked process per rank with "
        "shared-memory alltoallv buffers — rank compute escapes the "
        "GIL); output and accounting are identical on both",
    ),
    "verify": SpecField(True),
}


def job_from_spec(spec: dict, **run_fields) -> tuple[PassProgram, OocJob]:
    """The program and job a sort spec names, in the vocabulary of
    :data:`SPEC_FIELDS`; ``run_fields`` are further :class:`OocJob`
    fields. The cluster gets twice the buffer as per-processor memory.

    Touches no disk: the program's layout is resolved here, so a shape
    it refuses raises :class:`~repro.errors.ConfigError` or
    :class:`~repro.errors.DimensionError` before any record exists."""
    buffer = spec["buffer"]
    if not is_power_of_two(buffer):
        # Checked here: mem_per_proc is twice the buffer, and its own
        # error would name a value the spec never gave.
        raise ConfigError(f"buffer must be a power of 2 records, got {buffer}")
    program = ALGORITHMS[spec["algorithm"]]
    job = OocJob(
        cluster=ClusterConfig(p=spec["processors"], mem_per_proc=buffer * 2),
        fmt=RecordFormat(spec["key"], spec["record_size"]),
        n=spec["records"],
        buffer_records=buffer,
        pipeline_depth=spec["pipeline_depth"],
        backend=spec["backend"],
        **run_fields,
    )
    program.layout(job)
    return program, job


def run_job(
    program: PassProgram,
    job: OocJob,
    records: np.ndarray,
    workdir: str | Path | None = None,
    verify: bool = True,
    collect_trace: bool = True,
    governor=None,
) -> OocResult:
    """Run ``program`` over the in-memory ``records``: admit ``job``
    through ``governor`` (a :class:`~repro.governor.JobGovernor`, which
    may queue the run or shed it with
    :class:`~repro.errors.AdmissionRejected`; admission facts land in
    ``OocResult.governor``), load the records as the input matrix on
    virtual disks under ``workdir`` (a temporary directory when None,
    removed if the run fails), run :func:`run_pass_program` and, with
    ``verify``, check the output is a sorted permutation of the input
    with intact keys."""
    if job.resume and workdir is None:
        raise ConfigError(
            "resume=True needs an explicit workdir (a temporary workspace "
            "does not survive the run being resumed)"
        )
    ticket = None
    if governor is not None:
        mem_demand, scratch_demand = job_demands(program, job)
        ticket = governor.admit(
            mem_bytes=mem_demand, scratch_bytes=scratch_demand, cancel=job.cancel
        )
    try:
        r, s, g = program.layout(job)
        ws = make_workspace(
            job.cluster, job.fmt, records, r, s,
            workdir=workdir, group_size=g,
        )
        try:
            result = run_pass_program(
                program, job, ws.input, collect_trace=collect_trace
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


def sort_out_of_core(
    algorithm: str,
    records: np.ndarray,
    cluster: ClusterConfig,
    fmt: RecordFormat,
    buffer_records: int,
    workdir: str | Path | None = None,
    verify: bool = True,
    collect_trace: bool = True,
    governor=None,
    **job,
) -> OocResult:
    """Sort ``records`` out-of-core with the named algorithm
    (``"threaded"``, ``"subblock"``, ``"m"``, ``"hybrid"``, or ``"g"``).

    ``**job`` is any further field of :class:`~repro.oocs.base.OocJob`
    (its Parameters say what each does); ``workdir``, ``verify``,
    ``collect_trace`` and ``governor`` are :func:`run_job`'s.

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
    spec = OocJob(
        cluster=cluster, fmt=fmt, n=len(records),
        buffer_records=buffer_records, **job,
    )
    return run_job(
        program, spec, records, workdir=workdir, verify=verify,
        collect_trace=collect_trace, governor=governor,
    )


def run_baseline_io(
    records: np.ndarray,
    cluster: ClusterConfig,
    fmt: RecordFormat,
    buffer_records: int,
    passes: int = 3,
    workdir: str | Path | None = None,
    collect_trace: bool = True,
    **job,
) -> OocResult:
    """Run the §5 I/O-only baseline over ``records``: ``passes``
    read+write-only passes. ``**job`` is any further
    :class:`~repro.oocs.base.OocJob` field, exactly as in
    :func:`sort_out_of_core`, so the baseline takes part in the same
    cancel-then-resume and chaos drills as the real algorithms."""
    spec = OocJob(
        cluster=cluster, fmt=fmt, n=len(records),
        buffer_records=buffer_records, **job,
    )
    return run_job(
        baseline_program(passes), spec, records, workdir=workdir,
        verify=False, collect_trace=collect_trace,
    )
