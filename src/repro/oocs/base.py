"""Shared machinery of the out-of-core columnsort programs.

Every program is organized as *passes* over the data; every pass is
decomposed into rounds; every round flows through a pipeline whose
stages are, functionally, the bodies of the helpers here:

* :func:`pass_step2_deal` — sort each column and apply step 2's
  transpose-and-reshape (pass 1 of every program);
* :func:`pass_step4_deal` — sort each column and apply step 4's
  reshape-and-transpose (the pass before the last);
* :func:`pass_final_windows` — steps 5-8 realized window-wise: sort
  each column, exchange halves with the neighboring column's owner,
  merge the window, and write it at its final PDM position (the last
  pass of every program);
* :func:`pass_io_only` — the baseline that only reads and writes.

Together with :func:`repro.oocs.subblock.pass_subblock` these are the
bodies of every columnsort program, whatever its group size ``g``: each
reads ``g`` from its store. The sort stage is local at ``g = 1`` and a
distributed in-core columnsort over the group otherwise
(:func:`sort_stage`); the out-of-core exchange uses *same-member
routing* — member ``m`` of a group sends only to member ``m`` of the
other groups (:func:`group_comms`) — and disappears at ``g = P``, where
one group owns every column.

The helpers run inside SPMD rank programs. A program states each pass
once, as a :class:`PassSpec`: the body that runs, and beside it the
paper's pipeline stages and per-round work of the pass, from which
:meth:`PassProgram.trace` derives the structural trace — of a live run
(rank 0 adds its measured stage walls; the processors are symmetric, so
one rank describes them all) and of a configuration that is only priced.

Each pass overlaps its disk I/O with compute and communication through
the :mod:`repro.pipeline` buffer pools: column reads are prefetched by a
bounded read-ahead thread and disk writes retired by a write-behind
thread, ``plan.depth`` buffers deep on each side (depth 0 = the strictly
sequential baseline). The measured read-wait / compute / comm /
write-wait breakdown lands in ``PassTrace.wall``.

A correctness-relevant storage freedom (also exploited by the paper's
implementation, cf. footnote 5 on write patterns and sorted runs):
between passes, records need to be in the right *column* but may sit at
any position within it, because every pass begins by sorting its
columns. Only the final pass writes exact (PDM) positions.
"""

from __future__ import annotations

import tempfile
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from repro.cluster.comm import Comm
from repro.cluster.config import ClusterConfig
from repro.cluster.spmd import run_spmd
from repro.cluster.stats import CommStats
from repro.cluster.transport import available_backends
from repro.disks.iostats import IoStats
from repro.disks.matrixfile import ColumnStore, PdmStore
from repro.disks.virtual_disk import VirtualDisk, make_disk_array
from repro.errors import ConfigError
from repro.matrix.bits import is_power_of_two
from repro.membuf import CopyStats, LeaseScope, copy_stats, get_pool
from repro.oocs.incore.columnsort_dist import ColumnsortPlan
from repro.pipeline import (
    COMM,
    COMPUTE,
    INCORE,
    SYNCHRONOUS,
    PipelinePlan,
    ReadAhead,
    StageClock,
    WriteBehind,
)
from repro.records.format import RecordFormat, concat_records
from repro.simulate.trace import PassTrace, RunTrace

#: Point-to-point tag used for the half-column exchange of the final pass.
WINDOW_TAG = 77


@dataclass(frozen=True)
class OocJob:
    """A fully specified out-of-core sort problem: the one declaration
    of every run knob. The entry points (:func:`run_pass_program`,
    :func:`repro.oocs.api.sort_out_of_core`,
    :func:`repro.oocs.api.run_baseline_io`) forward these fields and
    restate none of them.

    Parameters
    ----------
    cluster:
        The machine (``P``, ``D``, memory per processor).
    fmt:
        Record format.
    n:
        Number of records (power of 2).
    buffer_records:
        The per-processor buffer ``r`` in records (the paper's "buffer
        size", there quoted in bytes). For threaded/subblock columnsort
        this is the column height; for M-columnsort it is the
        per-processor *portion* of an ``r = M``-high column.
    pipeline_depth:
        Buffers the read-ahead and write-behind pools may each keep in
        flight per pass (see :mod:`repro.pipeline`); ``0`` runs every
        pass strictly synchronously.
    retry_policy:
        Optional :class:`~repro.resilience.retry.RetryPolicy` attached
        to every disk (and the comm fabric) for the run: transient
        faults are retried with metered retry counts.
    fault_plan:
        Optional :class:`~repro.resilience.faults.FaultPlan` injected
        into every disk and the comm fabric (chaos testing).
    watchdog_deadline:
        If set, seconds of universal rank silence after which the run
        is aborted with a structured
        :class:`~repro.errors.WatchdogTimeout` instead of hanging.
    audit:
        Verify columnsort invariants of every pass's output (sampled,
        on rank 0) before its checkpoint is declared good; violations
        raise :class:`~repro.errors.AuditError`.
    cancel:
        Optional :class:`~repro.governor.CancelToken`. Threaded through
        the pipeline pools, the mailbox fabric, the disks' op loops,
        and the pass-boundary loop, so a cancel (or expired deadline)
        unwinds every rank within one poll interval into a structured
        :class:`~repro.errors.Cancellation` — with the last
        pass-boundary checkpoint still valid for a later resume. A
        deadline is armed on the token: ``CancelToken(deadline_s=…)``.
    backend:
        SPMD transport running the rank programs: ``"thread"`` (one
        thread per rank, shared address space) or ``"process"`` (one
        forked process per rank with shared-memory alltoallv buffers;
        see :mod:`repro.cluster.process_backend`). Sorted output,
        pass structure, and the byte-exact I/O/comm/copy accounting
        are identical on both.
    restart_policy:
        Optional :class:`~repro.resilience.supervisor.RestartPolicy`.
        When set, ``run_pass_program`` supervises the whole pass
        program: a rank crash (SIGKILL, ``os._exit``, an unhandled
        exception, a watchdog timeout) or an escaped transient cohort
        failure sweeps the failed attempt's state and relaunches from
        the last pass-boundary checkpoint *within the same call* —
        from pass 0 when the job has no checkpoint directory. Fatal
        classes (cancellation, admission, budget, corruption, config
        errors …) propagate unchanged; see
        :meth:`~repro.resilience.supervisor.RestartPolicy.restartable`.
    group_size:
        g-columnsort's group size ``g`` (column height ``r = g·buffer``);
        ``None`` lets the program pick the smallest feasible one. A
        program whose layout has another group size refuses the job.
    checkpoint_dir:
        Persist a manifest here after every completed pass.
    resume:
        Restart after the last completed pass recorded in
        ``checkpoint_dir`` (validated against the job and the on-disk
        store digests); the output is byte-identical to an
        uninterrupted run. Needs a ``checkpoint_dir``.
    keep_checkpoints:
        Keep the manifests after a successful run, which otherwise
        prunes ``checkpoint_dir`` away: checkpoints exist to survive
        *failed* runs.
    """

    cluster: ClusterConfig
    fmt: RecordFormat
    n: int
    buffer_records: int
    pipeline_depth: int = 0
    retry_policy: object = None
    fault_plan: object = None
    watchdog_deadline: float | None = None
    audit: bool = False
    cancel: object = None
    backend: str = "thread"
    restart_policy: object = None
    group_size: int | None = None
    checkpoint_dir: str | Path | None = None
    resume: bool = False
    keep_checkpoints: bool = False

    def __post_init__(self) -> None:
        if self.resume and self.checkpoint_dir is None:
            raise ConfigError("resume=True needs a checkpoint_dir")
        if self.backend not in available_backends():
            raise ConfigError(
                f"unknown transport backend {self.backend!r}; expected one "
                f"of {available_backends()}"
            )
        if self.pipeline_depth < 0:
            raise ConfigError(
                f"pipeline_depth must be >= 0, got {self.pipeline_depth}"
            )
        if not is_power_of_two(self.n):
            raise ConfigError(f"N must be a power of 2 records, got {self.n}")
        if not is_power_of_two(self.buffer_records):
            raise ConfigError(
                f"buffer_records must be a power of 2, got {self.buffer_records}"
            )
        if self.buffer_records > self.cluster.mem_per_proc:
            raise ConfigError(
                f"buffer of {self.buffer_records} records exceeds per-processor "
                f"memory of {self.cluster.mem_per_proc} records"
            )

    @property
    def buffer_bytes(self) -> int:
        return self.buffer_records * self.fmt.record_size

    def pipeline_plan(self) -> PipelinePlan:
        """The per-pass overlap plan this job asks for (the cancel
        token rides on the plan, so every pool wait observes it)."""
        if self.pipeline_depth == 0 and self.cancel is None:
            return SYNCHRONOUS
        return PipelinePlan(depth=self.pipeline_depth, cancel=self.cancel)


@dataclass
class OocResult:
    """What an out-of-core sort run produced."""

    algorithm: str
    job: OocJob
    output: PdmStore
    passes: int
    io: dict  # aggregate disk I/O over the whole run
    io_per_pass: list[dict]  # one {reads, writes, ...} delta per pass
    comm_per_pass: list[dict]  # rank-0 comm deltas per pass
    comm_total: dict  # aggregate across ranks
    copy: dict = field(default_factory=dict)  # data-plane copy accounting
    durability: dict = field(default_factory=dict)  # audit counts
    governor: dict = field(default_factory=dict)  # budget/reclaim/admission
    supervisor: dict = field(default_factory=dict)  # restarts/causes/wall
    trace: RunTrace | None = None
    workspace: object = None  # set by the convenience API to pin disks alive

    def output_records(self) -> np.ndarray:
        """Read the whole sorted output back into memory."""
        return self.output.read_all()

    def stage_wall(self) -> dict[str, float]:
        """Measured per-stage wall time (rank 0) summed over all passes:
        ``read_wait`` / ``compute`` / ``comm`` / ``incore`` /
        ``write_wait`` seconds as recorded by the pass pipeline's
        :class:`~repro.pipeline.StageClock`. Empty when the run was
        traced with ``collect_trace=False``."""
        if self.trace is None:
            return {}
        return self.trace.measured_wall()


@dataclass
class Workspace:
    """Disks plus the input store for a run."""

    disks: list[VirtualDisk]
    input: ColumnStore
    workdir: Path
    _tmp: object = field(default=None, repr=False)


def make_workspace(
    cluster: ClusterConfig,
    fmt: RecordFormat,
    records: np.ndarray,
    r: int,
    s: int,
    workdir: str | Path | None = None,
    group_size: int = 1,
) -> Workspace:
    """Create the virtual disks and load ``records`` as the input matrix
    (column-major: column ``j`` is ``records[j·r:(j+1)·r]``).

    ``group_size`` is the layout :meth:`PassProgram.layout` resolved:
    each column striped over a group of ``g`` processors, whole columns
    at the default ``g = 1``.
    """
    tmp = None
    if workdir is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-oocs-")
        workdir = tmp.name
    disks = make_disk_array(workdir, cluster.virtual_disks)
    try:
        store = ColumnStore.from_records(
            cluster, fmt, records, r, s, disks, name="input", group_size=group_size
        )
    except BaseException:
        for disk in disks:
            disk.close_handles()  # a load that died opened some already
        raise
    for disk in disks:
        # The load is a pass of its own: close its descriptors and
        # persist the input's checksum sidecars. From here on only pass
        # boundaries (PassMarker.mark) do either.
        disk.flush()
    ws = Workspace(disks=disks, input=store, workdir=Path(workdir))
    ws._tmp = tmp  # keep TemporaryDirectory alive with the workspace
    return ws


# ---------------------------------------------------------------------------
# Pass bodies (run per rank)
# ---------------------------------------------------------------------------
#
# Every pass pulls its column buffers through a ReadAhead prefetcher and
# retires its disk writes through a WriteBehind flusher (repro.pipeline),
# one item per *round* on both sides: with plan.depth >= 1 the NumPy
# compute and mailbox communication of round t overlap the read of round
# t+depth and the writes of rounds t-1 … t-depth, the same overlap
# structure [CC02] gets from pthreads. With the default SYNCHRONOUS plan
# both pools degenerate to inline calls.


@contextmanager
def pass_pipeline(reads, plan: PipelinePlan | None, trace: PassTrace | None):
    """What one rank's pass body runs inside: yields ``(reader, writer,
    clock, leases)``.

    ``reader`` prefetches ``reads`` (zero-argument callables returning
    tracked :class:`~repro.membuf.BufferPool` leases — one round's
    column or portion each) and recycles whatever was prefetched but
    never consumed; ``writer`` retires one item per round; both report
    to ``clock``, whose stage breakdown lands on ``trace`` (rank 0) when
    the body completes; ``leases`` owns the pool leases the body holds,
    so a body that raises mid-round — out of a collective, say — strands
    none. A body that returns normally has its writes drained.
    """
    plan = plan if plan is not None else SYNCHRONOUS
    clock = StageClock()
    reader = ReadAhead(reads, plan, clock, on_drop=get_pool().recycle)
    writer = WriteBehind(plan, clock)
    leases = LeaseScope()
    try:
        yield reader, writer, clock, leases
        writer.drain()
    finally:
        reader.close()
        writer.close()
        leases.close()
    if trace is not None:
        clock.merge_into(trace.wall)


def portion_reads(src: ColumnStore, rank: int) -> list:
    """One pooled read per round: this rank's portion of each of its
    group's columns — whole columns ``rank, rank+P, …`` at group size 1,
    a slice of every column at group size ``P``."""
    return [
        partial(src.read_portion, rank, c, reuse=True)
        for c in range(rank // src.g, src.s, src.groups)
    ]


def group_comms(comm: Comm, g: int) -> tuple[Comm | None, Comm | None]:
    """``(group, member)``: the communicators of a pass at group size
    ``g``. ``group`` holds the ``g`` ranks striping this rank's columns —
    where the sort stage runs; ``member`` holds the ``P/g`` ranks with
    this rank's member index, one per group — where the out-of-core
    exchange runs (*same-member routing*: member ``m`` sends only to
    member ``m``). ``None`` stands for a communicator of one: at
    ``g = 1`` the sort is local, at ``g = P`` nothing is exchanged, and
    neither extreme splits. In between, each pass splits twice."""
    if g == 1:
        return None, comm
    if g == comm.size:
        return comm, None
    return (
        comm.split(color=comm.rank // g, key=comm.rank % g),
        comm.split(color=comm.rank % g, key=comm.rank // g),
    )


def sort_stage(
    incore: ColumnsortPlan | None,
    raw: np.ndarray,
    fmt: RecordFormat,
    leases: LeaseScope,
    clock: StageClock,
) -> np.ndarray:
    """A pass's column sort of one round's ``raw`` portion (a held lease
    the sort consumes) into a lease of ``leases``.
    Without an ``incore`` plan (``g = 1``) it is a local sort, charged to
    COMPUTE; otherwise the pass's distributed in-core columnsort over
    the group, charged to INCORE, whose result is the plan's slices of
    the sorted column."""
    if incore is None:
        with clock.stage(COMPUTE):
            col = fmt.sort(raw, out=leases.lease(fmt.dtype, len(raw)))
            leases.recycle(raw)
        return col
    with clock.stage(INCORE):
        return incore.sort(raw, fmt, leases)


def _deal_pass(
    comm: Comm,
    src: ColumnStore,
    dst: ColumnStore,
    fmt: RecordFormat,
    trace: PassTrace | None,
    plan: PipelinePlan | None,
    step: int,
) -> None:
    """Sort one column per group per round and deal it across all
    columns — columnsort steps 1+2 (``step=2``) or 3+4 (``step=4``).

    After the sort stage each member holds ``portion = r/g`` records of
    the column, ``band = portion/s`` of them bound for each target
    column; same-member routing sends them to the member of the same
    index in the target's group. Per round a member assembles one
    ``G·band``-record segment for each of the ``s/G`` target columns its
    group owns: the rows of a single leased portion-sized buffer, filled
    with one strided copy per source group and retired by one
    write-behind item. Segments are appended: at ``g = 1`` step 2's band
    of round ``t`` belongs at rows ``t·P·r/s`` on, which is where the
    cursor stands (only the owner appends to a portion, and one flusher
    retires its rounds in order); anywhere else the rows may sit
    anywhere, since the next pass re-sorts each column. At ``g = P``
    (one group) nothing is exchanged.
    """
    g, groups = src.g, src.groups
    r, s, portion = src.r, src.s, src.portion
    rank = comm.rank
    gid = rank // g
    band = portion // s  # records a source portion sends each target column
    mine = s // groups  # rounds, and target columns this group owns
    group, member = group_comms(comm, g)
    if step == 2:
        # Sorted row i goes to column i mod s; s | portion, so a member's
        # local row j goes to column j mod s, owned by group j mod G. What
        # arrives from a group is its rows j ≡ gid (mod G), ascending: as
        # a (band, s/G) block, column l is bound for target gid + l·G.
        ranges = None  # the balanced delivery

        def split(col):
            return [col[q::groups] for q in range(groups)], None

        def land(got):
            return got.reshape(band, mine).T
    else:
        # Sorted chunk k (r/s rows) goes to target column k; the in-core
        # sort delivers member m the m-th 1/g slice of every chunk.
        chunk = r // s
        ranges = [
            [(k * chunk + m * band, k * chunk + (m + 1) * band) for k in range(s)]
            for m in range(g)
        ]

        def split(col):
            # Group q's chunks (every G-th), gathered into one lease in
            # destination order: one transposing copy, no temporaries.
            dealt = leases.lease(fmt.dtype, portion)
            fmt.items(dealt).reshape(groups, mine, band)[:] = (
                fmt.items(col).reshape(mine, groups, band).transpose(1, 0, 2)
            )
            per = portion // groups
            return [dealt[q * per : (q + 1) * per] for q in range(groups)], dealt

        def land(got):
            return got.reshape(mine, band)

    incore = None if group is None else ColumnsortPlan(group, portion, ranges)
    with pass_pipeline(portion_reads(src, rank), plan, trace) as (
        reader, writer, clock, leases,
    ):
        for _ in range(mine):
            col = sort_stage(incore, leases.hold(reader.get()), fmt, leases, clock)
            if member is not None:
                with clock.stage(COMPUTE):
                    parts, dealt = split(col)
                with clock.stage(COMM):
                    recv = member.alltoallv(parts)
                leases.recycle(col)  # the sorted lease is dead after the send
                if dealt is not None:
                    leases.recycle(dealt)
            out = None
            with clock.stage(COMPUTE):
                if member is None and step == 4:
                    # The slices already stand in target order: write row
                    # views of the sorted portion.
                    segs = col.reshape(mine, band)
                else:
                    out = leases.lease(fmt.dtype, portion)
                    rows = fmt.items(out).reshape(mine, groups, band)  # [l, q]: group q's band for target l
                    if member is None:
                        rows[:, 0, :] = fmt.items(land(col))  # one transposing copy
                        leases.recycle(col)
                    else:
                        for q, got in enumerate(recv):
                            rows[:, q, :] = fmt.items(land(got))
                            leases.recycle(got)  # landed: the sender's buffer may be reused
                    segs = out.reshape(mine, groups * band)
            writer.put(
                partial(
                    dst.append_segments,
                    rank,
                    [(gid + l * groups, segs[l]) for l in range(mine)],
                ),
                release=leases.hand_off(col if out is None else out),
            )


def pass_step2_deal(
    comm: Comm,
    src: ColumnStore,
    dst: ColumnStore,
    fmt: RecordFormat,
    trace: PassTrace | None = None,
    plan: PipelinePlan | None = None,
) -> None:
    """Pass = columnsort steps 1+2: each round, sort one column per
    processor and deal it across all columns.

    Step 2 sends the record at sorted row ``i`` of column ``c`` to
    column ``i mod s``, row ``c·r/s + i div s``; each target column
    receives one contiguous band segment per round.
    """
    _deal_pass(comm, src, dst, fmt, trace, plan, step=2)


def pass_step4_deal(
    comm: Comm,
    src: ColumnStore,
    dst: ColumnStore,
    fmt: RecordFormat,
    trace: PassTrace | None = None,
    plan: PipelinePlan | None = None,
) -> None:
    """Pass = columnsort steps 3+4: sort one column per processor per
    round and apply the inverse deal.

    Step 4 sends the ``r/s``-record chunk ``m`` of sorted column ``c``
    to target column ``m`` (see :func:`_deal_pass`).
    """
    _deal_pass(comm, src, dst, fmt, trace, plan, step=4)


def route_to_pdm(
    comm: Comm,
    pdm: PdmStore,
    fmt: RecordFormat,
    my_piece: tuple[int, np.ndarray] | None,
    piece_range_of,
    writer: WriteBehind,
    clock: StageClock,
    leases: LeaseScope,
    piece_lease: np.ndarray | None = None,
) -> None:
    """The last pass's second communicate + permute + write: each rank
    splits its (globally positioned) sorted piece by PDM disk owner;
    receivers reconstruct every sender's range from the deterministic
    ``piece_range_of(q) -> (gstart, length) | None`` — no metadata
    crosses the network — and retire what they received as one
    write-behind item. ``piece_lease`` (the lease the piece lies in, if
    any) is recycled as soon as the piece has been gathered."""
    p = comm.size
    with clock.stage(COMPUTE):
        parts = [fmt.empty(0) for _ in range(p)]
        grouped = None
        if my_piece is not None:
            # Each owner's pieces, gathered into one lease in owner order.
            gstart, arr = my_piece
            grouped = leases.lease(fmt.dtype, len(arr))
            at = 0
            for q, pieces in sorted(pdm.split_by_owner(gstart, len(arr)).items()):
                n = sum(nn for (_d, _o, _rel, nn) in pieces)
                parts[q] = concat_records(
                    [arr[rel : rel + nn] for (_d, _o, rel, nn) in pieces],
                    out=grouped[at : at + n],
                )
                at += n
    if piece_lease is not None:
        leases.recycle(piece_lease)
    with clock.stage(COMM):
        recv = comm.alltoallv(parts)
    if grouped is not None:
        leases.recycle(grouped)
    writes = []
    for q_src in range(p):
        rng = piece_range_of(q_src)
        if rng is None:
            continue
        gstart, length = rng
        pieces = pdm.split_by_owner(gstart, length).get(comm.rank, [])
        got = recv[q_src]
        at = 0
        for (_disk, _off, rel, nn) in pieces:
            writes.append((gstart + rel, got[at : at + nn]))
            at += nn
    writer.put(
        partial(pdm.write_pieces, comm.rank, writes), release=leases.hand_off(*recv)
    )


def pass_final_windows(
    comm: Comm,
    src: ColumnStore,
    pdm: PdmStore,
    fmt: RecordFormat,
    trace: PassTrace | None = None,
    plan: PipelinePlan | None = None,
) -> None:
    """The combined last pass (steps 5+6+7+8).

    Steps 6-8 are realized window-wise: window ``w`` is the bottom half
    of column ``w-1`` followed by the top half of column ``w`` (±∞
    padding at the ends); once sorted (step 7), window ``w`` *is* the
    final output at global ranks ``[w·r − r/2, w·r + r/2)``, so the pass
    writes it straight into PDM position. At ``g = 1`` the step-7 sort
    is a two-run merge after a half-column exchange — the paper's 7
    stages: read, sort, communicate (half exchange), sort, communicate
    (PDM routing), permute, write. At ``g ≥ 2`` see
    :func:`_final_windows_grouped`.
    """
    if src.g > 1:
        _final_windows_grouped(comm, src, pdm, fmt, trace, plan)
        return
    p = comm.size
    r, s = src.r, src.s
    half = r // 2
    n = r * s
    right = (comm.rank + 1) % p
    left = (comm.rank - 1) % p
    rounds = s // p

    def window_range(w: int) -> tuple[int, int]:
        """Final global (start, length) of sorted window w, ±∞ padding
        dropped (step 8)."""
        start, stop = max(0, w * r - half), min(n, w * r + half)
        return start, stop - start

    with pass_pipeline(portion_reads(src, comm.rank), plan, trace) as (
        reader, writer, clock, leases,
    ):
        for t in range(rounds):
            c = t * p + comm.rank
            raw = leases.hold(reader.get())
            with clock.stage(COMPUTE):
                col = fmt.sort(raw, out=leases.lease(fmt.dtype, r))  # step 5
                leases.recycle(raw)
            with clock.stage(COMM):
                # First communicate: bottom half → owner of window c+1.
                comm.send(col[half:], right, tag=WINDOW_TAG)
                upper = None  # window 0's top: −∞ padding
                if t or comm.rank:
                    upper = comm.recv(left, tag=WINDOW_TAG)  # bottom of col c−1
            with clock.stage(COMPUTE):
                merged = leases.lease(fmt.dtype, r)
                halves = fmt.items(merged)
                if upper is None:
                    fmt.pad_low(half, out=merged[:half])
                else:
                    halves[:half] = fmt.items(upper)
                    # Dead; adopting it feeds the grabs of the next
                    # round's half-column sends.
                    leases.recycle(upper)
                halves[half:] = fmt.items(col[:half])
                leases.recycle(col)
                window = fmt.merge_runs(merged, out=leases.lease(fmt.dtype, r))  # step 7
                leases.recycle(merged)
            # Rank q holds window t·P+q this round.
            route_to_pdm(
                comm, pdm, fmt,
                (window_range(c)[0], window[half:] if c == 0 else window),
                lambda q, t=t: window_range(t * p + q),
                writer, clock, leases, piece_lease=window,
            )

        # Window s: the bottom half of the last column followed by +∞
        # padding — already sorted, so rank 0 (its owner) writes it directly.
        tail = None
        if comm.rank == 0:
            with clock.stage(COMM):
                tail = leases.hold(comm.recv(left, tag=WINDOW_TAG))
        route_to_pdm(
            comm, pdm, fmt, None if tail is None else (window_range(s)[0], tail),
            lambda q: window_range(s) if q == 0 else None,
            writer, clock, leases, piece_lease=tail,
        )


def _final_windows_grouped(
    comm: Comm,
    src: ColumnStore,
    pdm: PdmStore,
    fmt: RecordFormat,
    trace: PassTrace | None,
    plan: PipelinePlan | None,
) -> None:
    """Steps 5-8 with columns striped over groups of ``g ≥ 2``.

    Per round each group distributed-sorts its column ``c`` (step 5).
    A column's top half lies with members ``m < g/2`` and its bottom
    half with the rest, so the first out-of-core communicate stage
    shrinks to bottom-half members sending their slice to member ``m``
    of the next group (kept locally when one group owns every column,
    ``g = P``). Window ``c`` is sorted by a second distributed
    columnsort within the group (step 7) over the top-half members' own
    slices and the bottom-half members' received ones, and routed to
    the PDM disk owners. Window 0 is column 0's top half and window
    ``s`` the last column's bottom half: both are sorted already and are
    routed as they stand.
    """
    g, groups = src.g, src.groups
    r, s, portion = src.r, src.s, src.portion
    gid, m = divmod(comm.rank, g)
    bottom = m >= g // 2
    next_rank = ((gid + 1) % groups) * g + m
    prev_rank = ((gid - 1) % groups) * g + m
    incore = ColumnsortPlan(group_comms(comm, g)[0], portion)  # steps 5 and 7 alike

    def piece_range(w: int, q: int) -> tuple[int, int] | None:
        """Final global (start, length) of rank ``q``'s slice of window
        ``w`` (held by ``q``'s group); None where the slice is padding.
        The end windows' halves keep their column's own ranks."""
        mq = q % g
        if w == 0:
            return (mq * portion, portion) if mq < g // 2 else None
        if w == s:
            return ((s - 1) * r + mq * portion, portion) if mq >= g // 2 else None
        return w * r - r // 2 + mq * portion, portion

    def route(w: int, piece: np.ndarray | None, held) -> None:
        """Route this rank's ``piece`` of window ``w`` (a lease, recycled
        once gathered); ``held(k)`` is the window group ``k`` holds
        (None: none)."""
        rng = piece_range(w, comm.rank) if piece is not None else None

        def range_of(q: int) -> tuple[int, int] | None:
            w_q = held(q // g)
            return None if w_q is None else piece_range(w_q, q)

        route_to_pdm(
            comm, pdm, fmt, None if rng is None else (rng[0], piece),
            range_of, writer, clock, leases, piece_lease=piece,
        )

    kept = None  # a bottom-half slice this member holds over to a later window
    with pass_pipeline(portion_reads(src, comm.rank), plan, trace) as (
        reader, writer, clock, leases,
    ):
        for t in range(s // groups):
            c = t * groups + gid
            mine = sort_stage(incore, leases.hold(reader.get()), fmt, leases, clock)
            contribution = mine  # a top half stays with its member
            if bottom and groups == 1:
                contribution, kept = kept, mine
            elif bottom:
                with clock.stage(COMM):
                    if c + 1 < s:
                        comm.send(mine, next_rank, tag=WINDOW_TAG)
                        leases.recycle(mine)
                    else:
                        kept = mine
                    contribution = (
                        leases.hold(comm.recv(prev_rank, tag=WINDOW_TAG))
                        if c else None
                    )
            if c == 0:
                window = contribution
            else:
                with clock.stage(INCORE):
                    window = incore.sort(contribution, fmt, leases)  # step 7
            route(c, window, lambda k, t=t: t * groups + k)
        route(s, kept, lambda k: s if k == groups - 1 else None)


def pass_io_only(
    comm: Comm,
    src: ColumnStore,
    dst: ColumnStore,
    fmt: RecordFormat,
    trace: PassTrace | None = None,
    plan: PipelinePlan | None = None,
) -> None:
    """Read every owned column and write it back — one baseline I/O pass
    (paper §5's 'just the I/O portions' runs)."""
    with pass_pipeline(portion_reads(src, comm.rank), plan, trace) as (
        reader, writer, _clock, leases,
    ):
        for c in range(comm.rank, src.s, comm.size):
            col = reader.get()
            # The lease stays with the write until it retires (ownership
            # rule: nobody may reuse a buffer with a write in flight).
            writer.put(
                partial(dst.write_portion, comm.rank, c, col),
                release=leases.hand_off(col),
            )


# ---------------------------------------------------------------------------
# Run orchestration
# ---------------------------------------------------------------------------


def run_spmd_metered(size: int, program, *args, **kwargs):
    """:func:`run_spmd` plus this run's data-plane copy accounting.

    Returns ``(SpmdResult, copy)`` where ``copy`` is a
    :class:`~repro.membuf.CopyStats` delta dict covering exactly the SPMD
    section (``peak_leases`` is rebased, so it is this run's high-water
    mark). If the world dies mid-pass, buffers leased by the failed
    ranks can never be recycled by their pass bodies — the leases are
    forgotten here so a failure-injection test does not read as a leak.
    """
    stats = copy_stats()
    pool = get_pool()
    stats.rebase_peak(pool.outstanding())
    before = stats.snapshot()
    try:
        res = run_spmd(size, program, *args, **kwargs)
    except BaseException:
        pool.forget_leases()
        raise
    return res, CopyStats.delta(before, stats.snapshot())


def _disk_io(disks: list[VirtualDisk]) -> dict:
    """The disks' I/O counters, summed."""
    return IoStats.total(d.stats.snapshot() for d in disks)


class PassMarker:
    """Synchronized per-pass accounting inside a rank program.

    Call :meth:`mark` at every pass boundary: it persists the
    block-checksum sidecars of this rank's disks, barriers, snapshots
    this rank's communication counters and the aggregate disk I/O, then
    barriers again so no rank races ahead into the next pass while the
    snapshot is taken.

    The disk I/O marks follow ``comm.shared_fabric``: on a shared
    fabric (thread backend) rank 0's view of the disk counters already
    covers every rank's work, so only rank 0 keeps marks; on a
    non-shared fabric (process backend) each rank's fork-copied disk
    stats see only that rank's own I/O, so *every* rank keeps local
    marks and :meth:`io_deltas` sums them across ranks with an
    out-of-band gather — unmetered, so ``CommStats`` stays identical
    between backends.
    """

    def __init__(self, comm: Comm, disks: list[VirtualDisk]) -> None:
        self.comm = comm
        self.disks = disks
        self.owned = disks[comm.rank :: comm.size]  # the disks it writes
        self.comm_marks = [comm.stats.snapshot()]
        self._local_io = not comm.shared_fabric
        self.io_marks = (
            [_disk_io(disks)] if comm.rank == 0 or self._local_io else []
        )
        # Hold every rank here until the baseline snapshots are taken —
        # on the shared fabric a rank that started pass 1 early would
        # leak I/O out of the first pass's delta (rank 0's combine sees
        # every rank's counters). Unmetered, so the baseline comm
        # snapshot above is what a run without the marker would show.
        comm.barrier_oob()

    def mark(self) -> None:
        # The one place a pass's descriptors are closed and its
        # block-checksum sidecars written: each rank flushes the disks
        # it owns (the only ones it wrote) before the boundary, so
        # behind the barrier every object of the finished pass has its
        # sidecar on disk.
        for disk in self.owned:
            disk.flush()
        self.comm.barrier()
        self.comm_marks.append(self.comm.stats.snapshot())
        if self.comm.rank == 0 or self._local_io:
            self.io_marks.append(_disk_io(self.disks))
        self.comm.barrier()

    def comm_deltas(self) -> list[dict]:
        return list(map(CommStats.delta, self.comm_marks, self.comm_marks[1:]))

    def io_deltas(self) -> list[dict]:
        """Per-pass disk-I/O deltas (rank 0; other ranks get ``[]``).

        On a non-shared fabric this is a *collective*: every rank
        contributes its local per-pass deltas through an unmetered
        gather and rank 0 sums them elementwise. All ranks call it
        (the rank program returns it in its result dict), so the
        collective ordering is symmetric by construction.
        """
        local = list(map(IoStats.delta, self.io_marks, self.io_marks[1:]))
        if not self._local_io:
            return local
        gathered = self.comm.gather_oob(local, root=0)
        if gathered is None:
            return []
        return [IoStats.total(per_pass) for per_pass in zip(*gathered)]


# ---------------------------------------------------------------------------
# Pass programs: declarative pass lists, checkpointing, failure cleanup
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PassSpec:
    """One pass of an out-of-core program — the one statement of it,
    for running and for pricing alike.

    ``stages`` is the paper's pipeline shape of the pass (a stage-list
    constructor of :mod:`repro.simulate.trace`) and ``work`` what one
    round pushes through those stages (a ``(record_size, r, s, p, g)``
    builder of :mod:`repro.simulate.traces`) — together the pass's
    structural trace, see :meth:`PassProgram.trace`. ``body`` is the
    pass function that runs, with the shared signature
    ``body(comm, src_store, dst_store, fmt, trace, plan=...)`` (rank 0
    gets the :class:`PassTrace` its measured stage walls land on, the
    others ``None``); ``src`` and ``dst`` are keys into the run's store
    dict.
    """

    name: str
    stages: object
    work: object
    body: object
    src: str
    dst: str


def columnsort_buffers(job: OocJob, g: int) -> Counter:
    """The pool buffers a columnsort program at group size ``g`` holds
    at most at once, by byte size, summed over the ranks — what its run
    reserves (:meth:`PassProgram.buffers`).

    Round buffers: per rank ``2·depth + 6`` of a rank's portion
    (``b = buffer_records`` records) — ``depth`` prefetched plus the
    one the reader holds, ``depth`` round items queued for writing plus
    the one being written (the assembled output, or the lent slices of
    other ranks' packed ``alltoallv`` buffers), and at most four in the
    round itself: the sorted column, the dealt or grouped copy, the
    round's packed ``alltoallv`` buffer and the previous round's, still
    lent to a receiver that has not landed it.

    Half columns (``b/2``): at ``g = 1`` one in flight per rank to its
    neighbour, and rank 0's window 0 and tail — their gathers and two
    packed buffers lent to writers. At ``g ≥ 2`` each pass also keeps
    its in-core plan's working set
    (:class:`~repro.oocs.incore.columnsort_dist.ColumnsortPlan`): on a
    group's first rank a portion and a half-portion gather, on each
    middle rank a portion and a portion gather, on its last rank
    ``3b/2`` records of each, plus two ``3b/2`` delivery buffers;
    ``g − 1`` half portions travel to a neighbour per group, and the
    first rank's two delivery buffers are half portions too."""
    p, depth, size = job.cluster.p, job.pipeline_depth, job.fmt.record_size
    b = job.buffer_records
    half = b // 2
    buffers = Counter({b * size: p * (2 * depth + 6)})
    if g == 1:
        buffers[half * size] += p + 3
    else:
        groups = p // g
        buffers[b * size] += groups * (1 + 2 * (g - 2))
        buffers[half * size] += groups * (g + 2)
        buffers[3 * half * size] += groups * 4
    return buffers


def io_only_buffers(job: OocJob, g: int) -> Counter:
    """The pool buffers :func:`pass_io_only` holds at most at once: per
    rank ``depth`` prefetched plus the one the reader holds, the one
    handed to the writer and ``depth`` queued behind the one being
    written — ``2·depth + 3`` columns."""
    return Counter(
        {job.buffer_bytes: job.cluster.p * (2 * job.pipeline_depth + 3)}
    )


@dataclass(frozen=True)
class PassProgram:
    """One out-of-core program, as :func:`run_pass_program` needs it.

    ``name`` labels the result, the trace and the checkpoint manifests
    (``{g}`` in it stands for the resolved group size);
    ``derive_shape(job)`` resolves and validates the ``r × s`` matrix;
    ``passes`` run in order over stores named by their ``src``/``dst``
    keys — ``"input"``, the intermediates (on disk ``<scratch>-<key>``)
    and ``"output"``. The column stores stripe each column over a group
    of ``g = r / buffer`` processors (``r = g·M/P``; whole columns at
    ``g = 1``). The output is PDM-ordered unless ``pdm_output`` is off
    (the I/O-only baseline writes columns). ``demand(job, g)`` declares
    the pool buffers a run holds at most at once (see :meth:`buffers`).
    """

    name: str
    passes: list[PassSpec]
    derive_shape: object
    scratch: str
    pdm_output: bool = True
    demand: object = columnsort_buffers

    def layout(self, job: OocJob) -> tuple[int, int, int]:
        """``(r, s, group size)`` of the program's column stores for
        ``job``."""
        r, s = self.derive_shape(job)
        g = r // job.buffer_records
        if job.group_size not in (None, g):
            raise ConfigError(
                f"{self.name.format(g=g)} does not run at group size "
                f"{job.group_size}"
            )
        return r, s, g

    def buffers(self, job: OocJob) -> dict[int, int]:
        """The run's statement of its memory: pool buffers by byte size
        (over all ranks) that no moment of a run of ``job`` exceeds.
        :func:`run_pass_program` reserves exactly these, and admission
        charges their bytes (:func:`repro.oocs.api.job_demands`)."""
        return dict(self.demand(job, self.layout(job)[2]))

    def stores(self, job: OocJob, input_store) -> dict:
        """The run's store dict: ``input_store`` (checked against the
        job's layout) plus one fresh store per pass output, on the
        input's disks."""
        r, s, g = self.layout(job)
        have = (input_store.r, input_store.s, input_store.g)
        if have != (r, s, g):
            raise ConfigError(
                f"input store is {have[0]}×{have[1]} (group size {have[2]}), "
                f"job wants {r}×{s} (group size {g})"
            )
        cluster, fmt, disks = job.cluster, job.fmt, input_store.disks
        stores = {"input": input_store}
        for spec in self.passes:
            if spec.dst == "output" and self.pdm_output:
                # One buffer's worth of output stripes across all
                # processors' disks.
                stores[spec.dst] = PdmStore(
                    cluster, fmt, job.n, disks,
                    max(1, job.buffer_records // cluster.p), name="output",
                )
            else:
                stores[spec.dst] = ColumnStore(
                    cluster, fmt, r, s, disks, name=f"{self.scratch}-{spec.dst}",
                    group_size=g,
                )
        return stores

    def trace(self, job: OocJob) -> RunTrace:
        """The structural trace of ``job`` — the only source of traces:
        every pass has ``s / (P/g)`` rounds (each group takes one of its
        columns per round) of its spec's per-round work. A live run adds
        the measured stage walls; pricing a configuration
        (:func:`repro.oocs.api.analytic_trace`) needs nothing else."""
        r, s, g = self.layout(job)
        p, record_size = job.cluster.p, job.fmt.record_size
        rounds = s // (p // g)
        return RunTrace(
            algorithm=self.name.format(g=g),
            n_records=job.n,
            record_size=record_size,
            p=p,
            buffer_bytes=job.buffer_bytes,
            passes=[
                PassTrace(
                    spec.name, spec.stages(),
                    [spec.work(record_size, r, s, p, g)] * rounds,
                )
                for spec in self.passes
            ],
        )


def execute_passes(
    comm: Comm,
    job: OocJob,
    stores: dict,
    program: PassProgram,
    collect_trace: bool = True,
    checkpoint=None,
    start_pass: int = 0,
    governor=None,
) -> dict:
    """The shared SPMD rank program: run ``program``'s passes in order
    over ``stores``, with per-pass accounting and optional pass-boundary
    checkpoints. Rank 0 returns the run's trace (``None`` without
    ``collect_trace``): :meth:`PassProgram.trace` cut down to the passes
    executed here, each carrying its measured stage walls.

    ``start_pass`` passes are skipped at the front (their output already
    sits on disk — the resume path, validated by
    :meth:`~repro.resilience.checkpoint.CheckpointStore.resume_index`).
    After each completed pass, every rank's writes are on disk (each
    pass drains its write-behind pool, and :class:`PassMarker` barriers),
    so rank 0 persists the manifest *inside* the boundary and a final
    barrier keeps any rank from outrunning a manifest that is not yet
    durable.

    With ``job.audit`` set, rank 0 additionally runs a
    :class:`~repro.durability.audit.PassAuditor` over each pass's output
    store at the boundary — *before* the manifest is written, so a pass
    whose output violates a columnsort invariant fails the run instead
    of becoming a resume point. (Audit reads are metered store reads;
    the byte-exact pass-count tests therefore run with auditing off.)

    Every pass runs at the job's plan (``job.pipeline_plan()``). With
    ``governor`` (the run's :class:`~repro.governor.RunGovernor`) set,
    each pass start updates the governor's live-store bookkeeping.
    ``job.cancel`` makes every pass boundary a
    cancellation point, checked *after* the boundary's checkpoint is
    persisted so a cancelled run always resumes from the pass it
    finished last.
    """
    fmt = job.fmt
    plan = job.pipeline_plan()
    specs = program.passes
    algorithm = program.name.format(g=stores["input"].g)
    run_trace = program.trace(job) if comm.rank == 0 and collect_trace else None
    marker = PassMarker(comm, stores["input"].disks)
    auditor = None
    if job.audit and comm.rank == 0:
        from repro.durability import PassAuditor

        auditor = PassAuditor()
    total = len(specs)
    for index, spec in enumerate(specs, start=1):
        if index <= start_pass:
            continue
        if job.cancel is not None:
            job.cancel.check()
        if governor is not None:
            governor.begin_pass(index)
        trace = run_trace.passes[index - 1] if run_trace is not None else None
        spec.body(comm, stores[spec.src], stores[spec.dst], fmt, trace, plan=plan)
        marker.mark()
        if job.audit:
            if auditor is not None:
                if not comm.shared_fabric:
                    # The other ranks wrote their disks in their own
                    # processes and flushed sizes and sidecars at the
                    # boundary: this process's copies are stale.
                    for disk in marker.disks:
                        if disk not in marker.owned:
                            disk.refresh()
                auditor.audit_pass(algorithm, stores[spec.dst], index, total)
            comm.barrier()  # no rank outruns a failed audit
        if checkpoint is not None:
            if comm.rank == 0:
                checkpoint.save_pass(job, algorithm, index, total, stores[spec.dst])
            comm.barrier()
        if job.cancel is not None:
            # Boundary cancellation point — after the checkpoint is
            # durable, so a cancelled run resumes from this pass.
            job.cancel.pass_boundary(index)
            job.cancel.check()
    if run_trace is not None:
        del run_trace.passes[:start_pass]
    return {
        "trace": run_trace,
        "comm_per_pass": marker.comm_deltas(),
        "io_per_pass": marker.io_deltas(),
        "audited_passes": auditor.audited_passes if auditor is not None else 0,
        "audited_units": auditor.audited_units if auditor is not None else 0,
    }


def attach_resilience(disks: list[VirtualDisk], job: OocJob) -> None:
    """Install the job's retry policy / fault plan on every disk (without
    clobbering a plan a test armed directly on a disk)."""
    for disk in disks:
        if job.retry_policy is not None:
            disk.retry_policy = job.retry_policy
        if job.fault_plan is not None:
            disk.fault_plan = job.fault_plan


def cleanup_failed_run(stores: dict, checkpoint=None) -> None:
    """Delete the scratch stores of a failed run.

    The input store always survives (so the caller can retry), and any
    store a checkpoint manifest references survives (so a resume stays
    possible); everything else the run created is garbage and is
    removed. Best-effort: cleanup must never mask the original failure.
    """
    protected = checkpoint.protected_stores() if checkpoint is not None else set()
    for key, store in stores.items():
        if key == "input" or store.name in protected:
            continue
        try:
            store.delete()
        except Exception:
            pass


def run_pass_program(
    program: PassProgram,
    job: OocJob,
    input_store,
    collect_trace: bool = True,
    keep_intermediates: bool = False,
) -> OocResult:
    """The one way a pass program runs: check ``input_store`` (built by
    :func:`make_workspace`) against the job's layout and create the
    pass outputs beside it, resolve the resume point, run
    :func:`execute_passes` across the SPMD world with the job's
    resilience settings, account I/O and communication, clean up
    (differently for success and failure), and assemble the
    :class:`OocResult` — whose ``output`` is, for a sort, a PDM-ordered
    :class:`~repro.disks.matrixfile.PdmStore` on the same disks.
    Intermediate stores are deleted unless ``keep_intermediates`` (the
    paper's disk budget was 3× the input size: input + temporary +
    output, footnote 7).

    Checkpointing follows the job's ``checkpoint_dir`` / ``resume`` /
    ``keep_checkpoints``. On failure, scratch stores not referenced by
    a manifest are deleted; on success the intermediates are deleted
    (unless ``keep_intermediates``) and the checkpoint directory is
    pruned (unless ``job.keep_checkpoints`` — the two lifecycles are
    independent: a successful run retires its checkpoints no matter
    what it keeps for debugging).

    The run first reserves its declared buffers in the process's pool
    (:meth:`PassProgram.buffers`); every take of the run is served
    from them, and a budget (``--mem-budget``) too small to hold them
    raises :class:`~repro.errors.BudgetExceeded` before any rank starts.
    """
    from repro.governor import RunGovernor, attach_governor
    from repro.resilience.checkpoint import CheckpointStore

    stores = program.stores(job, input_store)
    algorithm = program.name.format(g=input_store.g)
    disks = input_store.disks
    attach_resilience(disks, job)
    ckpt = (
        CheckpointStore(job.checkpoint_dir)
        if job.checkpoint_dir is not None
        else None
    )
    start_pass = 0
    if ckpt is not None:
        if job.resume:
            start_pass = ckpt.resume_index(job, algorithm, stores)
        else:
            ckpt.clear()

    run_governor = RunGovernor(stores, program.passes, cancel=job.cancel)
    attach_governor(disks, run_governor)
    pool = get_pool()
    pool.reset_budget_accounting()
    # One snapshot before *all* attempts: the run's reported I/O
    # includes what a crashed attempt wasted, which is the honest cost
    # of the recovery.
    io_before = _disk_io(disks)

    supervisor = None
    if job.restart_policy is not None:
        from repro.resilience.supervisor import RunSupervisor

        supervisor = RunSupervisor(job.restart_policy, cancel=job.cancel)

    def attempt():
        nonlocal start_pass
        if supervisor is not None and supervisor.stats.attempts:
            # A relaunch resumes after the last pass whose manifest (and
            # on-disk store digest) survived the crash — from scratch
            # when the job keeps no checkpoints.
            start_pass = (
                ckpt.resume_index(job, algorithm, stores)
                if ckpt is not None
                else 0
            )
            supervisor.stats.attempts[-1]["resumed_from_pass"] = start_pass
        return run_spmd_metered(
            job.cluster.p,
            execute_passes,
            job,
            stores,
            program,
            collect_trace=collect_trace,
            checkpoint=ckpt,
            start_pass=start_pass,
            governor=run_governor,
            watchdog_deadline=job.watchdog_deadline,
            fault_plan=job.fault_plan,
            retry_policy=job.retry_policy,
            cancel=job.cancel,
            backend=job.backend,
            disks=disks,
        )

    def between_attempts(restart: int, exc: BaseException) -> None:
        # Sweep everything the dead attempt could poison the next one
        # with. Pool leases were already forgotten by run_spmd_metered's
        # unwind; the transport joined/terminated the cohort and swept
        # its reported segments before raising.
        cleanup_failed_run(stores, ckpt)  # un-checkpointed scratch
        for store in stores.values():
            # Stale append cursors would corrupt a re-run of a dealing
            # pass (its writes append); the files they described were
            # just deleted.
            if isinstance(store, ColumnStore):
                store.reset_cursors()
        if job.backend == "process":
            from repro.cluster.process_backend import sweep_stale_segments

            sweep_stale_segments()

    reservation = None
    try:
        reservation = pool.reserve(program.buffers(job))
        if supervisor is not None:
            res, copy = supervisor.run(attempt, on_restart=between_attempts)
        else:
            res, copy = attempt()
    except BaseException:
        cleanup_failed_run(stores, ckpt)
        raise
    finally:
        if reservation is not None:
            reservation.release()
        attach_governor(disks, None)
        for disk in disks:
            # A pass that died mid-way never reached its boundary.
            disk.close_handles()
    io = IoStats.delta(io_before, _disk_io(disks))

    rank0 = res.returns[0]
    if not keep_intermediates:
        for key, store in stores.items():
            if key not in ("input", "output"):
                store.delete()
    if ckpt is not None and not job.keep_checkpoints:
        ckpt.prune()  # a finished run's checkpoints are garbage

    durability: dict = {}
    if job.audit:
        durability["audited_passes"] = rank0["audited_passes"]
        durability["audited_units"] = rank0["audited_units"]

    governance = run_governor.snapshot()
    governance.update(pool.budget_snapshot())
    if job.cancel is not None:
        governance["cancel_checks"] = job.cancel.checks
        governance["deadline_s"] = job.cancel.deadline_s

    comm_total = CommStats.total(s.snapshot() for s in res.stats)
    comm_total["retries"] = res.comm_retries
    return OocResult(
        algorithm=algorithm,
        job=job,
        output=stores["output"],
        passes=len(program.passes),
        io=io,
        io_per_pass=rank0["io_per_pass"],
        comm_per_pass=rank0["comm_per_pass"],
        comm_total=comm_total,
        copy=copy,
        durability=durability,
        governor=governance,
        supervisor=supervisor.stats.as_dict() if supervisor is not None else {},
        trace=rank0["trace"],
    )

