"""M-columnsort: 3 passes with the height interpretation ``r = M``
(paper §4).

Each out-of-core column holds ``M`` records — the whole cluster's
memory — striped across all processors (each holds ``M/P`` of every
column). The per-pass sort stage becomes a distributed in-core
columnsort on an ``(M/P) × P`` matrix, and because every processor owns
a portion of every column, the in-core sort's final communication step
can deliver each processor exactly the sorted ranks it must write into
its own portions of the target columns — eliminating the out-of-core
communicate stage in passes 1-2 and one of the two in the last pass.

The payoff is problem-size restriction (3), ``N ≤ M^(3/2)/√2``: the
maximum problem size now scales (superlinearly) with the *total* memory
of the system, so adding processors grows the reachable ``N`` even at
fixed memory per processor — up to a terabyte on the paper's 16-node
configuration.

Pipelines: passes 1-2 have 11 stages on 4 threads (read+write, permute,
in-core local sort, in-core communication); the last pass has 20 stages
on 7 threads.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.cluster.comm import Comm
from repro.columnsort.validation import out_of_core_shape
from repro.disks.matrixfile import ColumnStore, PdmStore
from repro.errors import ConfigError
from repro.oocs.base import (
    OocJob,
    PassProgram,
    PassSpec,
    pass_pipeline,
    portion_reads,
    route_to_pdm,
)
from repro.oocs.incore.columnsort_dist import ColumnsortPlan
from repro.oocs.incore.common import Ranges
from repro.pipeline import COMPUTE, INCORE, PipelinePlan
from repro.records.format import RecordFormat
from repro.simulate.trace import (
    PassTrace,
    eleven_stage_pipeline,
    twenty_stage_pipeline,
)
from repro.simulate.traces import (
    m_balanced_round_work,
    m_final_round_work,
    m_scattered_round_work,
)


def derive_shape(job: OocJob) -> tuple[int, int]:
    """The ``r × s`` matrix of an M-columnsort job — grid point
    ``(g = P, r ≥ 2s²)``: ``r = M = P · buffer``, subject to the outer
    restriction ``M ≥ 2s²``, the inner one ``M/P ≥ 2P²`` and
    ``s | M/P``."""
    p = job.cluster.p
    if p < 2:
        raise ConfigError(
            "M-columnsort needs P ≥ 2 (with one processor it degenerates "
            "to threaded columnsort)"
        )
    return out_of_core_shape(job.n, p, job.buffer_records, g=p)


# ---------------------------------------------------------------------------
# Pass bodies
# ---------------------------------------------------------------------------

def _pass1_m(
    comm: Comm,
    src: ColumnStore,
    dst: ColumnStore,
    fmt: RecordFormat,
    trace: PassTrace | None,
    plan: PipelinePlan | None = None,
) -> None:
    """Steps 1+2 with ``r = M``: one round per column; the distributed
    sort delivers balanced contiguous sorted ranges, whose records each
    rank deals into its own portions of the ``s`` target columns
    (sorted rank ``i`` → target column ``i mod s``)."""
    s = src.s
    portion = src.portion
    share = portion // s
    incore = ColumnsortPlan(comm, portion)
    with pass_pipeline(portion_reads(src, comm.rank), plan, trace) as (
        reader, writer, clock, leases,
    ):
        for c in range(s):
            local = leases.hold(reader.get())
            with clock.stage(INCORE):
                mine = incore.sort(local, fmt)
                leases.recycle(local)  # the unsorted portion is dead
            with clock.stage(COMPUTE):
                # This rank's sorted ranks start at a multiple of s (s |
                # portion), so local row j·s + k is bound for column k:
                # one transposing copy groups the round by target.
                grouped = leases.lease(fmt.dtype, portion)
                by_target = grouped.reshape(s, share)
                by_target[:] = mine.reshape(share, s).T
            writer.put(
                *[
                    partial(dst.append_to_portion, comm.rank, k, by_target[k])
                    for k in range(s)
                ],
                release=leases.hand_off(grouped),
            )


def _pass2_m(
    comm: Comm,
    src: ColumnStore,
    dst: ColumnStore,
    fmt: RecordFormat,
    trace: PassTrace | None,
    plan: PipelinePlan | None = None,
) -> None:
    """Steps 3+4 with ``r = M``: sorted chunk ``m`` (ranks
    ``[m·M/s, (m+1)·M/s)``) belongs to target column ``m``; the in-core
    sort delivers each rank the ``q``-th ``1/P`` slice of every chunk,
    which it appends to its own portion of the corresponding column —
    keeping all portions balanced at ``M/P`` records."""
    p, r, s = comm.size, src.r, src.s
    chunk = r // s
    piece = chunk // p
    ranges: Ranges = [
        [(m * chunk + q * piece, m * chunk + (q + 1) * piece) for m in range(s)]
        for q in range(p)
    ]
    incore = ColumnsortPlan(comm, src.portion, ranges)
    with pass_pipeline(portion_reads(src, comm.rank), plan, trace) as (
        reader, writer, clock, leases,
    ):
        for c in range(s):
            local = leases.hold(reader.get())
            with clock.stage(INCORE):
                mine = incore.sort(local, fmt)
                leases.recycle(local)
            writer.put(
                *[
                    partial(
                        dst.append_to_portion, comm.rank, m,
                        mine[m * piece : (m + 1) * piece],
                    )
                    for m in range(s)
                ]
            )


def _pass3_m(
    comm: Comm,
    src: ColumnStore,
    pdm: PdmStore,
    fmt: RecordFormat,
    trace: PassTrace | None,
    plan: PipelinePlan | None = None,
) -> None:
    """Steps 5-8 with ``r = M``, window-wise.

    Window ``w`` = bottom half of column ``w−1`` + top half of column
    ``w``; once sorted it occupies final global ranks
    ``[w·M − M/2, w·M + M/2)``. Per round: distributed sort of column
    ``c`` (step 5); ranks in the top half contribute their slices and
    ranks in the bottom half contribute the slices they retained from
    column ``c−1`` to a second distributed sort (step 7; this is where
    the first out-of-core communicate stage disappears — the halves are
    already distributed); the surviving communicate routes the sorted
    window to PDM disk owners. Windows 0 and ``s`` carry ±∞ padding and
    reduce to direct writes of already-sorted halves.
    """
    p, r, s = comm.size, src.r, src.s
    portion = src.portion
    half_ranks = p // 2
    retained: np.ndarray | None = None
    incore = ColumnsortPlan(comm, portion)  # steps 5 and 7 alike
    with pass_pipeline(portion_reads(src, comm.rank), plan, trace) as (
        reader, writer, clock, leases,
    ):
        for c in range(s):
            local = leases.hold(reader.get())
            with clock.stage(INCORE):
                mine = incore.sort(local, fmt)  # step 5
                leases.recycle(local)
            if c == 0:
                # Window 0: −∞ padding + top(col 0) → its kept half is just
                # the sorted top half, final ranks [0, M/2).
                piece = (
                    (comm.rank * portion, mine) if comm.rank < half_ranks else None
                )
                route_to_pdm(
                    comm, pdm, fmt, piece,
                    lambda q: (q * portion, portion) if q < half_ranks else None,
                    writer, clock, leases,
                )
            else:
                contribution = mine if comm.rank < half_ranks else retained
                with clock.stage(INCORE):
                    wsorted = incore.sort(contribution, fmt)  # step 7
                base = c * r - r // 2

                def range_of(q: int, base=base) -> tuple[int, int]:
                    return (base + q * portion, portion)

                route_to_pdm(
                    comm, pdm, fmt, (base + comm.rank * portion, wsorted),
                    range_of, writer, clock, leases,
                )
            retained = mine if comm.rank >= half_ranks else None

        # Window s: bottom(col s−1) + +∞ padding — already sorted; final
        # ranks [(s−1)·M + q·M/P, …) for the bottom-half ranks.
        piece = (
            ((s - 1) * r + comm.rank * portion, retained)
            if comm.rank >= half_ranks
            else None
        )
        route_to_pdm(
            comm, pdm, fmt, piece,
            lambda q: ((s - 1) * r + q * portion, portion) if q >= half_ranks else None,
            writer, clock, leases,
        )


#: The 3-pass program, declaratively (see
#: :class:`~repro.oocs.base.PassSpec`).
PASSES = [
    PassSpec("pass1:steps1-2", eleven_stage_pipeline, m_balanced_round_work,
             _pass1_m, "input", "t1"),
    PassSpec("pass2:steps3-4", eleven_stage_pipeline, m_scattered_round_work,
             _pass2_m, "t1", "t2"),
    PassSpec("pass3:steps5-8", twenty_stage_pipeline, m_final_round_work,
             _pass3_m, "t2", "output"),
]

#: What :func:`~repro.oocs.base.run_pass_program` runs: columns striped
#: over the whole cluster (group size ``P``).
PROGRAM = PassProgram("m-columnsort", PASSES, derive_shape, scratch="m")
