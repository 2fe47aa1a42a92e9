"""Hybrid columnsort: subblock + M combined (paper §6, future work).

The paper's first future-work item: "combine subblock columnsort and
M-columnsort into one four-pass algorithm which has a problem-size
bound of N ≤ M^(5/3)/4^(2/3), i.e., restriction (2) but with M/P
replaced by M."

Construction: M-columnsort's height interpretation (``r = M``, columns
striped across the cluster, distributed in-core sort stages) carrying
subblock columnsort's step sequence (the subblock pass inserted as an
extra pass, relaxing the outer height restriction to ``M ≥ 4·s^(3/2)``
with ``s`` a power of 4).

The subblock permutation composes cleanly with the striped layout:
after the step-3 distributed sort, the record at sorted rank ``i`` of
column ``c`` belongs to target column ``(c mod √s) + (i mod √s)·√s``;
each rank's balanced slice contains ``M/(P·√s)`` records for each of
the ``√s`` target columns, which it appends to its own portions — so
the subblock pass, like the deal passes, needs no out-of-core
communicate stage at all in this regime.
"""

from __future__ import annotations

from functools import partial

from repro.cluster.comm import Comm
from repro.columnsort.validation import out_of_core_shape
from repro.disks.matrixfile import ColumnStore
from repro.errors import ConfigError
from repro.matrix.bits import sqrt_pow4
from repro.oocs.base import (
    OocJob,
    PassProgram,
    PassSpec,
    pass_pipeline,
    portion_reads,
)
from repro.oocs.incore.columnsort_dist import ColumnsortPlan
from repro.oocs.mcolumnsort import _pass1_m, _pass2_m, _pass3_m
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
    """The ``r × s`` matrix of a hybrid job — grid point
    ``(g = P, relaxed)``: ``r = M``, ``s = N/M`` a power of 4 and
    ``M ≥ 4·s^(3/2)``, giving bound ``N ≤ M^(5/3)/4^(2/3)``."""
    p = job.cluster.p
    if p < 2:
        raise ConfigError("hybrid columnsort needs P ≥ 2")
    return out_of_core_shape(job.n, p, job.buffer_records, g=p, relaxed=True)


def _pass_subblock_m(
    comm: Comm,
    src: ColumnStore,
    dst: ColumnStore,
    fmt: RecordFormat,
    trace: PassTrace | None,
    plan: PipelinePlan | None = None,
) -> None:
    """The subblock pass under ``r = M``: distributed sort (step 3) then
    the subblock permutation (step 3.1) applied by sorted rank."""
    s = src.s
    t = sqrt_pow4(s)
    portion = src.portion
    share = portion // t
    incore = ColumnsortPlan(comm, portion)
    with pass_pipeline(portion_reads(src, comm.rank), plan, trace) as (
        reader, writer, clock, leases,
    ):
        for c in range(s):
            local = leases.hold(reader.get())
            with clock.stage(INCORE):
                mine = incore.sort(local, fmt)  # step 3
                leases.recycle(local)
            with clock.stage(COMPUTE):
                # Row class x = sorted rank mod √s (√s | portion, so it is
                # the local row mod √s); class k is bound for column
                # (c mod √s) + k·√s. One transposing copy groups them.
                grouped = leases.lease(fmt.dtype, portion)
                by_class = grouped.reshape(t, share)
                by_class[:] = mine.reshape(share, t).T
            writer.put(
                *[
                    partial(
                        dst.append_to_portion, comm.rank, c % t + k * t, by_class[k]
                    )
                    for k in range(t)
                ],
                release=leases.hand_off(grouped),
            )


#: The 4-pass program, declaratively (see
#: :class:`~repro.oocs.base.PassSpec`).
PASSES = [
    PassSpec("pass1:steps1-2", eleven_stage_pipeline, m_balanced_round_work,
             _pass1_m, "input", "t1"),
    PassSpec("pass2:steps3+3.1(subblock)", eleven_stage_pipeline,
             m_balanced_round_work, _pass_subblock_m, "t1", "t2"),
    PassSpec("pass3:steps3.2+4", eleven_stage_pipeline, m_scattered_round_work,
             _pass2_m, "t2", "t3"),
    PassSpec("pass4:steps5-8", twenty_stage_pipeline, m_final_round_work,
             _pass3_m, "t3", "output"),
]

#: What :func:`~repro.oocs.base.run_pass_program` runs — the largest
#: problem-size bound of all the variants, ``N ≤ M^(5/3)/4^(2/3)``.
PROGRAM = PassProgram("hybrid", PASSES, derive_shape, scratch="hy")
