"""Threaded columnsort: the paper's 3-pass baseline program.

Pass 1 performs columnsort steps 1+2, pass 2 steps 3+4, and pass 3 the
combined steps 5-8 (the third implementation of [CC02], which all of
the paper's algorithms start from). Column height is interpreted as
``r = M/P`` — each column must fit in one processor's memory — which
yields the problem-size restriction (1):
``N ≤ (M/P)^(3/2) / √2``.
"""

from __future__ import annotations

from repro.columnsort.validation import out_of_core_shape
from repro.oocs.base import (
    OocJob,
    PassProgram,
    PassSpec,
    pass_final_windows,
    pass_step2_deal,
    pass_step4_deal,
)
from repro.simulate.trace import five_stage_pipeline, seven_stage_pipeline
from repro.simulate.traces import deal_round_work, final_round_work


def derive_shape(job: OocJob) -> tuple[int, int]:
    """The ``r × s`` matrix of a threaded-columnsort job — grid point
    ``(g = 1, r ≥ 2s²)`` of
    :func:`~repro.columnsort.validation.out_of_core_shape`: ``r`` is the
    buffer, and ``r ≥ 2s²`` with ``r ≤ M/P`` is exactly restriction (1)."""
    return out_of_core_shape(job.n, job.cluster.p, job.buffer_records, g=1)


#: The 3-pass program, declaratively (see
#: :class:`~repro.oocs.base.PassSpec`).
PASSES = [
    PassSpec("pass1:steps1-2", five_stage_pipeline, deal_round_work,
             pass_step2_deal, "input", "t1"),
    PassSpec("pass2:steps3-4", five_stage_pipeline, deal_round_work,
             pass_step4_deal, "t1", "t2"),
    PassSpec("pass3:steps5-8", seven_stage_pipeline, final_round_work,
             pass_final_windows, "t2", "output"),
]

#: What :func:`~repro.oocs.base.run_pass_program` runs: whole columns,
#: intermediates ``thr-t1`` / ``thr-t2``.
PROGRAM = PassProgram("threaded", PASSES, derive_shape, scratch="thr")
