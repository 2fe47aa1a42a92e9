"""Every columnsort program, as a point of one grid (paper §2-§4, §6).

The paper's programs differ in two independent choices, and
:func:`columnsort_program` builds the pass list of any point:

* the *height interpretation* ``r = g·M/P``. The ``P`` processors form
  ``G = P/g`` groups; each column is owned by one group and striped over
  its ``g`` members, and every sort stage is a distributed in-core
  columnsort within the owning group;
* the *height restriction*: basic columnsort's ``r ≥ 2s²`` (3 passes),
  or subblock columnsort's relaxed ``r ≥ 4·s^(3/2)`` with ``s`` a power
  of 4, which inserts the subblock pass (4 passes).

Every point runs the same four bodies —
:func:`~repro.oocs.base.pass_step2_deal`,
:func:`~repro.oocs.subblock.pass_subblock`,
:func:`~repro.oocs.base.pass_step4_deal` and
:func:`~repro.oocs.base.pass_final_windows`, each reading ``g`` from its
store — and :data:`~repro.oocs.api.ALGORITHMS` names five points:

* **threaded** ``(g = 1, basic)`` — the 3-pass baseline program, the
  third implementation of [CC02] that all of the paper's algorithms
  start from. Pass 1 performs steps 1+2, pass 2 steps 3+4, pass 3 the
  combined steps 5-8. Each column must fit in one processor's memory,
  which yields restriction (1): ``N ≤ (M/P)^(3/2)/√2``.

* **subblock** ``(g = 1, relaxed)`` — §3. The 10-step subblock
  columnsort maps onto the 3-pass program plus one extra pass:

  ======  ==========================  ================================
  pass    columnsort steps            pipeline
  ======  ==========================  ================================
  1       1 + 2                       5-stage (deal)
  2       3 + 3.1 (subblock pass)     5-stage (subblock permutation)
  3       3.2 + 4                     5-stage (deal)
  4       5 + 6 + 7 + 8               7-stage (windows)
  ======  ==========================  ================================

  It handles matrices up to a factor ``√s/2`` shorter — restriction (2),
  ``N ≤ (M/P)^(5/3)/4^(2/3)`` — at the price of one extra pass of disk
  I/O; the paper measures it at roughly 4/3 the time of threaded
  columnsort, I/O-bound either way.

* **m** ``(g = P, basic)`` — M-columnsort, §4. Each out-of-core column
  holds ``M`` records — the whole cluster's memory — striped across all
  processors. The sort stage becomes a distributed in-core columnsort
  on an ``(M/P) × P`` matrix, and because every processor owns a
  portion of every column, its final communication step delivers each
  processor exactly the sorted ranks it must write into its own
  portions of the target columns — eliminating the out-of-core
  communicate stage in passes 1-2 and one of the two in the last pass.
  The payoff is restriction (3), ``N ≤ M^(3/2)/√2``: the reachable
  problem size scales (superlinearly) with the *total* memory, up to a
  terabyte on the paper's 16-node configuration. Passes 1-2 have 11
  stages on 4 threads (read+write, permute, in-core local sort,
  in-core communication); the last pass has 20 stages on 7 threads.

* **hybrid** ``(g = P, relaxed)`` — §6's first future-work item:
  "combine subblock columnsort and M-columnsort into one four-pass
  algorithm which has a problem-size bound of N ≤ M^(5/3)/4^(2/3),
  i.e., restriction (2) but with M/P replaced by M." The subblock
  permutation composes cleanly with the striped layout: after the
  step-3 distributed sort, each rank's balanced slice holds
  ``M/(P·√s)`` records of each of the ``√s`` target columns, which it
  appends to its own portions — so the subblock pass, like the deal
  passes, needs no out-of-core communicate stage in this regime.

* **g** ``(g, basic)`` — §6's second future-work item: "The closer the
  height interpretation is to r = M/P, the less communication overhead
  is incurred during the sort stages. We will develop an
  implementation that allows for values of r between M/P and M,
  depending on the problem size N for a given run." The restriction
  interpolates between (1) and (3), ``N ≤ (g·M/P)^(3/2)/√2``: at
  ``g = 1`` it is threaded columnsort (local sorts, no sort-stage
  communication, smallest bound), at ``g = P`` M-columnsort (no
  out-of-core communicate stage, largest bound), and in between the
  sort-stage communication is confined to ``g`` ranks while the deal
  still crosses groups — the tunable trade the paper anticipated.
  ``OocJob.group_size`` picks ``g``; by default the smallest that
  realizes ``N``.

Pricing follows the sort stage: at ``g = 1`` the passes are priced
with [CC02]'s 5- and 7-stage pipelines, otherwise with §4's 11- and
20-stage ones, the group as the in-core cluster (``g``'s program is
priced that way at every ``g``).
"""

from __future__ import annotations

from functools import partial

from repro.columnsort.validation import out_of_core_shape
from repro.errors import ConfigError, DimensionError
from repro.oocs.base import (
    OocJob,
    PassProgram,
    PassSpec,
    pass_final_windows,
    pass_step2_deal,
    pass_step4_deal,
)
from repro.oocs.subblock import pass_subblock
from repro.simulate.trace import (
    eleven_stage_pipeline,
    five_stage_pipeline,
    seven_stage_pipeline,
    twenty_stage_pipeline,
)
from repro.simulate.traces import (
    deal_round_work,
    final_round_work,
    m_balanced_round_work,
    m_final_round_work,
    m_scattered_round_work,
    subblock_round_work,
)

#: Group size "the whole cluster" (``g = P``), M-columnsort's height
#: interpretation ``r = M``.
WHOLE_CLUSTER = "P"

#: Per pass kind: its body, then its ``(stages, work)`` priced with a
#: local sort stage and with a distributed one.
KINDS = {
    "deal2": (
        pass_step2_deal,
        (five_stage_pipeline, deal_round_work),
        (eleven_stage_pipeline, m_balanced_round_work),
    ),
    "subblock": (
        pass_subblock,
        (five_stage_pipeline, subblock_round_work),
        (eleven_stage_pipeline, m_balanced_round_work),
    ),
    "deal4": (
        pass_step4_deal,
        (five_stage_pipeline, deal_round_work),
        (eleven_stage_pipeline, m_scattered_round_work),
    ),
    "final": (
        pass_final_windows,
        (seven_stage_pipeline, final_round_work),
        (twenty_stage_pipeline, m_final_round_work),
    ),
}

#: (pass name, kind) of the basic and the relaxed program.
BASIC = [
    ("pass1:steps1-2", "deal2"),
    ("pass2:steps3-4", "deal4"),
    ("pass3:steps5-8", "final"),
]
RELAXED = [
    ("pass1:steps1-2", "deal2"),
    ("pass2:steps3+3.1(subblock)", "subblock"),
    ("pass3:steps3.2+4", "deal4"),
    ("pass4:steps5-8", "final"),
]


def derive_shape(job: OocJob, g, relaxed: bool) -> tuple[int, int]:
    """The ``r × s`` matrix of ``job`` at grid point ``(g, relaxed)`` of
    :func:`~repro.columnsort.validation.out_of_core_shape`. ``g`` is a
    group size, :data:`WHOLE_CLUSTER`, or ``None``: the job's
    ``group_size``, else the smallest ``g`` that realizes ``N`` — walked
    upward from ``g = 1``, the refusal of the last one tried named."""
    n, p, buffer = job.n, job.cluster.p, job.buffer_records
    if g == WHOLE_CLUSTER:
        if p < 2:
            raise ConfigError(
                "g = P needs P ≥ 2 (with one processor it is g = 1)"
            )
        g = p
    if g is None:
        g = job.group_size
    if g is not None:
        return out_of_core_shape(n, p, buffer, g, relaxed)
    g = 1
    while True:
        try:
            return out_of_core_shape(n, p, buffer, g, relaxed)
        except (ConfigError, DimensionError) as exc:
            if g >= p:
                raise DimensionError(
                    f"no group size can realize N={n} at buffer {buffer} on "
                    f"P={p}; the last one tried, g={g}, was refused: {exc}"
                ) from exc
        g <<= 1


def columnsort_program(
    name: str, scratch: str, g, relaxed: bool
) -> PassProgram:
    """The program at grid point ``(g, relaxed)`` (``g`` as in
    :func:`derive_shape`): deal / deal / final passes, or deal /
    subblock / deal / final when ``relaxed``, over intermediates
    ``<scratch>-t1`` … . ``name`` labels results, traces and
    checkpoints."""
    steps = RELAXED if relaxed else BASIC
    keys = ["input", *(f"t{k}" for k in range(1, len(steps))), "output"]
    passes = []
    for k, (pass_name, kind) in enumerate(steps):
        body, local, distributed = KINDS[kind]
        stages, work = local if g == 1 else distributed
        passes.append(PassSpec(pass_name, stages, work, body, keys[k], keys[k + 1]))
    shape = partial(derive_shape, g=g, relaxed=relaxed)
    return PassProgram(name, passes, shape, scratch=scratch)
