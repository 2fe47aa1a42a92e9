"""Subblock columnsort: 4 passes, relaxed height restriction (paper §3).

The 10-step subblock columnsort maps onto the 3-pass threaded program
plus one extra pass:

======  ==========================  ================================
pass    columnsort steps            pipeline
======  ==========================  ================================
1       1 + 2                       5-stage (deal)
2       3 + 3.1 (subblock pass)     5-stage (subblock permutation)
3       3.2 + 4                     5-stage (deal)
4       5 + 6 + 7 + 8               7-stage (windows)
======  ==========================  ================================

The subblock pass's communicate stage is the interesting one: by the
bit-permutation structure of step 3.1 (Figure 1), each processor sends
only ``⌈P/√s⌉`` messages per round (of ``r/⌈P/√s⌉`` records each), and
when ``√s ≥ P`` the single message is addressed to its own sender — no
network traffic at all. Both properties are metered and tested; the
paper also proves this message count optimal among all permutations
with the subblock property (property 3).
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.cluster.comm import Comm
from repro.columnsort.validation import out_of_core_shape
from repro.disks.matrixfile import ColumnStore
from repro.errors import ConfigError
from repro.matrix.bits import sqrt_pow4
from repro.oocs.base import (
    OocJob,
    PassProgram,
    PassSpec,
    pass_final_windows,
    pass_pipeline,
    portion_reads,
    pass_step2_deal,
    pass_step4_deal,
)
from repro.pipeline import COMM, COMPUTE
from repro.simulate.trace import five_stage_pipeline, seven_stage_pipeline
from repro.simulate.traces import (
    deal_round_work,
    final_round_work,
    subblock_round_work,
)


def derive_shape(job: OocJob) -> tuple[int, int]:
    """The ``r × s`` matrix of a subblock-columnsort job — grid point
    ``(g = 1, relaxed)``: ``s`` a power of 4 and ``r ≥ 4·s^(3/2)``, the
    relaxed height restriction behind problem-size bound (2)."""
    return out_of_core_shape(
        job.n, job.cluster.p, job.buffer_records, g=1, relaxed=True
    )


def subblock_round_routing(c: int, r: int, s: int, p: int) -> dict[int, list[int]]:
    """Routing table of the subblock pass for source column ``c``: maps
    each destination processor to the ascending list of subblock row
    classes ``x`` (``i ≡ x mod √s``) it receives; class ``x`` is bound
    for target column ``x·√s + (c mod √s)``.

    The number of keys is exactly ``⌈P/√s⌉`` — properties 1 and 2 of
    paper §3.
    """
    t = sqrt_pow4(s)
    c0 = c % t
    routing: dict[int, list[int]] = {}
    for x in range(t):
        dest = (x * t + c0) % p
        routing.setdefault(dest, []).append(x)
    return routing


def expected_messages_per_round(s: int, p: int) -> int:
    """``⌈P/√s⌉`` — the paper's (optimal) message count per processor
    per subblock-pass round. Requires ``P ≤ s`` (every processor owns at
    least one column; with P > s the formula would exceed the √s
    distinct target columns a source column even has)."""
    if p > s:
        raise ConfigError(f"P={p} cannot exceed the column count s={s}")
    t = sqrt_pow4(s)
    return -(-p // t)


def pass_subblock(
    comm: Comm,
    src: ColumnStore,
    dst: ColumnStore,
    fmt,
    trace=None,
    plan=None,
) -> None:
    """The subblock pass: sort each column (step 3) and apply the
    subblock permutation (step 3.1).

    Row class ``x`` of sorted column ``c`` (the rows ``i ≡ x mod √s``,
    in ascending order) moves as one block to target column
    ``x·√s + (c mod √s)`` — preserving, as the paper proves, sorted runs
    of length ``r/√s`` in every target column. Receivers reconstruct the
    group boundaries from the (deterministic) routing table, so no
    metadata crosses the network.
    """
    p = comm.size
    r, s = src.r, src.s
    t = sqrt_pow4(s)
    group = r // t
    with pass_pipeline(portion_reads(src, comm.rank), plan, trace) as (
        reader, writer, clock, leases,
    ):
        for rnd in range(s // p):
            c = rnd * p + comm.rank
            raw = leases.hold(reader.get())
            with clock.stage(COMPUTE):
                col = fmt.sort(raw, out=leases.lease(fmt.dtype, r))  # step 3
                leases.recycle(raw)
                classes = col.reshape(group, t)  # col x = rows i ≡ x (mod √s)
                routing = subblock_round_routing(c, r, s, p)
                parts = []
                for q in range(p):
                    xs = routing.get(q)
                    if xs:
                        parts.append(
                            np.ascontiguousarray(classes[:, xs].T).reshape(-1)
                        )
                    else:
                        parts.append(fmt.empty(0))
            with clock.stage(COMM):
                recv = comm.alltoallv(parts)
            leases.recycle(col)
            writes = []
            for q_src in range(p):
                c_src = rnd * p + q_src
                xs = subblock_round_routing(c_src, r, s, p).get(comm.rank, [])
                arr = recv[q_src]
                for idx, x in enumerate(xs):
                    writes.append(
                        partial(
                            dst.append_to_portion,
                            comm.rank,
                            x * t + (c_src % t),
                            arr[idx * group : (idx + 1) * group],
                        )
                    )
            writer.put(*writes, release=leases.hand_off(*recv))


#: The 4-pass program, declaratively (see
#: :class:`~repro.oocs.base.PassSpec`).
PASSES = [
    PassSpec("pass1:steps1-2", five_stage_pipeline, deal_round_work,
             pass_step2_deal, "input", "t1"),
    PassSpec("pass2:steps3+3.1(subblock)", five_stage_pipeline,
             subblock_round_work, pass_subblock, "t1", "t2"),
    PassSpec("pass3:steps3.2+4", five_stage_pipeline, deal_round_work,
             pass_step4_deal, "t2", "t3"),
    PassSpec("pass4:steps5-8", seven_stage_pipeline, final_round_work,
             pass_final_windows, "t3", "output"),
]

#: What :func:`~repro.oocs.base.run_pass_program` runs. Compared to
#: threaded columnsort this handles matrices up to a factor ``√s/2``
#: shorter (problem-size bound (2): ``N ≤ (M/P)^(5/3)/4^(2/3)``) at the
#: price of one extra pass of disk I/O — the paper measures it at
#: roughly 4/3 the time of threaded columnsort, I/O-bound either way.
PROGRAM = PassProgram("subblock", PASSES, derive_shape, scratch="sub")
