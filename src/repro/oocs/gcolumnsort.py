"""Adjustable height interpretation: g-columnsort (§6, future work).

The paper's second future-work item: "The closer the height
interpretation is to r = M/P, the less communication overhead is
incurred during the sort stages. We will develop an implementation
that allows for values of r between M/P and M, depending on the
problem size N for a given run."

This module is that implementation. Pick a *group size* ``g`` (a power
of 2, ``1 ≤ g ≤ P``): the ``P`` processors form ``G = P/g`` groups,
each column is ``r = g·M/P`` records tall, owned by one group and
striped over its members, and every sort stage is a distributed
in-core columnsort *within the owning group* (over a sub-communicator).
The problem-size restriction interpolates between (1) and (3):

    N ≤ (g·M/P)^(3/2) / √2

* ``g = 1`` — threaded columnsort: local sorts, no sort-stage
  communication, smallest bound;
* ``g = P`` — M-columnsort: cluster-wide sorts, no out-of-core
  communicate stage, largest bound;
* in between — sort-stage communication confined to ``g`` ranks while
  the out-of-core deal still crosses groups: the tunable trade the
  paper anticipated. Choose the smallest ``g`` whose bound admits your
  ``N`` (see :func:`smallest_group_size`).

Pass structure mirrors threaded columnsort (3 passes); each round,
every group processes one of its columns. It is ``ALGORITHMS["g"]``: a
:class:`~repro.oocs.base.PassProgram` like the other four, run by
:func:`~repro.oocs.base.run_pass_program` with ``OocJob.group_size``
choosing ``g``.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from repro.bounds.restrictions import max_pow2_n
from repro.cluster.comm import Comm
from repro.columnsort.validation import out_of_core_shape
from repro.disks.matrixfile import ColumnStore, PdmStore
from repro.errors import ConfigError, DimensionError
from repro.oocs.base import (
    OocJob,
    PassProgram,
    PassSpec,
    pass_pipeline,
    portion_reads,
    route_to_pdm,
)
from repro.oocs.incore.columnsort_dist import ColumnsortPlan
from repro.pipeline import COMM, COMPUTE, INCORE, PipelinePlan
from repro.records.format import RecordFormat
from repro.simulate.trace import (
    PassTrace,
    eleven_stage_pipeline,
    twenty_stage_pipeline,
)
from repro.simulate.traces import m_balanced_round_work, m_final_round_work

#: Tag for the cross-group bottom-half exchange of the final pass.
GW_TAG = 83


def g_bound(mem_per_proc: int, g: int) -> int:
    """The interpolated problem-size bound ``(g·M/P)^(3/2)/√2``."""
    if g < 1 or mem_per_proc < 1:
        raise ConfigError(f"need positive g and memory, got {g}, {mem_per_proc}")
    return math.isqrt((g * mem_per_proc) ** 3 // 2)


def smallest_group_size(n: int, p: int, mem_per_proc: int) -> int:
    """The least power-of-2 ``g ≤ P`` whose bound admits ``N`` — the
    run-time policy the paper sketches (minimize sort-stage
    communication subject to feasibility)."""
    g = 1
    while g <= p:
        if n <= max_pow2_n(g_bound(mem_per_proc, g)):
            return g
        g <<= 1
    raise DimensionError(
        f"N={n} exceeds even the g=P bound of {g_bound(mem_per_proc, p)} "
        f"records (restriction (3))"
    )


def derive_shape(job: OocJob) -> tuple[int, int]:
    """The ``r × s`` matrix of a g-columnsort job — grid point
    ``(g, r ≥ 2s²)``. With ``job.group_size`` unset, ``g`` is the
    smallest feasible one (the paper's intended policy):
    :func:`smallest_group_size`, walked upward while a divisibility
    condition fails for this exact ``N``."""
    n, p, buffer = job.n, job.cluster.p, job.buffer_records
    if job.group_size is not None:
        return out_of_core_shape(n, p, buffer, job.group_size)
    g = smallest_group_size(n, p, buffer)
    while True:
        try:
            return out_of_core_shape(n, p, buffer, g)
        except (ConfigError, DimensionError) as exc:
            if g == p:
                raise DimensionError(
                    f"no group size can realize N={n} at buffer {buffer} on "
                    f"P={p}; the last one tried, g={g}, was refused: {exc}"
                ) from exc
        g <<= 1


# ---------------------------------------------------------------------------
# Pass bodies
# ---------------------------------------------------------------------------


def _group_comm(comm: Comm, g: int) -> Comm:
    """The sub-communicator of this rank's group of ``g`` — where every
    sort stage runs."""
    return comm.split(color=comm.rank // g, key=comm.rank % g)


def _deal_pass_g(
    comm: Comm,
    src: ColumnStore,
    dst: ColumnStore,
    fmt: RecordFormat,
    trace: PassTrace | None = None,
    plan: PipelinePlan | None = None,
    *,
    step: int,
) -> None:
    """Steps 1+2 (``step=2``) or 3+4 (``step=4``) under the group
    interpretation: per round each group distributed-sorts its column,
    then all ranks deal across groups with one global all-to-all.

    Routing (with ``i`` the sorted rank within the column):

    * step 2 — target column ``i mod s``; the receiving member within
      the target group is ``(i div s) mod g``;
    * step 4 — target column ``i div (r/s)``; receiving member
      ``(i mod (r/s)) div (r/(s·g))``.

    Receivers reconstruct every record's target column arithmetically
    from the sender's identity — no metadata crosses the network — and
    the routing is the same every round, so it is worked out once.
    """
    p, rank = comm.size, comm.rank
    g, groups = src.g, src.groups
    r, s = src.r, src.s
    portion = src.portion
    chunk = r // s
    sub = max(1, chunk // g)
    incore = ColumnsortPlan(_group_comm(comm, g), portion)

    def route(member: int) -> tuple[np.ndarray, np.ndarray]:
        """(destination rank, target column) of the sorted ranks group
        member ``member`` holds after the sort stage."""
        i = member * portion + np.arange(portion)
        if step == 2:
            cols, members = i % s, (i // s) % g
        else:
            cols, members = i // chunk, (i % chunk) // sub
        return (cols % groups) * g + members, cols

    dest, _ = route(rank % g)
    order = np.argsort(dest, kind="stable")
    bounds = np.searchsorted(dest[order], np.arange(p + 1))
    # What a source sends here depends only on its member index: per
    # member, the gather that groups an arrival by target column and the
    # (column, start, stop) runs of the result.
    landing = []
    for member in range(g):
        src_dest, cols = route(member)
        cols = cols[src_dest == rank]
        by_col = np.argsort(cols, kind="stable")
        cuts = [0, *(np.flatnonzero(np.diff(cols[by_col])) + 1), len(cols)]
        runs = [
            (int(cols[by_col[a]]), int(a), int(b))
            for a, b in zip(cuts[:-1], cuts[1:])
            if a < b
        ]
        landing.append((by_col, runs))

    with pass_pipeline(portion_reads(src, rank), plan, trace) as (
        reader, writer, clock, leases,
    ):
        for _ in range(s // groups):
            local = leases.hold(reader.get())
            with clock.stage(INCORE):
                mine = incore.sort(local, fmt)
                leases.recycle(local)  # the unsorted portion is dead
            with clock.stage(COMPUTE):
                payload = mine[order]
                parts = [payload[bounds[q] : bounds[q + 1]] for q in range(p)]
            with clock.stage(COMM):
                recv = comm.alltoallv(parts)
            writes = []
            with clock.stage(COMPUTE):
                for q_src, got in enumerate(recv):
                    by_col, runs = landing[q_src % g]
                    if len(got) != len(by_col):
                        raise ConfigError(
                            f"deal reconstruction mismatch: expected {len(by_col)} "
                            f"records from rank {q_src}, got {len(got)}"
                        )
                    grouped = got[by_col]
                    leases.recycle(got)  # a landed buffer (process backend); a view is ignored
                    writes += [
                        partial(dst.append_to_portion, rank, col, grouped[a:b])
                        for col, a, b in runs
                    ]
            writer.put(*writes)


def _final_pass_g(
    comm: Comm,
    src: ColumnStore,
    pdm: PdmStore,
    fmt: RecordFormat,
    trace: PassTrace | None = None,
    plan: PipelinePlan | None = None,
) -> None:
    """Steps 5-8 under the group interpretation, window-wise.

    After each group sorts its column, bottom-half members ship their
    pieces to the same member of the *next* group; the window sort is a
    distributed columnsort within the owning group mixing received
    bottoms with retained tops; sorted windows route to PDM owners.
    Windows 0 and ``s`` carry ±∞ padding contributions whose slices are
    simply not written.
    """
    g, groups = src.g, src.groups
    r, s = src.r, src.s
    portion = src.portion
    gid, member = divmod(comm.rank, g)
    half = r // 2
    half_members = g // 2  # 0 when g == 1 (handled separately)
    n = r * s
    rounds = s // groups
    next_rank = ((gid + 1) % groups) * g + member
    prev_rank = ((gid - 1) % groups) * g + member
    incore = ColumnsortPlan(_group_comm(comm, g), portion)  # steps 5 and 7 alike

    def window_piece(w: int, sm: int) -> tuple[int, int] | None:
        """Global (start, length) of member ``sm``'s slice of sorted
        window ``w``, or None when the slice is pure padding."""
        if g == 1:
            if w == 0:
                return 0, half
            if w == s:
                return n - half, half
            return w * r - half, r
        if w == 0:
            if sm < half_members:
                return None  # −∞ padding
            return (sm - half_members) * portion, portion
        if w == s:
            if sm >= half_members:
                return None  # +∞ padding
            return n - half + sm * portion, portion
        return w * r - half + sm * portion, portion

    def route(w: int, piece: np.ndarray | None, window_of) -> None:
        """Route this rank's slice of window ``w`` (if it has one) to
        its PDM owners; ``window_of(group)`` is the window each group
        holds this round (None = none)."""
        mine = window_piece(w, member) if piece is not None else None

        def range_of(q: int) -> tuple[int, int] | None:
            held = window_of(q // g)
            return None if held is None else window_piece(held, q % g)

        route_to_pdm(
            comm, pdm, fmt,
            None if mine is None else (mine[0], piece),
            range_of, writer, clock, leases,
        )

    def window_sort(contribution: np.ndarray) -> np.ndarray:
        with clock.stage(INCORE):
            return incore.sort(contribution, fmt)  # step 7

    with pass_pipeline(portion_reads(src, comm.rank), plan, trace) as (
        reader, writer, clock, leases,
    ):
        for t in range(rounds):
            c = t * groups + gid
            local = leases.hold(reader.get())
            with clock.stage(INCORE):
                mine = incore.sort(local, fmt)  # step 5
                leases.recycle(local)
            if g == 1:
                with clock.stage(COMM):
                    comm.send(mine[half:], next_rank, tag=GW_TAG)
                    upper = (
                        fmt.pad_low(half) if c == 0
                        else comm.recv(prev_rank, tag=GW_TAG)
                    )
                with clock.stage(COMPUTE):
                    window = fmt.merge_runs(np.concatenate([upper, mine[:half]]))
                piece = window[half:] if c == 0 else window
            else:
                contribution = mine  # a top-half member keeps its piece
                if member >= half_members:
                    with clock.stage(COMM):
                        comm.send(mine, next_rank, tag=GW_TAG)
                        contribution = (
                            fmt.pad_low(portion) if c == 0
                            else comm.recv(prev_rank, tag=GW_TAG)
                        )
                piece = window_sort(contribution)
            route(c, piece, lambda group, t=t: t * groups + group)

        # Window s: bottom of the last column (held, post-send, by group
        # 0's receive queues) plus +∞ padding.
        piece = None
        if gid == 0:
            with clock.stage(COMM):
                piece = (
                    comm.recv(prev_rank, tag=GW_TAG)
                    if member >= half_members
                    else fmt.pad_high(portion)
                )
            if g > 1:  # at g = 1 the received bottom half is already sorted
                piece = window_sort(piece)
        route(s, piece, lambda group: s if group == 0 else None)


_pass1_g = partial(_deal_pass_g, step=2)
_pass2_g = partial(_deal_pass_g, step=4)

#: The 3-pass program, declaratively (see
#: :class:`~repro.oocs.base.PassSpec`). The traces borrow M-columnsort's
#: shapes with the group as the in-core cluster; the cross-group deal's
#: alltoallv has no stage of its own in them.
PASSES = [
    PassSpec("pass1:steps1-2", eleven_stage_pipeline, m_balanced_round_work,
             _pass1_g, "input", "t1"),
    PassSpec("pass2:steps3-4", eleven_stage_pipeline, m_balanced_round_work,
             _pass2_g, "t1", "t2"),
    PassSpec("pass3:steps5-8", twenty_stage_pipeline, m_final_round_work,
             _final_pass_g, "t2", "output"),
]

#: What :func:`~repro.oocs.base.run_pass_program` runs: columns striped
#: over groups of ``g = r / buffer``.
PROGRAM = PassProgram("g-columnsort(g={g})", PASSES, derive_shape, scratch="g")
