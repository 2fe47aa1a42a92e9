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
every group processes one of its columns.
"""

from __future__ import annotations

import numpy as np

from repro.bounds.restrictions import max_pow2_n
from repro.cluster.comm import Comm
from repro.cluster.stats import combined
from repro.disks.iostats import IoStats
from repro.disks.matrixfile import GroupColumnStore, PdmStore
from repro.errors import ConfigError, DimensionError
from repro.matrix.bits import is_power_of_two
from repro.oocs.base import OocJob, OocResult, PassMarker, run_spmd_metered
from repro.oocs.incore.columnsort_dist import distributed_columnsort
from repro.records.format import RecordFormat

#: Tag for the cross-group bottom-half exchange of the final pass.
GW_TAG = 83


def g_bound(mem_per_proc: int, g: int) -> int:
    """The interpolated problem-size bound ``(g·M/P)^(3/2)/√2``."""
    import math

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


def derive_shape(job: OocJob, group_size: int) -> tuple[int, int]:
    """Resolve and validate the ``r × s`` matrix for group size ``g``:
    ``r = g·buffer``, with the height restriction ``r ≥ 2s²`` and the
    divisibility conditions of the group-striped deal."""
    p = job.cluster.p
    g = group_size
    if not is_power_of_two(g) or g > p:
        raise ConfigError(f"group size g={g} must be a power of 2 with g ≤ P={p}")
    portion = job.buffer_records
    r = g * portion
    if job.n % r:
        raise ConfigError(f"column height r=g·buffer={r} must divide N={job.n}")
    s = job.n // r
    groups = p // g
    if s < groups or s % groups:
        raise ConfigError(
            f"need at least G={groups} columns with G | s, got s={s}"
        )
    if r < 2 * s * s:
        raise DimensionError(
            f"height restriction violated: r=g·M/P={r} < 2s²={2 * s * s} — "
            f"N={job.n} exceeds the g={g} bound; try a larger group size"
        )
    if portion % s:
        raise ConfigError(f"s={s} must divide the per-rank portion {portion}")
    if g >= 2 and portion < 2 * g * g:
        raise DimensionError(
            f"in-core height restriction violated: r/g={portion} < 2g²={2 * g * g}"
        )
    return r, s


# ---------------------------------------------------------------------------
# Pass bodies
# ---------------------------------------------------------------------------

def _deal_pass_g(
    comm: Comm,
    gcomm: Comm,
    src: GroupColumnStore,
    dst: GroupColumnStore,
    fmt: RecordFormat,
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
    from the sender's identity — no metadata crosses the network.
    """
    p = comm.size
    g, groups = src.g, src.groups
    r, s = src.r, src.s
    portion = src.portion
    gid = comm.rank // g
    member = comm.rank % g
    chunk = r // s
    sub = max(1, chunk // g)

    def targets(i: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(target column, receiving member) of sorted ranks ``i``."""
        if step == 2:
            return i % s, (i // s) % g
        return i // chunk, (i % chunk) // sub

    for t in range(s // groups):
        c = t * groups + gid
        local = src.read_portion(comm.rank, c)
        mine = distributed_columnsort(gcomm, local, fmt)
        i = member * portion + np.arange(portion)
        cols, members = targets(i)
        dest = (cols % groups) * g + members
        order = np.argsort(dest, kind="stable")
        dest_sorted = dest[order]
        payload = mine[order]
        bounds = np.searchsorted(dest_sorted, np.arange(p + 1))
        parts = [payload[bounds[q] : bounds[q + 1]] for q in range(p)]
        recv = comm.alltoallv(parts)
        for q_src, arr in enumerate(recv):
            sm = q_src % g
            ivals = sm * portion + np.arange(portion)
            src_cols, src_members = targets(ivals)
            mask = (src_cols % groups == gid) & (src_members == member)
            my_cols = src_cols[mask]
            if len(my_cols) != len(arr):
                raise ConfigError(
                    f"deal reconstruction mismatch: expected {len(my_cols)} "
                    f"records from rank {q_src}, got {len(arr)}"
                )
            if not len(arr):
                continue
            order2 = np.argsort(my_cols, kind="stable")
            sorted_cols = my_cols[order2]
            sorted_arr = arr[order2]
            cuts = np.flatnonzero(np.diff(sorted_cols)) + 1
            starts = np.concatenate([[0], cuts, [len(sorted_cols)]])
            for a, b in zip(starts[:-1], starts[1:]):
                dst.append_to_portion(comm.rank, int(sorted_cols[a]), sorted_arr[a:b])


def _final_pass_g(
    comm: Comm,
    gcomm: Comm,
    src: GroupColumnStore,
    pdm: PdmStore,
    fmt: RecordFormat,
) -> None:
    """Steps 5-8 under the group interpretation, window-wise.

    After each group sorts its column, bottom-half members ship their
    pieces to the same member of the *next* group; the window sort is a
    distributed columnsort within the owning group mixing received
    bottoms with retained tops; sorted windows route to PDM owners.
    Windows 0 and ``s`` carry ±∞ padding contributions whose slices are
    simply not written.
    """
    p = comm.size
    g, groups = src.g, src.groups
    r, s = src.r, src.s
    portion = src.portion
    gid = comm.rank // g
    member = comm.rank % g
    half = r // 2
    half_members = g // 2  # 0 when g == 1 (handled separately)
    n = r * s
    rounds = s // groups
    next_rank = ((gid + 1) % groups) * g + member
    prev_rank = ((gid - 1) % groups) * g + member

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

    def route_write(t: int, piece: np.ndarray | None, extra: bool) -> None:
        parts = [fmt.empty(0) for _ in range(p)]
        my_w = s if extra else t * groups + gid
        rng = window_piece(my_w, member) if (not extra or gid == 0) else None
        if rng is not None and piece is not None:
            gstart, _length = rng
            for q, pieces in pdm.split_by_owner(gstart, len(piece)).items():
                parts[q] = np.concatenate(
                    [piece[rel : rel + nn] for (_d, _o, rel, nn) in pieces]
                )
        recv = comm.alltoallv(parts)
        for q_src in range(p):
            sq, sm = q_src // g, q_src % g
            if extra and sq != 0:
                continue
            w = s if extra else t * groups + sq
            rng = window_piece(w, sm)
            if rng is None:
                continue
            gstart, length = rng
            got = recv[q_src]
            at = 0
            for (_disk, _off, rel, nn) in pdm.split_by_owner(gstart, length).get(
                comm.rank, []
            ):
                pdm.write_global(comm.rank, gstart + rel, got[at : at + nn])
                at += nn

    for t in range(rounds):
        c = t * groups + gid
        local = src.read_portion(comm.rank, c)
        mine = distributed_columnsort(gcomm, local, fmt)  # step 5
        first_window = t == 0 and gid == 0

        if g == 1:
            comm.send(mine[half:], next_rank, tag=GW_TAG)
            upper = (
                fmt.pad_low(half) if first_window else comm.recv(prev_rank, tag=GW_TAG)
            )
            window = fmt.merge_runs(np.concatenate([upper, mine[:half]]))  # step 7
            piece = window[half:] if c == 0 else window
        else:
            if member >= half_members:
                comm.send(mine, next_rank, tag=GW_TAG)
                contribution = (
                    fmt.pad_low(portion)
                    if first_window
                    else comm.recv(prev_rank, tag=GW_TAG)
                )
            else:
                contribution = mine  # my piece lies in the top half
            window_slice = distributed_columnsort(gcomm, contribution, fmt)  # step 7
            piece = window_slice if window_piece(c, member) is not None else None

        route_write(t, piece, extra=False)

    # Window s: bottom of the last column (held, post-send, by group 0's
    # receive queues) plus +∞ padding.
    if gid == 0:
        if g == 1:
            tail = comm.recv(prev_rank, tag=GW_TAG)  # already sorted
            route_write(rounds, tail, extra=True)
        else:
            contribution = (
                comm.recv(prev_rank, tag=GW_TAG)
                if member >= half_members
                else fmt.pad_high(portion)
            )
            window_slice = distributed_columnsort(gcomm, contribution, fmt)
            piece = window_slice if window_piece(s, member) is not None else None
            route_write(rounds, piece, extra=True)
    else:
        route_write(rounds, None, extra=True)


def _rank_program(
    comm: Comm, job: OocJob, stores: dict, group_size: int
) -> dict:
    fmt = job.fmt
    gcomm = comm.split(color=comm.rank // group_size, key=comm.rank % group_size)
    marker = PassMarker(comm, stores["input"].disks)

    _deal_pass_g(comm, gcomm, stores["input"], stores["t1"], fmt, step=2)
    marker.mark()
    _deal_pass_g(comm, gcomm, stores["t1"], stores["t2"], fmt, step=4)
    marker.mark()
    _final_pass_g(comm, gcomm, stores["t2"], stores["output"], fmt)
    marker.mark()

    return {
        "comm_per_pass": marker.comm_deltas(),
        "io_per_pass": marker.io_deltas(),
    }


def g_columnsort_ooc(
    job: OocJob,
    input_store: GroupColumnStore,
    group_size: int | None = None,
) -> OocResult:
    """Run 3-pass g-columnsort on ``input_store`` (built by
    :func:`make_g_workspace`). With ``group_size=None`` the store's own
    group size is used."""
    g = input_store.g if group_size is None else group_size
    r, s = derive_shape(job, g)
    if (input_store.r, input_store.s, input_store.g) != (r, s, g):
        raise ConfigError(
            f"input store is {input_store.r}×{input_store.s} (g={input_store.g}), "
            f"job wants {r}×{s} (g={g})"
        )
    cluster, fmt = job.cluster, job.fmt
    disks = input_store.disks
    stores = {
        "input": input_store,
        "t1": GroupColumnStore(
            cluster, fmt, r, s, disks, g, name="g-t1", parity=job.parity
        ),
        "t2": GroupColumnStore(
            cluster, fmt, r, s, disks, g, name="g-t2", parity=job.parity
        ),
        "output": PdmStore(
            cluster, fmt, job.n, disks, job.pdm_block, name="output",
            parity=job.parity,
        ),
    }

    io_before = IoStats.combine([d.stats for d in disks])
    res, copy = run_spmd_metered(
        cluster.p, _rank_program, job, stores, g,
        backend=job.backend, disks=disks,
    )
    io_after = IoStats.combine([d.stats for d in disks])

    stores["t1"].delete()
    stores["t2"].delete()
    rank0 = res.returns[0]
    quarantine = getattr(disks[0], "quarantine", None)
    durability = quarantine.snapshot() if quarantine is not None else {}
    if durability:
        durability["parity"] = getattr(disks[0], "parity_layer", None) is not None
    return OocResult(
        algorithm=f"g-columnsort(g={g})",
        job=job,
        output=stores["output"],
        passes=3,
        io={k: io_after[k] - io_before[k] for k in io_after},
        io_per_pass=rank0["io_per_pass"],
        comm_per_pass=rank0["comm_per_pass"],
        comm_total=combined(res.stats),
        copy=copy,
        durability=durability,
        trace=None,
    )


def make_g_workspace(
    cluster,
    fmt: RecordFormat,
    records: np.ndarray,
    r: int,
    s: int,
    group_size: int,
    workdir=None,
):
    """Disks + group-striped input store for a g-columnsort run."""
    import tempfile
    from pathlib import Path

    from repro.disks.virtual_disk import make_disk_array
    from repro.oocs.base import Workspace

    tmp = None
    if workdir is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-goocs-")
        workdir = tmp.name
    disks = make_disk_array(workdir, cluster.virtual_disks)
    store = GroupColumnStore.from_records(
        cluster, fmt, records, r, s, disks, group_size, name="input"
    )
    ws = Workspace(disks=disks, input=store, workdir=Path(workdir))
    ws._tmp = tmp
    return ws


def sort_with_group_size(
    records: np.ndarray,
    cluster,
    fmt: RecordFormat,
    buffer_records: int,
    group_size: int | None = None,
    workdir=None,
    verify: bool = True,
    backend: str = "thread",
) -> OocResult:
    """One-call g-columnsort. With ``group_size=None``, picks the
    smallest feasible ``g`` for this ``N`` (the paper's intended
    policy)."""
    from repro.oocs.verify import verify_output

    job = OocJob(
        cluster=cluster, fmt=fmt, n=len(records),
        buffer_records=buffer_records, backend=backend,
    )
    if group_size is None:
        group_size = smallest_group_size(len(records), cluster.p, buffer_records)
        # The bound-feasible g may still fail a divisibility condition
        # for this exact N; walk upward until the shape resolves.
        while group_size <= cluster.p:
            try:
                derive_shape(job, group_size)
                break
            except (ConfigError, DimensionError):
                group_size <<= 1
        if group_size > cluster.p:
            raise DimensionError(
                f"no group size can realize N={len(records)} at buffer "
                f"{buffer_records} on P={cluster.p}"
            )
    r, s = derive_shape(job, group_size)
    ws = make_g_workspace(cluster, fmt, records, r, s, group_size, workdir)
    result = g_columnsort_ooc(job, ws.input, group_size)
    result.workspace = ws
    if verify:
        verify_output(result.output, records)
    return result
