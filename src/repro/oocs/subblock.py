"""The subblock pass of subblock columnsort (paper §3).

The 10-step subblock columnsort maps onto the 3-pass threaded program
plus one extra pass, the subblock pass: sort each column (step 3) and
apply the subblock permutation (step 3.1). Its communicate stage is the
interesting one: by the bit-permutation structure of step 3.1
(Figure 1), each processor sends only ``⌈P/√s⌉`` messages per round (of
``r/⌈P/√s⌉`` records each), and when ``√s ≥ P`` the single message is
addressed to its own sender — no network traffic at all. Both
properties are metered and tested; the paper also proves this message
count optimal among all permutations with the subblock property
(property 3). The programs that run the pass are built in
:mod:`repro.oocs.grid`.
"""

from __future__ import annotations

from functools import partial

from repro.cluster.comm import Comm
from repro.disks.matrixfile import ColumnStore
from repro.errors import ConfigError
from repro.matrix.bits import sqrt_pow4
from repro.oocs.base import group_comms, pass_pipeline, portion_reads, sort_stage
from repro.oocs.incore.columnsort_dist import ColumnsortPlan
from repro.pipeline import COMM, COMPUTE


def subblock_round_routing(c: int, s: int, groups: int) -> dict[int, list[int]]:
    """Routing table of the subblock pass for source column ``c``: maps
    each destination group (a processor at group size 1) to the
    ascending list of subblock row classes ``x`` (``i ≡ x mod √s``) it
    receives; class ``x`` is bound for target column
    ``x·√s + (c mod √s)``, owned by group ``(x·√s + c mod √s) mod G``.

    The number of keys is exactly ``⌈G/√s⌉`` — properties 1 and 2 of
    paper §3.
    """
    t = sqrt_pow4(s)
    c0 = c % t
    routing: dict[int, list[int]] = {}
    for x in range(t):
        dest = (x * t + c0) % groups
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
    of length ``r/√s`` in every target column. Each member sends its
    slice of a class to the same member of the target's group;
    receivers reconstruct the class boundaries from the (deterministic)
    routing table, so no metadata crosses the network. When one group
    owns every column (``g = P``) nothing is exchanged: one transposing
    copy groups the round by class.
    """
    g, groups = src.g, src.groups
    s, portion = src.s, src.portion
    gid = comm.rank // g
    t = sqrt_pow4(s)
    share = portion // t  # records of one class in a portion (√s | portion)
    group, member = group_comms(comm, g)
    incore = None if group is None else ColumnsortPlan(group, portion)
    # The table depends on the source column only through c mod √s.
    tables = [subblock_round_routing(c0, s, groups) for c0 in range(t)]
    with pass_pipeline(portion_reads(src, comm.rank), plan, trace) as (
        reader, writer, clock, leases,
    ):
        for rnd in range(s // groups):
            c = rnd * groups + gid
            col = sort_stage(incore, leases.hold(reader.get()), fmt, leases, clock)
            with clock.stage(COMPUTE):
                # The round's classes, one row each, in destination order:
                # one lease filled by one strided copy per class.
                routing = tables[c % t]
                order = [x for q in range(groups) for x in routing.get(q, [])]
                classes = fmt.items(col).reshape(share, t)  # col x = rows i ≡ x (mod √s)
                grouped = leases.lease(fmt.dtype, portion)
                rows = fmt.items(grouped).reshape(t, share)
                for i, x in enumerate(order):
                    rows[i] = classes[:, x]
                leases.recycle(col)
            if member is None:
                recv = [grouped]
            else:
                parts, at = [], 0
                for q in range(groups):
                    n = len(routing.get(q, ())) * share
                    parts.append(grouped[at : at + n])
                    at += n
                with clock.stage(COMM):
                    recv = member.alltoallv(parts)
                leases.recycle(grouped)
            segments = []
            for q_src, got in enumerate(recv):
                c_src = rnd * groups + q_src
                for idx, x in enumerate(tables[c_src % t].get(gid, [])):
                    segments.append(
                        (x * t + c_src % t, got[idx * share : (idx + 1) * share])
                    )
            writer.put(
                partial(dst.append_segments, comm.rank, segments),
                release=leases.hand_off(*recv),
            )
