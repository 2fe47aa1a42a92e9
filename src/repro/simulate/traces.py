"""Per-round work of the paper's pipeline shapes.

The out-of-core programs' I/O and communication patterns are oblivious
to key values (paper §2), so the work one round pushes through each
stage is a pure function of the matrix and the machine. Every builder
here has the signature ``(record_size, r, s, p, g) -> RoundWork`` — the
``r × s`` matrix, ``P`` processors, columns striped over groups of
``g`` — and names exactly the stages of one constructor in
:mod:`repro.simulate.trace`. A pass program pairs the two in each of
its :class:`~repro.oocs.base.PassSpec` records, and
:meth:`~repro.oocs.base.PassProgram.trace` multiplies them out into the
structural trace of a run at any scale — including the paper's 4-32 GB
experiments — without touching data.

All builders express work for **one processor** (the programs are
symmetric).
"""

from __future__ import annotations

from functools import partial

from repro.matrix.bits import sqrt_pow4
from repro.simulate.trace import RoundWork


def deal_round_work(record_size: int, r: int, s: int, p: int, g: int) -> RoundWork:
    """One round of a 5-stage deal pass: a full ``r``-record buffer
    through every stage, all but ``1/P`` of it crossing the network."""
    nbytes = r * record_size
    return RoundWork(
        work={
            "read": nbytes,
            "sort": r,
            "communicate": nbytes * ((p - 1) / p),
            "permute": nbytes,
            "write": nbytes,
        },
        messages={"communicate": p - 1},
    )


def subblock_round_work(
    record_size: int, r: int, s: int, p: int, g: int
) -> RoundWork:
    """One round of the subblock pass: ``⌈P/√s⌉`` messages, of which one
    stays on its sender — zero network traffic when ``√s ≥ P``."""
    t = sqrt_pow4(s)
    msgs = -(-p // t)
    net_messages = msgs - 1
    nbytes = r * record_size
    return RoundWork(
        work={
            "read": nbytes,
            "sort": r,
            "communicate": nbytes * net_messages / msgs,
            "permute": nbytes,
            "write": nbytes,
        },
        messages={"communicate": net_messages},
    )


def final_round_work(record_size: int, r: int, s: int, p: int, g: int) -> RoundWork:
    """One round of the 7-stage final pass: step-5 sort, half-column
    exchange, step-7 merge, PDM routing, write."""
    nbytes = r * record_size
    return RoundWork(
        work={
            "read": nbytes,
            "sort1": r,
            "communicate1": nbytes / 2,
            "sort2": r,
            "communicate2": nbytes * (p - 1) / p,
            "permute": nbytes,
            "write": nbytes,
        },
        messages={"communicate1": 1, "communicate2": p - 1},
    )


def io_round_work(record_size: int, r: int, s: int, p: int, g: int) -> RoundWork:
    """One round of an I/O-only baseline pass."""
    nbytes = r * record_size
    return RoundWork(work={"read": nbytes, "write": nbytes})


def incore_round_work(
    record_size: int, portion: int, p: int, prefix: str, delivery: str
) -> tuple[dict, dict]:
    """Work and message counts of the eight in-core columnsort stages
    inside one M-columnsort round, on an in-core cluster of ``p``.
    ``delivery`` describes the final communication step: ``"balanced"``
    (contiguous slices — roughly half a portion moves, to a neighbor)
    or ``"scattered"`` (per-column slices — almost everything moves)."""
    nbytes = portion * record_size
    deal = nbytes * (p - 1) / p
    final = nbytes / 2 if delivery == "balanced" else deal
    work = {
        f"{prefix}-s1": portion,
        f"{prefix}-c2": deal,
        f"{prefix}-s3": portion,
        f"{prefix}-c4": deal,
        f"{prefix}-s5": portion,
        f"{prefix}-c6": nbytes / 2,
        f"{prefix}-s7": portion,
        f"{prefix}-c8": final,
    }
    messages = {
        f"{prefix}-c2": p - 1,
        f"{prefix}-c4": p - 1,
        f"{prefix}-c6": 1,
        f"{prefix}-c8": 2 if delivery == "balanced" else p - 1,
    }
    return work, messages


def m_deal_round_work(
    record_size: int, r: int, s: int, p: int, g: int, delivery: str
) -> RoundWork:
    """One round of an 11-stage M-columnsort deal pass: each of the
    group's ``g`` ranks moves its ``r/g``-record portion, and the group
    is the in-core cluster. ``delivery`` (see :func:`incore_round_work`)
    is bound below."""
    portion = r // g
    nbytes = portion * record_size
    work = {"read": nbytes, "permute": nbytes, "write": nbytes}
    ic_work, ic_msgs = incore_round_work(record_size, portion, g, "ic", delivery)
    work.update(ic_work)
    return RoundWork(work=work, messages=ic_msgs)


#: An 11-stage round by what its sort stage's last communication step
#: delivers: contiguous sorted ranges, or a slice of every chunk.
m_balanced_round_work = partial(m_deal_round_work, delivery="balanced")
m_scattered_round_work = partial(m_deal_round_work, delivery="scattered")


def m_final_round_work(
    record_size: int, r: int, s: int, p: int, g: int
) -> RoundWork:
    """One round of the 20-stage M-columnsort final pass (portion and
    in-core cluster as in :func:`m_deal_round_work`)."""
    portion = r // g
    nbytes = portion * record_size
    work = {
        "read": nbytes,
        "communicate": nbytes * (g - 1) / g,
        "permute": nbytes,
        "write": nbytes,
    }
    msgs = {"communicate": g - 1}
    for prefix in ("ic1", "ic2"):
        ic_work, ic_msgs = incore_round_work(
            record_size, portion, g, prefix, "balanced"
        )
        work.update(ic_work)
        msgs.update(ic_msgs)
    return RoundWork(work=work, messages=msgs)
