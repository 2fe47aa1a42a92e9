"""Analytic (structural) trace generation.

The out-of-core programs' I/O and communication patterns are oblivious
to key values (paper §2), so their traces are pure functions of
``(N, P, buffer, record size)``. This module builds them at any scale —
including the paper's 4-32 GB experiments — without touching data.

The per-round work builders here are the *same functions* the
functional pass bodies call when metering a real run, so an analytic
trace and a functional trace of the same configuration are identical;
the test suite asserts exactly that.

All builders express work for **one processor** (the programs are
symmetric).
"""

from __future__ import annotations

from repro.columnsort.validation import column_layout, out_of_core_shape
from repro.errors import ConfigError
from repro.matrix.bits import sqrt_pow4
from repro.simulate.trace import (
    PassTrace,
    RoundWork,
    RunTrace,
    eleven_stage_pipeline,
    five_stage_pipeline,
    io_only_pipeline,
    seven_stage_pipeline,
    twenty_stage_pipeline,
)

# ---------------------------------------------------------------------------
# Per-round work builders (shared with the functional pass bodies)
# ---------------------------------------------------------------------------

def deal_round_work(
    record_size: int, r: int, net_fraction: float, messages: int
) -> RoundWork:
    """One round of a 5-stage deal pass: a full ``r``-record buffer
    through every stage, ``net_fraction`` of it crossing the network."""
    nbytes = r * record_size
    return RoundWork(
        work={
            "read": nbytes,
            "sort": r,
            "communicate": nbytes * net_fraction,
            "permute": nbytes,
            "write": nbytes,
        },
        messages={"communicate": messages},
    )


def subblock_round_work(record_size: int, r: int, s: int, p: int) -> RoundWork:
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


def final_round_work(record_size: int, r: int, p: int) -> RoundWork:
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


def io_round_work(record_size: int, r: int) -> RoundWork:
    """One round of an I/O-only baseline pass."""
    nbytes = r * record_size
    return RoundWork(work={"read": nbytes, "write": nbytes})


def incore_round_work(
    record_size: int, portion: int, p: int, prefix: str, delivery: str
) -> tuple[dict, dict]:
    """Work and message counts of the eight in-core columnsort stages
    inside one M-columnsort round. ``delivery`` describes the final
    communication step: ``"balanced"`` (contiguous slices — roughly half
    a portion moves, to a neighbor) or ``"scattered"`` (per-column
    slices — almost everything moves)."""
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
    record_size: int, portion: int, p: int, delivery: str
) -> RoundWork:
    """One round of an 11-stage M-columnsort deal pass."""
    nbytes = portion * record_size
    work = {"read": nbytes, "permute": nbytes, "write": nbytes}
    ic_work, ic_msgs = incore_round_work(record_size, portion, p, "ic", delivery)
    work.update(ic_work)
    return RoundWork(work=work, messages=ic_msgs)


def m_final_round_work(record_size: int, portion: int, p: int) -> RoundWork:
    """One round of the 20-stage M-columnsort final pass."""
    nbytes = portion * record_size
    work = {
        "read": nbytes,
        "communicate": nbytes * (p - 1) / p,
        "permute": nbytes,
        "write": nbytes,
    }
    msgs = {"communicate": p - 1}
    for prefix in ("ic1", "ic2"):
        ic_work, ic_msgs = incore_round_work(
            record_size, portion, p, prefix, "balanced"
        )
        work.update(ic_work)
        msgs.update(ic_msgs)
    return RoundWork(work=work, messages=msgs)


# ---------------------------------------------------------------------------
# Full-run trace builders
# ---------------------------------------------------------------------------

def threaded_run_trace(
    n: int, p: int, buffer_records: int, record_size: int
) -> RunTrace:
    """Structural trace of a 3-pass threaded columnsort run."""
    r, s = out_of_core_shape(n, p, buffer_records, g=1)
    rounds = s // p
    deal = [deal_round_work(record_size, r, (p - 1) / p, p - 1)] * rounds
    final = [final_round_work(record_size, r, p)] * rounds
    return RunTrace(
        algorithm="threaded",
        n_records=n,
        record_size=record_size,
        p=p,
        buffer_bytes=r * record_size,
        passes=[
            PassTrace("pass1:steps1-2", five_stage_pipeline(), list(deal)),
            PassTrace("pass2:steps3-4", five_stage_pipeline(), list(deal)),
            PassTrace("pass3:steps5-8", seven_stage_pipeline(), list(final)),
        ],
    )


def subblock_run_trace(
    n: int, p: int, buffer_records: int, record_size: int
) -> RunTrace:
    """Structural trace of a 4-pass subblock columnsort run."""
    r, s = out_of_core_shape(n, p, buffer_records, g=1, relaxed=True)
    rounds = s // p
    deal = [deal_round_work(record_size, r, (p - 1) / p, p - 1)] * rounds
    sub = [subblock_round_work(record_size, r, s, p)] * rounds
    final = [final_round_work(record_size, r, p)] * rounds
    return RunTrace(
        algorithm="subblock",
        n_records=n,
        record_size=record_size,
        p=p,
        buffer_bytes=r * record_size,
        passes=[
            PassTrace("pass1:steps1-2", five_stage_pipeline(), list(deal)),
            PassTrace("pass2:steps3+3.1(subblock)", five_stage_pipeline(), list(sub)),
            PassTrace("pass3:steps3.2+4", five_stage_pipeline(), list(deal)),
            PassTrace("pass4:steps5-8", seven_stage_pipeline(), list(final)),
        ],
    )


def _m_columns(n: int, p: int, portion: int, relaxed: bool = False) -> int:
    """``s`` at the height interpretation ``r = M = P·portion``."""
    if p < 2:
        raise ConfigError("M-columnsort needs P ≥ 2")
    return out_of_core_shape(n, p, portion, g=p, relaxed=relaxed)[1]


def m_run_trace(n: int, p: int, buffer_records: int, record_size: int) -> RunTrace:
    """Structural trace of a 3-pass M-columnsort run (``M = P·buffer``)."""
    portion = buffer_records
    s = _m_columns(n, p, portion)
    deal_bal = [m_deal_round_work(record_size, portion, p, "balanced")] * s
    deal_scat = [m_deal_round_work(record_size, portion, p, "scattered")] * s
    final = [m_final_round_work(record_size, portion, p)] * s
    return RunTrace(
        algorithm="m-columnsort",
        n_records=n,
        record_size=record_size,
        p=p,
        buffer_bytes=portion * record_size,
        passes=[
            PassTrace("pass1:steps1-2", eleven_stage_pipeline(), list(deal_bal)),
            PassTrace("pass2:steps3-4", eleven_stage_pipeline(), list(deal_scat)),
            PassTrace("pass3:steps5-8", twenty_stage_pipeline(), list(final)),
        ],
    )


def hybrid_run_trace(
    n: int, p: int, buffer_records: int, record_size: int
) -> RunTrace:
    """Structural trace of a 4-pass hybrid (subblock+M) columnsort run."""
    portion = buffer_records
    s = _m_columns(n, p, portion, relaxed=True)
    deal_bal = [m_deal_round_work(record_size, portion, p, "balanced")] * s
    deal_scat = [m_deal_round_work(record_size, portion, p, "scattered")] * s
    final = [m_final_round_work(record_size, portion, p)] * s
    return RunTrace(
        algorithm="hybrid",
        n_records=n,
        record_size=record_size,
        p=p,
        buffer_bytes=portion * record_size,
        passes=[
            PassTrace("pass1:steps1-2", eleven_stage_pipeline(), list(deal_bal)),
            PassTrace(
                "pass2:steps3+3.1(subblock)", eleven_stage_pipeline(), list(deal_bal)
            ),
            PassTrace("pass3:steps3.2+4", eleven_stage_pipeline(), list(deal_scat)),
            PassTrace("pass4:steps5-8", twenty_stage_pipeline(), list(final)),
        ],
    )


def baseline_run_trace(
    n: int, p: int, buffer_records: int, record_size: int, passes: int = 3
) -> RunTrace:
    """Structural trace of the ``passes``-pass I/O-only baseline."""
    r, s = column_layout(n, p, buffer_records)
    rounds = s // p
    io = [io_round_work(record_size, r)] * rounds
    return RunTrace(
        algorithm=f"baseline-io-{passes}",
        n_records=n,
        record_size=record_size,
        p=p,
        buffer_bytes=r * record_size,
        passes=[
            PassTrace(f"io-pass{k + 1}", io_only_pipeline(), list(io))
            for k in range(passes)
        ],
    )


#: name → trace builder, for the experiment harness.
TRACE_BUILDERS = {
    "threaded": threaded_run_trace,
    "subblock": subblock_run_trace,
    "m": m_run_trace,
    "hybrid": hybrid_run_trace,
}
