"""The paper's in-text quantitative claims, as tables.

Each function returns a list of row dicts; :func:`render_table` formats
any of them for the terminal. The benchmark harness times their
generation and the test suite asserts the claims they encode.
"""

from __future__ import annotations

from typing import Sequence

from repro.bounds.analysis import (
    crossover_memory,
    eligible_problem_sizes,
    improvement_factor,
    m_beats_subblock,
)
from repro.bounds.restrictions import restriction_table
from repro.oocs.subblock import expected_messages_per_round
from repro.matrix.bits import sqrt_pow4


def render_table(rows: Sequence[dict], columns: Sequence[str] | None = None) -> str:
    """Plain-text table of row dicts. Integers of 2^20 and more print
    as ``2^k`` or in e-notation — the form of the paper's N and M
    columns."""
    if not rows:
        return "(no rows)"
    columns = list(columns or rows[0].keys())
    cells = [[_fmt(row.get(c)) for c in columns] for row in rows]
    widths = [
        max(len(str(c)), *(len(line[i]) for line in cells))
        for i, c in enumerate(columns)
    ]
    head = "  ".join(str(c).rjust(w) for c, w in zip(columns, widths))
    sep = "  ".join("-" * w for w in widths)
    body = [
        "  ".join(cell.rjust(w) for cell, w in zip(line, widths)) for line in cells
    ]
    return "\n".join([head, sep, *body])


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.3g}"
    if isinstance(value, int) and abs(value) >= 1 << 20:
        return f"2^{value.bit_length() - 1}" if value & (value - 1) == 0 else f"{value:.3e}"
    return str(value)


def bounds_table(
    p: int = 16, mem_exponents: Sequence[int] = tuple(range(12, 25, 2))
) -> list[dict]:
    """T-bounds: the four problem-size bounds as ``M/P`` grows, plus
    the subblock/threaded improvement factor (>2 from ``M/P = 2^12`` —
    the §1 claim)."""
    rows = []
    for a in mem_exponents:
        mem = 1 << a
        bounds = restriction_table(mem, p)
        rows.append(
            {
                "M/P": f"2^{a}",
                "threaded (1)": bounds["threaded"],
                "subblock (2)": bounds["subblock"],
                "M-columnsort (3)": bounds["m"],
                "hybrid (§6)": bounds["hybrid"],
                "subblock/threaded": improvement_factor(mem),
            }
        )
    return rows


def crossover_table(p_values: Sequence[int] = (2, 4, 8, 16, 32)) -> list[dict]:
    """T-crossover: M-columnsort out-reaches subblock columnsort iff
    ``M < 32·P^10`` (§5; the paper works the P=8 example: 2^35)."""
    rows = []
    for p in p_values:
        threshold = crossover_memory(p)
        below = (threshold // p // 2) * p  # an M safely below threshold
        above = threshold * 2
        rows.append(
            {
                "P": p,
                "crossover M (32·P^10)": threshold,
                "log2": threshold.bit_length() - 1,
                "M below ⇒ m wins": m_beats_subblock(below, p),
                "M above ⇒ subblock wins": not m_beats_subblock(above, p),
            }
        )
    return rows


def msgcount_table(
    s_values: Sequence[int] = (16, 64, 256, 1024),
    p_values: Sequence[int] = (2, 4, 8, 16, 32),
) -> list[dict]:
    """T-msgcount: the subblock pass's per-round message count
    ``⌈P/√s⌉`` (§3 properties 1-2) across cluster and matrix shapes,
    with the no-network regime (``√s ≥ P``) flagged."""
    rows = []
    for s in s_values:
        for p in p_values:
            if p > s:
                continue  # the cluster cannot have more processors than columns
            msgs = expected_messages_per_round(s, p)
            rows.append(
                {
                    "s": s,
                    "sqrt_s": sqrt_pow4(s),
                    "P": p,
                    "messages/round (⌈P/√s⌉)": msgs,
                    "deal pass sends": p,
                    "network-free": msgs == 1,
                }
            )
    return rows


def coverage_table(
    p: int = 16,
    record_size: int = 64,
    buffers: Sequence[int] = (2**24, 2**25),
    max_gb: int = 64,
) -> list[dict]:
    """Eligible problem sizes per algorithm and buffer — why Figure 2's
    subblock lines cover disjoint, factor-of-4-spaced sizes while
    M-columnsort covers every power of 2 (§5)."""
    gb = 2**30
    rows = []
    for buf in buffers:
        buffer_records = buf // record_size
        for algorithm in ("threaded", "subblock", "m", "hybrid"):
            try:
                sizes = eligible_problem_sizes(
                    algorithm, buffer_records, p, gb // record_size,
                    max_gb * gb // record_size,
                )
            except Exception:
                sizes = []
            rows.append(
                {
                    "buffer": f"2^{buf.bit_length() - 1}",
                    "algorithm": algorithm,
                    "eligible sizes (GB)": ", ".join(
                        str(n * record_size // gb) for n in sizes
                    )
                    or "—",
                }
            )
    return rows
