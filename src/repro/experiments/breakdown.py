"""T-breakdown — where the time goes, per pass and per thread.

The paper's §5 narrative ("threaded columnsort is almost purely
I/O-bound", "M-columnsort is not nearly as I/O-bound") as a table: for
each algorithm and pass, the predicted makespan, the bottleneck
thread, and that thread's utilization — computed by the same DES that
regenerates Figure 2.
"""

from __future__ import annotations

from repro.durability.hashing import CHECKSUM_ALGO
from repro.oocs.api import analytic_trace
from repro.simulate.hardware import BEOWULF_2003, HardwareModel
from repro.simulate.predict import predict_run

GB = 2**30


def breakdown_table(
    gb_total: int = 8,
    p: int = 8,
    buffer_bytes: int = 2**25,
    record_size: int = 64,
    hw: HardwareModel = BEOWULF_2003,
    algorithms: tuple = ("threaded", "subblock", "m", "hybrid"),
) -> list[dict]:
    """Per-pass rows for each algorithm that can run this configuration."""
    n = gb_total * GB // record_size
    rows: list[dict] = []
    for algorithm in algorithms:
        try:
            run = analytic_trace(algorithm, n, p, buffer_bytes // record_size,
                                 record_size)
        except Exception:
            continue  # not eligible at this size/buffer
        timing = predict_run(run, hw)
        for pass_trace, pass_timing in zip(run.passes, timing.per_pass):
            rows.append(
                {
                    "algorithm": algorithm,
                    "pass": pass_trace.name,
                    "stages": len(pass_trace.stages),
                    "rounds": pass_timing.rounds,
                    "depth": pass_timing.max_inflight,
                    "makespan (s)": pass_timing.makespan,
                    "bottleneck": pass_timing.bottleneck_thread,
                    "util %": 100 * pass_timing.utilization(
                        pass_timing.bottleneck_thread
                    ),
                    "io util %": 100 * pass_timing.utilization("io"),
                }
            )
    return rows


def durability_breakdown_table(result) -> list[dict]:
    """Durability accounting for a functional run, as table rows.

    ``result`` is an :class:`~repro.oocs.base.OocResult`. Every run
    hashes what it writes and verifies what it reads, so the bytes
    hashed and the checksum failures — read from ``io``, their one
    meter — are rows of every run; the audited passes are a row of an
    audited one.
    """
    dur = result.durability
    io = result.io
    rows = [
        {
            "metric": "bytes hashed",
            "value": io["bytes_hashed"],
            "note": f"CRC ({CHECKSUM_ALGO}) over writes + read verification",
        },
        {
            "metric": "checksum failures",
            "value": io["checksum_failures"],
            "note": "corrupt blocks detected on read",
        },
    ]
    if "audited_passes" in dur:
        rows.append(
            {
                "metric": "audited passes",
                "value": dur["audited_passes"],
                "note": f"{dur['audited_units']} sampled units verified",
            }
        )
    for row in rows:
        row["algorithm"] = result.algorithm
    return rows


def governance_breakdown_table(result) -> list[dict]:
    """Resource-governance accounting for a functional run, as table rows.

    ``result`` is an :class:`~repro.oocs.base.OocResult`; the rows
    render its ``governor`` dict — cancellation checks, pool-budget
    pressure (stalls, evictions, peak held bytes), the disk-full
    reclaim/degrade ladder, pipeline-depth downshifts, and admission
    facts when the job went through a
    :class:`~repro.governor.JobGovernor` — so the table answers "what
    did the governor do to keep this run inside its budgets". Empty
    when the run recorded no governance counters.
    """
    gov = getattr(result, "governor", None) or {}
    if not gov:
        return []
    rows = [
        {
            "metric": "cancel checks",
            "value": gov.get("cancel_checks", 0),
            "note": (
                f"deadline {gov['deadline_s']:.1f}s"
                if gov.get("deadline_s") is not None
                else "no deadline armed"
            ),
        },
        {
            "metric": "budget stalls",
            "value": gov.get("budget_stalls", 0),
            "note": (
                f"budget {gov['budget_bytes']:,} B, "
                f"peak held {gov.get('peak_held_bytes', 0):,} B"
                if gov.get("budget_bytes") is not None
                else "pool budget unlimited"
            ),
        },
        {
            "metric": "budget evictions",
            "value": gov.get("budget_evictions", 0),
            "note": "free buffers dropped to fit the budget",
        },
        {
            "metric": "disk-full events",
            "value": gov.get("disk_full_events", 0),
            "note": f"{gov.get('scratch_reclaims', 0)} reclaims freed "
            f"{gov.get('reclaimed_bytes', 0):,} B",
        },
        {
            "metric": "depth downshifts",
            "value": gov.get("depth_downshifts", 0)
            + (1 if gov.get("degraded") else 0),
            "note": "degraded: read-ahead off"
            if gov.get("degraded")
            else "pipeline depth reduced under pool pressure",
        },
    ]
    if "admission_wait_s" in gov:
        rows.append(
            {
                "metric": "admission wait (s)",
                "value": round(gov["admission_wait_s"], 3),
                "note": f"admitted {gov.get('admitted_mem_bytes', 0):,} B mem / "
                f"{gov.get('admitted_scratch_bytes', 0):,} B scratch",
            }
        )
    for row in rows:
        row["algorithm"] = result.algorithm
    return rows


def supervisor_breakdown_table(result) -> list[dict]:
    """Supervised-recovery accounting for a run, as table rows.

    ``result`` is an :class:`~repro.oocs.base.OocResult` (or anything
    carrying a ``supervisor`` dict in the
    :class:`~repro.resilience.supervisor.SupervisorStats` shape); the
    rows answer "what did supervision do": restarts taken against the
    policy's budget, wall-clock spent recovering, and one row per
    failed attempt naming its cause, the failing rank, and where the
    relaunch resumed. Empty when the run carried no restart policy.
    """
    sup = getattr(result, "supervisor", None) or {}
    if not sup:
        return []
    rows = [
        {
            "metric": "restarts",
            "value": sup.get("restarts", 0),
            "note": f"of {sup.get('max_restarts', 0)} allowed",
        },
        {
            "metric": "restart wall (s)",
            "value": round(sup.get("restart_wall", 0.0), 3),
            "note": "teardown sweep + backoff + resume validation",
        },
    ]
    for entry in sup.get("attempts", []):
        if entry.get("restarted"):
            resumed = entry.get("resumed_from_pass")
            note = (
                "restarted from scratch"
                if resumed in (None, 0)
                else f"restarted after pass {resumed}"
            )
            note += f" (backoff {entry.get('backoff_s', 0.0):.3f}s)"
        else:
            note = (
                "fatal class — not restartable"
                if not entry.get("restartable")
                else "restart budget exhausted"
            )
        rank = entry.get("rank")
        cause = entry.get("cause", "?")
        rows.append(
            {
                "metric": f"attempt {entry.get('attempt', '?')} failure",
                "value": cause if rank is None else f"{cause} (rank {rank})",
                "note": note,
            }
        )
    for row in rows:
        row["algorithm"] = getattr(result, "algorithm", "")
    return rows


def io_boundedness(rows: list[dict]) -> dict[str, float]:
    """Mean I/O-thread utilization per algorithm — the quantitative form
    of the paper's 'how I/O-bound is it' narrative."""
    sums: dict[str, list[float]] = {}
    for row in rows:
        sums.setdefault(row["algorithm"], []).append(row["io util %"])
    return {alg: sum(vals) / len(vals) for alg, vals in sums.items()}
