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


def measured_breakdown_table(result) -> list[dict]:
    """Per-pass rows of *measured* stage wall time for a functional run.

    ``result`` is an :class:`~repro.oocs.base.OocResult` from a traced
    run; each row reports the rank-0 seconds the pass pipeline spent in
    every stage category, mirroring :func:`breakdown_table`'s predicted
    rows so before/after (synchronous vs pipelined) comparisons line up
    column-for-column.
    """
    if result.trace is None:
        return []
    categories = ("read_wait", "compute", "comm", "incore", "write_wait")
    rows: list[dict] = []
    for pass_trace in result.trace.passes:
        wall = pass_trace.wall
        row = {
            "algorithm": result.algorithm,
            "pass": pass_trace.name,
            "depth": result.job.pipeline_depth,
        }
        for cat in categories:
            row[f"{cat} (s)"] = wall.get(cat, 0.0)
        row["total (s)"] = sum(wall.values())
        rows.append(row)
    return rows


def copy_breakdown_table(result) -> list[dict]:
    """Data-plane copy accounting for a functional run, as table rows.

    ``result`` is an :class:`~repro.oocs.base.OocResult`; its ``copy``
    dict is the per-run delta of the :mod:`repro.membuf` counters. Rows
    pair each counter with a short gloss so the rendered table reads as
    a narrative: how many bytes were physically copied, how many moved
    as views, and how well the buffer pool recycled.
    """
    copy = getattr(result, "copy", None) or {}
    if not copy:
        return []
    moved = copy.get("bytes_copied", 0) + copy.get("bytes_zero_copy", 0)
    pool_ops = copy.get("pool_hits", 0) + copy.get("pool_misses", 0)
    rows = [
        {
            "metric": "bytes copied",
            "value": copy.get("bytes_copied", 0),
            "note": "physical memcpy traffic",
        },
        {
            "metric": "bytes zero-copy",
            "value": copy.get("bytes_zero_copy", 0),
            "note": "moved as views / readinto",
        },
        {
            "metric": "copy fraction %",
            "value": round(100 * copy.get("bytes_copied", 0) / moved, 1)
            if moved
            else 0.0,
            "note": "copied share of all bytes moved",
        },
        {
            "metric": "pool hit rate %",
            "value": round(100 * copy.get("pool_hits", 0) / pool_ops, 1)
            if pool_ops
            else 0.0,
            "note": f"{copy.get('pool_hits', 0)} hits / "
            f"{copy.get('pool_misses', 0)} misses",
        },
        {
            "metric": "peak leases",
            "value": copy.get("peak_leases", 0),
            "note": "high-water outstanding buffers",
        },
    ]
    # Shared-memory arena rows only when the transport produced arena
    # activity (process backend); the thread backend has no segments and
    # all-zero rows there would read as a disabled feature, not a fact.
    arena_ops = copy.get("arena_hits", 0) + copy.get("arena_misses", 0)
    if arena_ops:
        rows.extend(
            [
                {
                    "metric": "arena hit rate %",
                    "value": round(100 * copy.get("arena_hits", 0) / arena_ops, 1),
                    "note": f"{copy.get('arena_hits', 0)} slab reuses / "
                    f"{copy.get('arena_misses', 0)} segment creates",
                },
                {
                    "metric": "segment attaches",
                    "value": copy.get("attach_count", 0),
                    "note": "first-time receiver mappings",
                },
                {
                    "metric": "bytes landed zero-extra-copy",
                    "value": copy.get("bytes_landed_zero_extra_copy", 0),
                    "note": "inbound slices landed in pooled buffers",
                },
            ]
        )
    for row in rows:
        row["algorithm"] = result.algorithm
    return rows


def durability_breakdown_table(result) -> list[dict]:
    """Durability accounting for a functional run, as table rows.

    ``result`` is an :class:`~repro.oocs.base.OocResult`; the rows
    render its ``durability`` dict (checksums verified, corruption
    caught and repaired, parity maintenance traffic, degraded-mode
    service) next to the run's data I/O, so the table answers both "did
    the bytes survive" and "what did the insurance cost". Empty when
    the run attached no durability layer.
    """
    dur = getattr(result, "durability", None) or {}
    io = getattr(result, "io", None) or {}
    if not dur:
        return []
    degraded = dur.get("degraded_disks", [])
    rows = [
        {
            "metric": "bytes hashed",
            "value": io.get("bytes_hashed", 0),
            "note": f"CRC ({CHECKSUM_ALGO}) over writes + read verification",
        },
        {
            "metric": "checksum failures",
            "value": dur.get("checksum_failures", 0),
            "note": "corrupt blocks detected on read",
        },
        {
            "metric": "blocks repaired",
            "value": dur.get("repaired_blocks", 0),
            "note": "rebuilt in place from parity",
        },
        {
            "metric": "degraded disks",
            "value": len(degraded),
            "note": "ids " + ", ".join(map(str, degraded)) if degraded
            else "no disk declared dead",
        },
        {
            "metric": "blocks reconstructed",
            "value": dur.get("reconstructed_blocks", 0),
            "note": "served from surviving D-1 disks",
        },
        {
            "metric": "spare writes",
            "value": dur.get("spare_writes", 0),
            "note": "writes rerouted off dead disks",
        },
    ]
    if dur.get("parity"):
        overhead = dur.get("parity_bytes_read", 0) + dur.get(
            "parity_bytes_written", 0
        )
        data = io.get("bytes_read", 0) + io.get("bytes_written", 0)
        rows.append(
            {
                "metric": "parity I/O bytes",
                "value": overhead,
                "note": f"{100 * overhead / data:.1f}% of data I/O"
                if data
                else "no data I/O",
            }
        )
    if "audited_passes" in dur:
        rows.append(
            {
                "metric": "audited passes",
                "value": dur.get("audited_passes", 0),
                "note": f"{dur.get('audited_units', 0)} sampled units verified",
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
            "note": "degraded: read-ahead + parity maintenance off"
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
