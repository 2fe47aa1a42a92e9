"""One result schema for scripts, the service and people.

The ``sort --json`` CLI flag and the service daemon's ``result``
responses both emit :func:`result_summary`'s shape, so a script that
parses one parses the other — and the service's crash-recovery proof
(byte-identical output after a ``kill -9``) rests on the same
``output_digest`` field a plain CLI run reports. A plain ``sort``
prints :func:`render_report` of the same dict.
"""

from __future__ import annotations

import hashlib

from repro.disks.matrixfile import PdmStore
from repro.durability.hashing import CHECKSUM_ALGO, DIGEST_ALGO, hexdigest

#: Bump on incompatible changes to the summary shape.
RESULT_SCHEMA = "repro.sort-result/1"


def output_digest(result) -> str:
    """Content digest (:data:`DIGEST_ALGO`) of the sorted output bytes —
    the identity two runs of one job spec are compared by. A
    :class:`~repro.disks.matrixfile.PdmStore` is hashed chunk by chunk;
    the I/O baseline's column store is read whole."""
    out = result.output
    if not isinstance(out, PdmStore):
        return hexdigest(out.to_records().tobytes())
    h = hashlib.new(DIGEST_ALGO)
    for _start, chunk in out.chunks():
        h.update(chunk)
    return h.hexdigest()


def result_summary(result, verified: bool | None = None,
                   digest: str | None = None) -> dict:
    """Fold an :class:`~repro.oocs.base.OocResult` into plain JSON-able
    data. ``digest`` lets a caller that already hashed the output skip
    the re-read; ``digest=""`` (or leaving the output unread with
    ``digest=None`` on a deleted store) is not special-cased — the
    digest is computed here when not supplied.
    """
    job = result.job
    summary = {
        "schema": RESULT_SCHEMA,
        "algorithm": result.algorithm,
        "n": job.n,
        "record_size": job.fmt.record_size,
        "key": job.fmt.key,
        "processors": job.cluster.p,
        "buffer_records": job.buffer_records,
        "pipeline_depth": job.pipeline_depth,
        "backend": job.backend,
        "passes": result.passes,
        "io": dict(result.io),
        "comm": dict(result.comm_total),
        "stage_wall_s": result.stage_wall(),
        "output_digest": digest if digest is not None else output_digest(result),
        "digest_algo": DIGEST_ALGO,
    }
    if verified is not None:
        summary["verified"] = verified
    if result.copy:
        summary["copy"] = dict(result.copy)
    if result.durability:
        summary["durability"] = dict(result.durability)
    if result.governor:
        summary["governor"] = dict(result.governor)
    if result.supervisor:
        summary["supervisor"] = dict(result.supervisor)
    return summary


def render_report(summary: dict) -> str:
    """The human report of a :func:`result_summary`: every section the
    run has — I/O, network, retries when any, stage walls when traced,
    copies and pool (and the shared-memory arena on the process
    backend, the only one with segments), checksums (and the audit when
    audited), governance when a deadline or budget was armed or a
    counter moved, supervision when a restart policy was armed."""
    from repro.pipeline.timing import CATEGORIES

    io, comm = summary["io"], summary["comm"]
    verified = " — verified" if summary.get("verified") else ""
    lines = [
        f"{summary['algorithm']}: sorted {summary['n']} records on "
        f"P={summary['processors']} in {summary['passes']} passes "
        f"(pipeline depth {summary['pipeline_depth']}){verified}",
        f"  disk I/O: {io['bytes_read']:,} B read / {io['bytes_written']:,} B "
        f"written ({io['reads']} reads, {io['writes']} writes)",
        f"  network: {comm['network_bytes']:,} B in "
        f"{comm['network_messages']} messages",
        f"  output digest: {summary['output_digest']} ({summary['digest_algo']})",
    ]
    if io["read_retries"] + io["write_retries"] + comm["retries"]:
        lines.append(
            f"  retries: {io['read_retries']} read, {io['write_retries']} "
            f"write, {comm['retries']} comm (all transient faults recovered)"
        )
    wall = summary["stage_wall_s"]
    if wall:
        stages = "  ".join(
            f"{cat} {wall[cat] * 1000:.1f} ms" for cat in CATEGORIES if cat in wall
        )
        lines.append(
            f"  stage wall (rank 0, {sum(wall.values()) * 1000:.1f} ms): {stages}"
        )
    copy = summary.get("copy")
    if copy:
        copied, zero = copy["bytes_copied"], copy["bytes_zero_copy"]
        lines += [
            f"  copies: {copied:,} B copied / {zero:,} B zero-copy "
            f"({100 * copied / (copied + zero) if copied + zero else 0.0:.1f}% "
            f"copied)",
            f"  pool: {copy['pool_hits']} hits, {copy['pool_misses']} misses, "
            f"peak {copy['peak_leases']} leases outstanding",
        ]
        if summary["backend"] == "process":
            hits, creates = copy["arena_hits"], copy["arena_misses"]
            lines.append(
                f"  arena: {hits} slab reuses / {creates} creates "
                f"({100 * hits / (hits + creates) if hits + creates else 0.0:.1f}"
                f"% hit), {copy['attach_count']} attaches, "
                f"{copy['bytes_landed_zero_extra_copy']:,} B landed "
                f"zero-extra-copy"
            )
    lines.append(
        f"  checksums: {io['bytes_hashed']:,} bytes hashed ({CHECKSUM_ALGO} "
        f"over writes + read verification), {io['extents_verified']:,} "
        f"extents verified in {io['reads']:,} reads, "
        f"{io['checksum_failures']} failures"
    )
    durability = summary.get("durability", {})
    if "audited_passes" in durability:
        lines.append(
            f"  audit: {durability['audited_passes']} audited passes, "
            f"{durability['audited_units']} sampled units verified"
        )
    lines += _governance_lines(summary.get("governor", {}))
    lines += _supervision_lines(summary.get("supervisor", {}))
    return "\n".join(lines)


#: Governor counters whose moving makes the governance section show.
_GOVERNANCE_MOVES = ("cancel_checks", "disk_full_events", "admission_wait_s")


def _governance_lines(gov: dict) -> list[str]:
    armed = gov.get("deadline_s") is not None or gov.get("budget_bytes") is not None
    if not (armed or any(gov.get(key) for key in _GOVERNANCE_MOVES)):
        return []
    budget = gov.get("budget_bytes")
    deadline = gov.get("deadline_s")
    lines = [
        f"  governance: budget "
        f"{'unlimited' if budget is None else f'{budget:,} B'}, peak held "
        f"{gov['peak_held_bytes']:,} B",
        f"  cancellation: {gov.get('cancel_checks', 0)} checks, "
        f"{'no deadline' if deadline is None else f'deadline {deadline:.1f}s'}",
        f"  disk full: {gov['disk_full_events']} events, "
        f"{gov['scratch_reclaims']} reclaims freed {gov['reclaimed_bytes']:,} B",
    ]
    if "admission_wait_s" in gov:
        lines.append(
            f"  admission: waited {gov['admission_wait_s']:.3f}s, admitted "
            f"{gov['admitted_mem_bytes']:,} B mem / "
            f"{gov['admitted_scratch_bytes']:,} B scratch"
        )
    return lines


def _supervision_lines(sup: dict) -> list[str]:
    if not sup:
        return []
    restarts = sup["restarts"]
    lines = [
        f"  supervision: {restarts} restart{'' if restarts == 1 else 's'} "
        f"(of {sup['max_restarts']} allowed), {sup['restart_wall']:.3f}s "
        f"recovering"
    ]
    for entry in sup["attempts"]:
        cause = entry["cause"]
        if entry["rank"] is not None:
            cause += f" (rank {entry['rank']})"
        if entry["restarted"]:
            resumed = entry.get("resumed_from_pass")
            outcome = (
                "restarted from scratch" if not resumed
                else f"restarted after pass {resumed}"
            ) + f" (backoff {entry['backoff_s']:.3f}s)"
        elif entry["restartable"]:
            outcome = "restart budget exhausted"
        else:
            outcome = "fatal class — not restartable"
        lines.append(f"    attempt {entry['attempt']}: {cause}, {outcome}")
    return lines
