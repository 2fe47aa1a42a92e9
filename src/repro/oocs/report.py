"""One machine-readable result schema for scripts and the service.

The ``sort --json`` CLI flag and the service daemon's ``result``
responses both emit :func:`result_summary`'s shape, so a script that
parses one parses the other — and the service's crash-recovery proof
(byte-identical output after a ``kill -9``) rests on the same
``output_digest`` field a plain CLI run reports.
"""

from __future__ import annotations

import hashlib

from repro.disks.matrixfile import PdmStore
from repro.durability.hashing import DIGEST_ALGO, hexdigest

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
