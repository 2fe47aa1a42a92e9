"""The I/O-only baseline (paper §5).

For calibration the paper ran "just the I/O portions of three and four
passes of columnsort": read every record and write it back, ``k``
times, with no sorting or communication. The gap between an algorithm's
time and this baseline is its non-I/O overhead — threaded columnsort at
buffer 2^25 sat just barely above the 3-pass baseline.
"""

from __future__ import annotations

from repro.columnsort.validation import column_layout
from repro.errors import ConfigError
from repro.oocs.base import (
    OocJob,
    PassProgram,
    PassSpec,
    io_only_buffers,
    pass_io_only,
)
from repro.simulate.trace import io_only_pipeline
from repro.simulate.traces import io_round_work


def derive_shape(job: OocJob) -> tuple[int, int]:
    """The ``r × s`` matrix of a baseline job: whole ``buffer``-high
    columns, at least one per processor — and no height restriction,
    since nothing is sorted."""
    return column_layout(job.n, job.cluster.p, job.buffer_records)


def baseline_program(passes: int = 3) -> PassProgram:
    """``passes`` read+write-only passes over the matrix (3 for the
    threaded/M baseline, 4 for the subblock baseline)."""
    if passes < 1:
        raise ConfigError(f"need at least one pass, got {passes}")
    keys = ["input", *(f"t{k}" for k in range(1, passes)), "output"]
    specs = [
        PassSpec(f"io-pass{k + 1}", io_only_pipeline, io_round_work,
                 pass_io_only, keys[k], keys[k + 1])
        for k in range(passes)
    ]
    return PassProgram(
        f"baseline-io-{passes}", specs, derive_shape, scratch="io",
        pdm_output=False, demand=io_only_buffers,
    )
