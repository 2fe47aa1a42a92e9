"""Out-of-core sorting programs.

Every program is a :class:`~repro.oocs.base.PassProgram` record — a
pass list and a shape resolver — run by the one runner,
:func:`~repro.oocs.base.run_pass_program`, over the simulated cluster
and disks. The pass list is stated once: each
:class:`~repro.oocs.base.PassSpec` holds the pass's pipeline stages and
per-round work beside the body that runs, so the trace a run reports
and the trace Figure 2 is priced from
(:func:`~repro.oocs.api.analytic_trace`) are both
:meth:`PassProgram.trace <repro.oocs.base.PassProgram.trace>` of it.
Each resolver names its point on the grid of
:func:`~repro.columnsort.validation.out_of_core_shape` — height
interpretation ``r = g·M/P`` × height restriction — and the group size
``g = r / buffer`` is the layout of its column stores.
:data:`ALGORITHMS` names five points of the grid, all built by
:func:`~repro.oocs.grid.columnsort_program` and all running the same
four pass bodies:

* ``"threaded"`` ``(g = 1, basic)`` — the 3-pass baseline ("threaded
  columnsort", paper §2): pass 1 = steps 1+2, pass 2 = steps 3+4,
  pass 3 = steps 5-8 combined;
* ``"subblock"`` ``(g = 1, relaxed)`` — 4 passes, inserting the
  subblock pass (steps 3+3.1, :mod:`~repro.oocs.subblock`) after
  pass 1 (paper §3);
* ``"m"`` ``(g = P, basic)`` — 3 passes with the height interpretation
  ``r = M``: every column spans the cluster and each sort stage is a
  distributed in-core sort (paper §4);
* ``"hybrid"`` ``(g = P, relaxed)`` — the §6 future-work combination:
  subblock's relaxed height restriction with M-columnsort's height
  interpretation (4 passes, bound ``N ≤ M^(5/3)/4^(2/3)``);
* ``"g"`` ``(g, basic)`` — the §6 adjustable height interpretation
  ``r = g·M/P``, interpolating between threaded (g=1) and M-columnsort
  (g=P) with bound ``N ≤ (g·M/P)^(3/2)/√2``; ``OocJob.group_size``
  picks ``g`` (default: the smallest feasible).

:func:`~repro.oocs.baseline_io.baseline_program` builds the I/O-only
baseline of §5 — any layout, no height restriction — for the same
runner. All sorts produce output in PDM striped ordering and are
verified by :mod:`~repro.oocs.verify`; :func:`sort_out_of_core` is the
one-call entry point.
"""

from repro.oocs.base import (
    OocJob,
    OocResult,
    PassProgram,
    make_workspace,
    run_pass_program,
)
from repro.oocs.subblock import subblock_round_routing
from repro.oocs.baseline_io import baseline_program
from repro.oocs.verify import verify_output
from repro.oocs.api import sort_out_of_core, ALGORITHMS

__all__ = [
    "OocJob",
    "OocResult",
    "PassProgram",
    "make_workspace",
    "run_pass_program",
    "subblock_round_routing",
    "baseline_program",
    "verify_output",
    "sort_out_of_core",
    "ALGORITHMS",
]
