"""repro — out-of-core columnsort with relaxed problem-size bounds.

A full reproduction of *"Relaxing the Problem-Size Bound for Out-of-Core
Columnsort"* (Chaudhry, Hamon, Cormen; Dartmouth TR2003-445 / SPAA 2003):
the three out-of-core sorting programs (threaded, subblock, and
M-columnsort) plus the §6 hybrid, running on a simulated
distributed-memory cluster with file-backed parallel disks, and a
calibrated discrete-event timing model that regenerates the paper's
Figure 2 at full experimental scale.

The in-core algorithms live in :mod:`repro.columnsort` (kept off the
top level so the subpackage name stays importable). Quickstart::

    from repro import ClusterConfig, RecordFormat, generate, sort_out_of_core

    fmt = RecordFormat("u8", 64)
    records = generate("uniform", fmt, 8192, seed=1)
    cluster = ClusterConfig(p=4, mem_per_proc=2**12)
    result = sort_out_of_core("subblock", records, cluster, fmt,
                              buffer_records=256)   # verified PDM output

Package map:

==================  ====================================================
``repro.columnsort``  in-core columnsort (8-step) and subblock (10-step)
``repro.records``     record formats and workload generators
``repro.matrix``      the even-step and subblock permutations
``repro.cluster``     SPMD engine with an MPI-like communicator
``repro.disks``       virtual parallel disks, column and PDM layouts
``repro.oocs``        the out-of-core sorting programs
``repro.bounds``      problem-size restrictions (1), (2), (3) and §6
``repro.simulate``    traces, hardware models, pipeline DES
``repro.experiments`` Figure 2 and the in-text tables
==================  ====================================================
"""

from repro.cluster.config import ClusterConfig
from repro.errors import (
    CommError,
    ConfigError,
    DimensionError,
    DiskError,
    ReproError,
    VerificationError,
)
from repro.oocs.api import sort_out_of_core
from repro.oocs.verify import verify_output
from repro.records.format import RecordFormat
from repro.records.generators import generate, workload_names

__version__ = "1.0.0"

__all__ = [
    "ClusterConfig",
    "RecordFormat",
    "generate",
    "workload_names",
    "sort_out_of_core",
    "verify_output",
    "ReproError",
    "ConfigError",
    "DimensionError",
    "CommError",
    "DiskError",
    "VerificationError",
    "__version__",
]
