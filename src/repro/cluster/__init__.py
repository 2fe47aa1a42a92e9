"""Simulated distributed-memory cluster.

The paper ran on a Beowulf cluster: one MPI process per node, pthreads
inside each process, Myrinet between nodes. mpi4py is unavailable here
(and slow for I/O-heavy sorting per the calibration notes), so this
subpackage provides the synthetic equivalent: an in-process SPMD engine.

* :class:`~repro.cluster.config.ClusterConfig` — the machine shape:
  ``P`` processors, ``D`` disks, memory per processor;
* :class:`~repro.cluster.comm.Comm` — an MPI-like communicator (``send``
  / ``recv`` / ``sendrecv`` / ``barrier`` / ``bcast`` / ``allgather`` /
  ``alltoall`` / ``alltoallv`` / ``allreduce``), with mpi4py-style copy-on-send buffer semantics;
* :func:`~repro.cluster.spmd.run_spmd` — launch ``P`` ranks of a program
  (one Python thread each; NumPy releases the GIL, so local sorts
  genuinely overlap) and gather their results;
* :class:`~repro.cluster.stats.CommStats` — per-rank message/byte
  accounting, distinguishing network traffic from self-messages. This is
  what the message-count experiments (paper §3, properties 1-3) read.

Rank programs written against :class:`Comm` are structured exactly like
their MPI originals, so communication counts and volumes match the
paper's analysis record for record.
"""

from repro.cluster.config import ClusterConfig
from repro.cluster.comm import Comm
from repro.cluster.spmd import run_spmd
from repro.cluster.stats import CommStats
from repro.cluster.transport import Transport, available_backends, get_transport

__all__ = [
    "ClusterConfig",
    "Comm",
    "run_spmd",
    "CommStats",
    "Transport",
    "available_backends",
    "get_transport",
]
