"""Timing model: pipelines, hardware, and the discrete-event simulator.

The functional layer (:mod:`repro.oocs`) proves the algorithms correct
and meters exact I/O and communication volumes; this subpackage turns
those volumes into *time*, reproducing the paper's Figure 2 at full
experimental scale (4-32 GB, P ∈ {4, 8, 16}) without moving real data:

* :mod:`~repro.simulate.trace` — structural traces: per pass, per
  round, per stage, how many bytes each pipeline stage moves, and the
  paper's pipeline shapes; :mod:`~repro.simulate.traces` — what one
  round pushes through each shape. The pass programs pair the two and
  derive a trace for any problem size (legal because the algorithms'
  I/O and communication patterns are oblivious to key values, paper
  §2); live runs add measured walls. Nothing here knows an algorithm;
* :mod:`~repro.simulate.hardware` — hardware cost models, including the
  calibrated ``BEOWULF_2003`` preset matching the paper's testbed;
* :mod:`~repro.simulate.des` — an event-driven simulator of the
  asynchronous stage pipelines (stages share threads exactly as the
  paper describes: read and write share the I/O thread, etc.);
* :mod:`~repro.simulate.predict` — end-to-end predicted runtimes and
  per-pass breakdowns for each algorithm and buffer size.
"""

from repro.simulate.trace import PassTrace, RoundWork, RunTrace
from repro.simulate.hardware import BEOWULF_2003, HardwareModel
from repro.simulate.des import PipelineSimulator
from repro.simulate.predict import predict_run, predict_seconds_per_gb

__all__ = [
    "RoundWork",
    "PassTrace",
    "RunTrace",
    "HardwareModel",
    "BEOWULF_2003",
    "PipelineSimulator",
    "predict_run",
    "predict_seconds_per_gb",
]
