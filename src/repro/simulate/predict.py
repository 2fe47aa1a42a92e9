"""End-to-end runtime prediction.

Glues the pieces together: a :class:`~repro.simulate.trace.RunTrace`
(derived from a pass program, for a priced configuration or a live
run alike), a hardware model, and the pipeline simulator. The headline
quantity is the paper's y-axis:
**seconds per (GB of data per processor)** — the normalization under
which Figure 2's lines are nearly flat, because execution time is
dominated by per-processor data volume (§5).

The in-flight round limit (pipeline depth) is derived from the buffer
pool: a node's RAM holds ``ram/buffer`` buffers; each in-flight round
pins roughly one buffer per pipeline thread plus transfer slack, and
M-columnsort's extra in-core threads pin four more (§4: "the additional
threads in M-columnsort require the allocation of four additional
buffers"). Deeper pipelines hide more latency — this is why larger
buffers help until memory pressure bites (§5).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.simulate.des import PassTiming, PipelineSimulator
from repro.simulate.hardware import HardwareModel
from repro.simulate.trace import PassTrace, RunTrace

#: Extra buffers pinned *per in-flight round* by the in-core sort
#: threads of M-columnsort and the hybrid. The paper's four additional
#: buffers (§4) are a per-processor total; roughly one of them is held
#: by each round in flight.
EXTRA_INCORE_BUFFERS = 1


@dataclass
class RunTiming:
    """Predicted timing of one full run."""

    algorithm: str
    total_seconds: float
    per_pass: list[PassTiming] = field(default_factory=list)
    gb_total: float = 0.0
    gb_per_proc: float = 0.0

    @property
    def seconds_per_gb_per_proc(self) -> float:
        """The paper's Figure 2 y-axis."""
        if self.gb_per_proc == 0:
            return 0.0
        return self.total_seconds / self.gb_per_proc


def buffers_per_round(trace: PassTrace) -> int:
    """Buffers one in-flight round pins: one per pipeline thread, plus
    the in-core surcharge when the pass embeds distributed in-core
    sorts."""
    extra = (
        EXTRA_INCORE_BUFFERS
        if any(st.name.startswith("ic") for st in trace.stages)
        else 0
    )
    return len(trace.threads()) + extra


def max_inflight_for(trace: PassTrace, hw: HardwareModel, buffer_bytes: int) -> int:
    """Pipeline depth allowed by the buffer pool (≥ 1)."""
    available = hw.buffers_available(buffer_bytes)
    return max(1, available // buffers_per_round(trace))


def predict_run(run: RunTrace, hw: HardwareModel) -> RunTiming:
    """Simulate every pass of a run and total the makespans.

    Passes are separated by a barrier in the real programs, so their
    makespans add; overlap lives *within* a pass.
    """
    timings: list[PassTiming] = []
    total = 0.0
    for pass_trace in run.passes:
        inflight = max_inflight_for(pass_trace, hw, run.buffer_bytes)
        timing = PipelineSimulator(hw, max_inflight=inflight).run(pass_trace)
        timings.append(timing)
        total += timing.makespan
    return RunTiming(
        algorithm=run.algorithm,
        total_seconds=total,
        per_pass=timings,
        gb_total=run.gb_total,
        gb_per_proc=run.gb_per_proc,
    )


def predict_seconds_per_gb(
    algorithm: str,
    n: int,
    p: int,
    buffer_bytes: int,
    record_size: int,
    hw: HardwareModel,
    passes: int = 3,
) -> float:
    """One-call prediction of the Figure 2 y-value for a configuration.

    ``algorithm`` is a key of :data:`repro.oocs.api.ALGORITHMS` or
    ``"baseline-io"`` (which also uses ``passes``). ``buffer_bytes`` is
    the paper's buffer size (2^24 or 2^25 in §5).
    """
    from repro.oocs.api import analytic_trace

    run = analytic_trace(
        algorithm, n, p, buffer_bytes // record_size, record_size, passes=passes
    )
    return predict_run(run, hw).seconds_per_gb_per_proc
