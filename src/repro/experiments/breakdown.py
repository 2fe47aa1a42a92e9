"""T-breakdown — where the time goes, per pass and per thread.

The paper's §5 narrative ("threaded columnsort is almost purely
I/O-bound", "M-columnsort is not nearly as I/O-bound") as a table: for
each algorithm and pass, the predicted makespan, the bottleneck
thread, and that thread's utilization — computed by the same DES that
regenerates Figure 2.
"""

from __future__ import annotations

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


def io_boundedness(rows: list[dict]) -> dict[str, float]:
    """Mean I/O-thread utilization per algorithm — the quantitative form
    of the paper's 'how I/O-bound is it' narrative."""
    sums: dict[str, list[float]] = {}
    for row in rows:
        sums.setdefault(row["algorithm"], []).append(row["io util %"])
    return {alg: sum(vals) / len(vals) for alg, vals in sums.items()}
