"""Event-driven simulation of the asynchronous stage pipelines.

The paper's implementations run each pass as a pipeline: every round's
buffer flows through the stages in order, stages are bound to threads,
and at any instant each stage may be working on a different round
(paper §2). This module computes the makespan of such a pipeline from a
:class:`~repro.simulate.trace.PassTrace` and a
:class:`~repro.simulate.hardware.HardwareModel`.

Model rules:

* a stage-round becomes *ready* when the previous stage of the same
  round completes (stage 0: when the round is admitted);
* each thread runs one stage-round at a time, picking among ready
  stages the earliest round (and earliest stage within it) — this lets
  the I/O thread interleave round ``t+1``'s read with round ``t``'s
  write in whichever order readiness dictates, as the real
  implementation's I/O thread does;
* at most ``max_inflight`` rounds may be between admission and
  completion — the buffer-pool limit. This is the mechanism behind two
  of the paper's observations: smaller buffers admit more rounds but
  pay more per-stage overheads, and M-columnsort's extra threads
  consume extra buffers, deepening its latency sensitivity (§5: "uses
  more memory (due to the extra buffers required by the additional
  threads)").
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.simulate.hardware import HardwareModel
from repro.simulate.trace import PassTrace


@dataclass
class PassTiming:
    """Result of simulating one pass."""

    name: str
    makespan: float
    thread_busy: dict[str, float] = field(default_factory=dict)
    stage_total: dict[str, float] = field(default_factory=dict)
    rounds: int = 0
    max_inflight: int = 0

    @property
    def bottleneck_thread(self) -> str:
        return max(self.thread_busy, key=self.thread_busy.get)

    def utilization(self, thread: str) -> float:
        """Busy fraction of a thread over the pass."""
        if self.makespan == 0:
            return 0.0
        return self.thread_busy.get(thread, 0.0) / self.makespan


class PipelineSimulator:
    """Simulates one pass's pipeline; see module docstring for rules."""

    def __init__(self, hw: HardwareModel, max_inflight: int = 4) -> None:
        if max_inflight < 1:
            raise ConfigError(f"max_inflight must be ≥ 1, got {max_inflight}")
        self.hw = hw
        self.max_inflight = max_inflight

    def run(self, trace: PassTrace) -> PassTiming:
        stages = trace.stages
        rounds = trace.rounds
        n_rounds = len(rounds)
        timing = PassTiming(
            name=trace.name,
            makespan=0.0,
            thread_busy={h: 0.0 for h in trace.threads()},
            stage_total={st.name: 0.0 for st in stages},
            rounds=n_rounds,
            max_inflight=self.max_inflight,
        )
        if n_rounds == 0:
            return timing

        def duration(t: int, k: int) -> float:
            st = stages[k]
            work = rounds[t].work.get(st.name, 0.0)
            msgs = rounds[t].messages.get(st.name, 0)
            return self.hw.stage_seconds(st, work, msgs)

        ready: dict[str, list[tuple[int, int]]] = {h: [] for h in trace.threads()}
        idle: set[str] = set(trace.threads())
        events: list[tuple[float, int, str, int, int]] = []  # (time, seq, thread, t, k)
        seq = 0
        inflight = 0
        next_round = 0
        now = 0.0

        def admit() -> None:
            nonlocal inflight, next_round
            while inflight < self.max_inflight and next_round < n_rounds:
                heapq.heappush(ready[stages[0].thread], (next_round, 0))
                inflight += 1
                next_round += 1

        def start_idle_threads() -> None:
            nonlocal seq
            for h in list(idle):
                if ready[h]:
                    t, k = heapq.heappop(ready[h])
                    idle.discard(h)
                    dur = duration(t, k)
                    timing.thread_busy[h] += dur
                    timing.stage_total[stages[k].name] += dur
                    seq += 1
                    heapq.heappush(events, (now + dur, seq, h, t, k))

        admit()
        start_idle_threads()
        while events:
            now, _, h, t, k = heapq.heappop(events)
            idle.add(h)
            if k + 1 < len(stages):
                heapq.heappush(ready[stages[k + 1].thread], (t, k + 1))
            else:
                inflight -= 1
                admit()
            start_idle_threads()
        timing.makespan = now
        return timing
