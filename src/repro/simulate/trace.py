"""Structural traces of out-of-core passes.

A *pass* reads every record once, pushes it through a pipeline of
stages, and writes it back (paper §2). A trace captures, per round and
per stage, how much work each stage performs — enough for the
discrete-event simulator to compute the pass's pipelined makespan, and
nothing more (no keys, no data).

Stage kinds and their work units:

========= ======================= =====================================
kind      work unit               examples
========= ======================= =====================================
``read``  bytes from disk         the read stage
``write`` bytes to disk           the write stage
``sort``  records sorted locally  sort stages (in- or out-of-core)
``comm``  bytes over the network  communicate stages (plus a message
                                  count for latency accounting)
``permute`` bytes copied in memory the permute stage
========= ======================= =====================================

Each stage is pinned to a named *thread*; stages sharing a thread
serialize (the paper's implementations share the I/O thread between the
read and write stages, etc.).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class StageSpec:
    """One pipeline stage: a name, a work kind, and its thread."""

    name: str
    kind: str  # read | write | sort | comm | permute
    thread: str

    def __post_init__(self) -> None:
        if self.kind not in ("read", "write", "sort", "comm", "permute"):
            raise ValueError(f"unknown stage kind {self.kind!r}")


@dataclass
class RoundWork:
    """Work performed by every stage in one round, keyed by stage name.

    ``work[stage]`` is bytes for read/write/comm/permute stages and
    records for sort stages; ``messages[stage]`` (comm stages only)
    counts network messages for latency accounting.
    """

    work: dict[str, float] = field(default_factory=dict)
    messages: dict[str, int] = field(default_factory=dict)


@dataclass
class PassTrace:
    """One pass: its pipeline shape and per-round work (for a single
    processor — the algorithms are symmetric across processors).

    ``wall`` holds *measured* seconds per stage category (``read_wait``
    / ``compute`` / ``comm`` / ``incore`` / ``write_wait`` — see
    :mod:`repro.pipeline.timing`) when the pass was executed by a live
    rank program; the trace of a merely priced configuration leaves it
    empty.
    """

    name: str
    stages: list[StageSpec]
    rounds: list[RoundWork] = field(default_factory=list)
    wall: dict[str, float] = field(default_factory=dict)

    def total(self, kind: str) -> float:
        """Total work of all stages of a kind across all rounds."""
        names = [st.name for st in self.stages if st.kind == kind]
        return sum(rw.work.get(name, 0.0) for rw in self.rounds for name in names)

    def threads(self) -> list[str]:
        seen: list[str] = []
        for st in self.stages:
            if st.thread not in seen:
                seen.append(st.thread)
        return seen


@dataclass
class RunTrace:
    """A full run: one trace per pass, plus identifying metadata."""

    algorithm: str
    n_records: int
    record_size: int
    p: int
    buffer_bytes: int
    passes: list[PassTrace] = field(default_factory=list)

    @property
    def data_bytes(self) -> int:
        return self.n_records * self.record_size

    @property
    def gb_total(self) -> float:
        return self.data_bytes / 2**30

    @property
    def gb_per_proc(self) -> float:
        return self.gb_total / self.p

    def total(self, kind: str) -> float:
        return sum(p.total(kind) for p in self.passes)

    def measured_wall(self) -> dict[str, float]:
        """Measured per-stage wall seconds summed over passes (empty
        unless a live run populated ``PassTrace.wall``)."""
        total: dict[str, float] = {}
        for pass_trace in self.passes:
            for category, seconds in pass_trace.wall.items():
                total[category] = total.get(category, 0.0) + seconds
        return total


# Pipeline shapes from the paper.

def five_stage_pipeline() -> list[StageSpec]:
    """Passes 1-2 of threaded/subblock columnsort: read, sort,
    communicate, permute, write on four threads (read+write share the
    I/O thread)."""
    return [
        StageSpec("read", "read", "io"),
        StageSpec("sort", "sort", "sort"),
        StageSpec("communicate", "comm", "comm"),
        StageSpec("permute", "permute", "permute"),
        StageSpec("write", "write", "io"),
    ]


def seven_stage_pipeline() -> list[StageSpec]:
    """The last pass of threaded/subblock columnsort: two sort stages
    and two communicate stages (paper §2, third implementation)."""
    return [
        StageSpec("read", "read", "io"),
        StageSpec("sort1", "sort", "sort"),
        StageSpec("communicate1", "comm", "comm"),
        StageSpec("sort2", "sort", "sort"),
        StageSpec("communicate2", "comm", "comm"),
        StageSpec("permute", "permute", "permute"),
        StageSpec("write", "write", "io"),
    ]


def incore_sort_stages(prefix: str) -> list[StageSpec]:
    """The eight stages of one distributed in-core columnsort inside
    M-columnsort: four local sorts on one thread, four communication
    steps on another (paper §4)."""
    out: list[StageSpec] = []
    for k, step in enumerate(("s1", "c2", "s3", "c4", "s5", "c6", "s7", "c8")):
        kind = "sort" if step.startswith("s") else "comm"
        thread = f"{prefix}-sort" if kind == "sort" else f"{prefix}-comm"
        out.append(StageSpec(f"{prefix}-{step}", kind, thread))
    return out


def eleven_stage_pipeline() -> list[StageSpec]:
    """Passes 1-2 of M-columnsort: read, the eight in-core columnsort
    stages, permute, write — on four threads (paper §4)."""
    return (
        [StageSpec("read", "read", "io")]
        + incore_sort_stages("ic")
        + [
            StageSpec("permute", "permute", "permute"),
            StageSpec("write", "write", "io"),
        ]
    )


def twenty_stage_pipeline() -> list[StageSpec]:
    """The last pass of M-columnsort: read, eight in-core stages (step
    5's distributed sort), the remaining communicate, eight more in-core
    stages (step 7's), permute, write — 20 stages on seven threads
    (paper §4)."""
    return (
        [StageSpec("read", "read", "io")]
        + incore_sort_stages("ic1")
        + [StageSpec("communicate", "comm", "comm")]
        + incore_sort_stages("ic2")
        + [
            StageSpec("permute", "permute", "permute"),
            StageSpec("write", "write", "io"),
        ]
    )


def io_only_pipeline() -> list[StageSpec]:
    """The baseline: read and write only (paper §5's 'baseline I/O
    time')."""
    return [
        StageSpec("read", "read", "io"),
        StageSpec("write", "write", "io"),
    ]
