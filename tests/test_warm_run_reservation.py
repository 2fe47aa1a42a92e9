"""The pool-side allocation gate: a warm run takes every buffer it uses
from its reservation.

Pool buffers are anonymous memory mappings, which tracemalloc does not
see, so ``tests/test_round_allocations.py`` watches only what is not a
pool buffer. This gate watches the pool itself. A run reserves the
buffers its program declares (``PassProgram.buffers``) before any rank
starts, and the pool meters every buffer it maps (``fresh_buffers``)
and every lease, grab or landing past the reservations of its size
(``uncovered_takes``). A cold run maps its declaration once; the next
run of the same shape finds all of it idle and maps nothing, and no
run ever takes more than it declared — whatever the thread timing, so
one cold run is enough. A declaration that leaves out one buffer a
round holds fails here.
"""

from __future__ import annotations

import gc

import pytest

from repro.cluster.config import ClusterConfig
from repro.oocs.api import job_demands, run_baseline_io, sort_out_of_core
from repro.oocs.baseline_io import baseline_program
from repro.records.format import RecordFormat
from repro.records.generators import generate

FMT = RecordFormat("u8", 64)
P = 2

#: algorithm -> (records, buffer): the shapes of the tracemalloc gate.
SHAPES = {
    "threaded": (16384, 4096),
    "subblock": (16384, 4096),
    "m": (16384, 4096),
    "hybrid": (32768, 4096),
    "g": (16384, 4096),
}


def _sort(algorithm, records, buf, depth):
    res = sort_out_of_core(
        algorithm, records, ClusterConfig(p=P, mem_per_proc=buf * 2), FMT,
        buffer_records=buf, pipeline_depth=depth, verify=False,
        collect_trace=False,
    )
    res.output.delete()
    return res.governor


def _assert_warm(cold: dict, warm: dict, what: str) -> None:
    assert cold["uncovered_takes"] == warm["uncovered_takes"] == 0, (
        f"{what}: a run took buffers past its reservation "
        f"(cold {cold['uncovered_takes']}, warm {warm['uncovered_takes']})"
    )
    assert warm["fresh_buffers"] == 0, (
        f"{what}: a warm run mapped {warm['fresh_buffers']} fresh buffers"
    )


@pytest.mark.parametrize("depth", [0, 2])
@pytest.mark.parametrize("algorithm", sorted(SHAPES))
def test_a_warm_run_takes_every_buffer_from_its_reservation(algorithm, depth):
    n, buf = SHAPES[algorithm]
    records = generate("zipf", FMT, n, seed=1)
    gc.collect()  # buffers other tests dropped count as out until reaped
    cold = _sort(algorithm, records, buf, depth)
    warm = _sort(algorithm, records, buf, depth)
    _assert_warm(cold, warm, f"{algorithm} at depth {depth}")


@pytest.mark.parametrize("depth", [0, 2])
def test_the_baseline_takes_every_buffer_from_its_reservation(depth):
    records = generate("uniform", FMT, 16384, seed=1)
    cluster = ClusterConfig(p=P, mem_per_proc=2048)
    gc.collect()
    runs = [
        run_baseline_io(
            records, cluster, FMT, 1024, passes=4, pipeline_depth=depth,
            collect_trace=False,
        ).governor
        for _ in range(2)
    ]
    _assert_warm(*runs, f"the baseline at depth {depth}")


@pytest.mark.parametrize("depth", [0, 1, 2, 4])
def test_the_baseline_stays_within_its_declaration(depth):
    """``pass_io_only`` holds ``2·depth + 3`` columns a rank at most —
    the prefetched ones, the one handed to the writer, the queued ones
    and the one being written — whatever the thread timing."""
    records = generate("uniform", FMT, 2**14, seed=5)
    cluster = ClusterConfig(p=2, mem_per_proc=2048)
    for _ in range(20):
        res = run_baseline_io(
            records, cluster, FMT, 1024, passes=3, pipeline_depth=depth,
            collect_trace=False,
        )
        mem, _scratch = job_demands(baseline_program(3), res.job)
        assert mem == 2 * (2 * depth + 3) * 1024 * FMT.record_size
        assert res.governor["uncovered_takes"] == 0
        assert 0 < res.governor["peak_held_bytes"] <= mem
