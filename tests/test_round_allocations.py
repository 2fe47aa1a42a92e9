"""A warm sort allocates no record arrays: every record-sized array a
round needs is a buffer-pool array, reused round after round.

The gate runs each program three times at the same shape. The first
two runs fill the pool's freelists: a freelist keeps as many buffers as
a run had out at once, and with pipelined passes that high-water mark
depends on thread timing, so one run does not always reach it (hybrid
at depth 2 took one more buffer on its second run about one time in
three, and on no later run of twelve). tracemalloc then watches the
third, whose peak
of new allocations must stay within ``P × portion`` bytes — less than
one record buffer per rank, so a single per-round record array (a
fresh sort output, a gather, a concatenation, a packed ``alltoallv``
buffer) fails it. What remains is index arrays of the sorts (an eighth
of a record each), Python objects and the run's own bookkeeping. The
shapes use the largest portions that keep a run small (256 KiB, four
columns or fewer), so that bookkeeping which grows with N stays small
beside the bound.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro.cluster.config import ClusterConfig
from repro.cluster.mailbox import MailboxRouter
from repro.membuf import get_pool
from repro.oocs.api import ALGORITHMS, sort_out_of_core
from repro.oocs.base import OocJob
from repro.records.format import RecordFormat
from repro.records.generators import generate

FMT = RecordFormat("u8", 64)
P = 2

#: algorithm -> (records, buffer): legal shapes with few columns at a
#: 4096-record buffer on P = 2.
SHAPES = {
    "threaded": (16384, 4096),
    "subblock": (16384, 4096),
    "m": (16384, 4096),
    "hybrid": (32768, 4096),
    "g": (16384, 4096),
}


def _portion_bytes(algorithm: str, n: int, buf: int) -> int:
    """Bytes of one rank's portion of a column (``r/g`` records)."""
    job = OocJob(
        cluster=ClusterConfig(p=P, mem_per_proc=buf * 2), fmt=FMT, n=n,
        buffer_records=buf,
    )
    r, _s, g = ALGORITHMS[algorithm].layout(job)
    return r // g * FMT.record_size


def _sort(algorithm, records, buf, depth):
    res = sort_out_of_core(
        algorithm, records, ClusterConfig(p=P, mem_per_proc=buf * 2), FMT,
        buffer_records=buf, pipeline_depth=depth, verify=False,
        collect_trace=False,
    )
    res.output.delete()


@pytest.mark.parametrize("depth", [0, 2])
@pytest.mark.parametrize("algorithm", sorted(SHAPES))
def test_a_warm_run_allocates_no_record_arrays(algorithm, depth):
    n, buf = SHAPES[algorithm]
    records = generate("uniform", FMT, n, seed=1)
    for _ in range(2):
        _sort(algorithm, records, buf, depth)  # fills the pool's freelists
    tracemalloc.start()
    try:
        _sort(algorithm, records, buf, depth)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    bound = P * _portion_bytes(algorithm, n, buf)
    assert peak <= bound, (
        f"{algorithm} at depth {depth}: a warm run allocated {peak:,} B at "
        f"its peak, more than P x portion = {bound:,} B"
    )


@pytest.mark.parametrize("depth", [0, 2])
@pytest.mark.parametrize("algorithm", sorted(SHAPES))
def test_every_receiver_releases_its_slices(algorithm, depth, monkeypatch):
    """Each packed ``alltoallv`` buffer of a run is back in the pool when
    the run returns: every receiver released every slice it got. The
    buffers are kept alive here, so a slice dropped without a release
    would leave its buffer lent. (Buffers other tests still hold slices
    of are counted on both sides.)"""
    gc.collect()
    lent_before = get_pool().lent()
    packed = []
    alloc = MailboxRouter.alloc_packed

    def keep(router, dtype, total):
        packed.append(alloc(router, dtype, total))
        return packed[-1]

    monkeypatch.setattr(MailboxRouter, "alloc_packed", keep)
    n, buf = SHAPES[algorithm]
    _sort(algorithm, generate("uniform", FMT, n, seed=2), buf, depth)
    assert packed
    gc.collect()
    assert get_pool().lent() == lent_before
    assert get_pool().outstanding() == 0
