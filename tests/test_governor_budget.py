"""Buffer-pool byte budgets: held-byte accounting, structured failure,
and a run whose budget is exactly its reservation.

A budget is a ceiling on the runs' reservations: a run reserves its
declared buffers before any rank starts, so a budget equal to that
reservation runs to the same output, and one byte less fails with
:class:`~repro.errors.BudgetExceeded` before the run begins. Nothing
waits for memory and the pipeline depth is the job's.
"""

import gc

import numpy as np
import pytest

from repro.cluster.config import ClusterConfig
from repro.errors import BudgetExceeded
from repro.membuf import get_pool
from repro.membuf.pool import BufferPool
from repro.oocs import base
from repro.oocs.api import ALGORITHMS, job_demands, sort_out_of_core
from repro.oocs.report import output_digest
from repro.records.format import RecordFormat
from repro.records.generators import generate

FMT = RecordFormat("u8", 64)


class TestHeldAccounting:
    def test_lease_and_recycle_round_trip(self):
        pool = BufferPool()
        arr = pool.lease("u8", 100)
        assert pool.held_bytes() == 800
        pool.recycle(arr)
        assert pool.held_bytes() == 800  # moved to the freelist, still held
        again = pool.lease("u8", 100)
        assert again is arr  # freelist hit
        assert pool.held_bytes() == 800
        pool.recycle(again)

    def test_grab_transfers_ownership_out(self):
        pool = BufferPool()
        arr = pool.lease("u8", 64)
        pool.recycle(arr)
        assert pool.held_bytes() == 512
        grabbed = pool.grab("u8", 64)
        assert grabbed is arr
        assert pool.held_bytes() == 0  # the bytes left with the caller

    def test_fresh_grab_is_never_charged(self):
        pool = BufferPool(budget_bytes=16)
        arr = pool.grab("u8", 1024)  # far over budget: allowed, untracked
        assert arr.nbytes == 8192
        assert pool.held_bytes() == 0

    def test_adopting_an_untracked_array_respects_budget(self):
        pool = BufferPool(budget_bytes=1024)
        assert pool.recycle(np.empty(64, dtype="u8"))  # 512 B (u8 = uint64)
        assert pool.held_bytes() == 512
        # adoption that would overshoot is declined, not blocked
        assert not pool.recycle(np.empty(2048, dtype="u8"))
        assert pool.held_bytes() == 512

    def test_forget_leases_returns_the_bytes(self):
        pool = BufferPool()
        pool.lease("u8", 100)
        pool.lease("u8", 200)
        assert pool.held_bytes() == 2400
        assert pool.forget_leases() == 2
        assert pool.held_bytes() == 0

    def test_clear_empties_everything(self):
        pool = BufferPool()
        keep = pool.lease("u8", 10)
        pool.recycle(pool.lease("u8", 20))
        assert pool.clear() == 1
        assert pool.held_bytes() == 0
        assert pool.free_buffers() == 0
        del keep


class TestBudgetEnforcement:
    def test_impossible_request_fails_fast(self):
        pool = BufferPool(budget_bytes=100)
        with pytest.raises(BudgetExceeded, match="larger than the whole"):
            pool.lease("u1", 101)
        assert pool.outstanding() == 0

    def test_reset_budget_accounting_rebases(self):
        pool = BufferPool(budget_bytes=100)
        arr = pool.lease("u1", 80)
        with pytest.raises(BudgetExceeded):
            pool.lease("u1", 80)
        pool.recycle(arr)
        assert pool.budget_snapshot()["uncovered_takes"] == 1
        pool.reset_budget_accounting()
        snap = pool.budget_snapshot()
        assert snap["uncovered_takes"] == 0
        assert snap["peak_held_bytes"] == snap["held_bytes"]


#: algorithm -> (records, buffer, processors) of the budgeted runs.
SHAPES = {
    "threaded": (2**15, 2048, 2),
    "subblock": (2**14, 1024, 4),
    "m": (2**14, 1024, 4),
    "hybrid": (2**14, 256, 4),
    "g": (2**13, 512, 4),  # at group size 2
}


class TestBudgetedRun:
    def test_budgeted_sort_verifies_and_respects_budget(self):
        records = generate("uniform", FMT, 8192, seed=3)
        cluster = ClusterConfig(p=4, mem_per_proc=2**12)
        budget = 2**26
        get_pool().set_budget(budget)
        try:
            res = sort_out_of_core(
                "threaded", records, cluster, FMT, buffer_records=512,
                pipeline_depth=2,
            )
            gov = res.governor
            assert gov["budget_bytes"] == budget
            assert 0 < gov["peak_held_bytes"] <= budget
            res.output.delete()
        finally:
            get_pool().set_budget(None)

    def test_budget_is_surfaced_even_without_stalls(self):
        """A budget the run never comes near is still reported, with no
        take past the reservation."""
        records = generate("uniform", FMT, 8192, seed=3)
        cluster = ClusterConfig(p=4, mem_per_proc=2**12)
        get_pool().set_budget(2**28)
        try:
            res = sort_out_of_core(
                "threaded", records, cluster, FMT, buffer_records=512,
            )
            assert res.governor["budget_bytes"] == 2**28
            assert res.governor["uncovered_takes"] == 0
            res.output.delete()
        finally:
            get_pool().set_budget(None)

    @pytest.mark.parametrize(
        "algorithm,n,buf,p", [(name, *shape) for name, shape in SHAPES.items()]
    )
    @pytest.mark.parametrize("depth", [0, 1, 2, 4])
    def test_peak_stays_within_the_admitted_demand(self, algorithm, n, buf, p, depth):
        """What admission charges (`job_demands`: 2·depth + 6 buffers per
        rank, plus the in-core plan's working set at g > 1) bounds what
        a run pins, now that the write-behind queue holds `depth` whole
        round buffers: `depth` prefetched + 1 in the reader's hand,
        `depth` queued + 1 being written, 2 in the body, the round's
        packed alltoallv buffer and two half-column copies. Tracked
        leases alone stay within 2·depth + 4 a rank, M-columnsort's
        too; hybrid and g may hold the in-core plan's two pass-long
        leases (the output array and the gather) on top: hybrid peaked
        4 leases over 2·depth + 4 on four ranks at depth 1, g 2."""
        self._check_peak(algorithm, n, buf, p, depth, "thread")

    def test_peak_stays_within_the_admitted_demand_on_process_ranks(self):
        """Forked ranks lease from their own copies of the pool; each
        ships its budget counters home, and the run reports the largest
        per-rank peak (the rule ``peak_leases`` follows)."""
        self._check_peak("threaded", 2**13, 512, 4, 2, "process")

    @staticmethod
    def _check_peak(algorithm, n, buf, p, depth, backend):
        get_pool().clear()  # freelists left by other tests count as held
        records = generate("uniform", FMT, n, seed=3)
        cluster = ClusterConfig(p=p, mem_per_proc=2**12)
        res = sort_out_of_core(
            algorithm, records, cluster, FMT, buffer_records=buf,
            pipeline_depth=depth, backend=backend,
            group_size=2 if algorithm == "g" else None,
        )
        res.output.delete()
        program = ALGORITHMS[algorithm]
        mem, _scratch = job_demands(program, res.job)
        working_set = 2 if algorithm in ("hybrid", "g") else 0
        assert res.copy["peak_leases"] <= p * (2 * depth + 4 + working_set)
        assert 0 < res.governor["peak_held_bytes"] <= mem


def _budgeted_sort(algorithm, records, depth, backend, budget):
    n, buf, p = SHAPES[algorithm]
    gc.collect()  # buffers other tests dropped count as out until reaped
    get_pool().set_budget(budget)
    try:
        return sort_out_of_core(
            algorithm, records, ClusterConfig(p=p, mem_per_proc=2**12), FMT,
            buffer_records=buf, pipeline_depth=depth, backend=backend,
            group_size=2 if algorithm == "g" else None,
        )
    finally:
        get_pool().set_budget(None)


@pytest.mark.parametrize("algorithm,depth,backend", [
    *((name, depth, "thread") for name in SHAPES for depth in (0, 2)),
    # Two ranks: each lands the other's half columns, a declared size.
    ("threaded", 2, "process"),
])
def test_a_budget_equal_to_the_reservation_runs_and_one_byte_less_fails(
    algorithm, depth, backend, monkeypatch
):
    records = generate("zipf", FMT, SHAPES[algorithm][0], seed=3)
    free = _budgeted_sort(algorithm, records, depth, backend, None)
    expected = output_digest(free)
    free.output.delete()
    budget, _scratch = job_demands(ALGORITHMS[algorithm], free.job)

    res = _budgeted_sort(algorithm, records, depth, backend, budget)
    assert output_digest(res) == expected
    res.output.delete()
    gov = res.governor
    assert gov["budget_bytes"] == budget
    assert 0 < gov["peak_held_bytes"] <= budget
    assert gov["uncovered_takes"] == 0

    def no_rank_may_start(*args, **kwargs):
        raise AssertionError("a rank started past the budget")

    monkeypatch.setattr(base, "run_spmd_metered", no_rank_may_start)
    with pytest.raises(BudgetExceeded, match="reserved buffers"):
        _budgeted_sort(algorithm, records, depth, backend, budget - 1)
