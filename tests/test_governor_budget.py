"""Buffer-pool byte budgets: held-byte accounting, backpressure,
eviction, structured failure, and the adaptive depth downshift.

The invariant under test is *peak tracked bytes never exceed the
budget*: a fresh tracked allocation first evicts idle freelist arrays,
then blocks until other leases are recycled, and only then raises
:class:`~repro.errors.BudgetExceeded` — so a budgeted run trades
latency for memory instead of overshooting.
"""

import threading
import time

import numpy as np
import pytest

from repro.cluster.config import ClusterConfig
from repro.errors import BudgetExceeded
from repro.governor import PRESSURE_STALLS, RunGovernor
from repro.membuf import get_pool
from repro.membuf.pool import BufferPool
from repro.oocs.api import sort_out_of_core
from repro.pipeline import SYNCHRONOUS, PipelinePlan
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
    def test_eviction_makes_room_before_blocking(self):
        pool = BufferPool(budget_bytes=1000)
        idle = pool.lease("u1", 900)
        pool.recycle(idle)  # 900 idle bytes on the freelist
        arr = pool.lease("u1", 800)  # must evict the idle array, not stall
        snap = pool.budget_snapshot()
        assert snap["budget_evictions"] == 1
        assert snap["budget_stalls"] == 0
        assert pool.held_bytes() == 800
        pool.recycle(arr)

    def test_impossible_request_fails_fast(self):
        pool = BufferPool(budget_bytes=100)
        with pytest.raises(BudgetExceeded, match="larger than the whole"):
            pool.lease("u1", 101)
        assert pool.outstanding() == 0

    def test_backpressure_times_out_structurally(self):
        pool = BufferPool(budget_bytes=1000, budget_timeout_s=0.2)
        held = pool.lease("u1", 900)
        t0 = time.monotonic()
        with pytest.raises(BudgetExceeded, match="backpressure"):
            pool.lease("u1", 200)
        assert 0.1 < time.monotonic() - t0 < 5.0
        assert pool.budget_snapshot()["budget_stalls"] == 1
        pool.recycle(held)

    def test_backpressure_unblocks_when_a_lease_returns(self):
        pool = BufferPool(budget_bytes=1000, budget_timeout_s=10.0)
        held = pool.lease("u1", 900)
        got = []

        def blocked_lease():
            got.append(pool.lease("u1", 200))

        t = threading.Thread(target=blocked_lease)
        t.start()
        time.sleep(0.1)
        assert not got  # still blocked at the ceiling
        pool.recycle(held)
        pool.grab("u1", 900)  # pull the idle bytes out of the pool
        t.join(timeout=5.0)
        assert len(got) == 1
        assert pool.budget_snapshot()["peak_held_bytes"] <= 1000
        pool.recycle(got[0])

    def test_removing_the_budget_releases_waiters(self):
        pool = BufferPool(budget_bytes=1000, budget_timeout_s=10.0)
        held = pool.lease("u1", 900)
        got = []
        t = threading.Thread(target=lambda: got.append(pool.lease("u1", 500)))
        t.start()
        time.sleep(0.1)
        pool.set_budget(None)
        t.join(timeout=5.0)
        assert len(got) == 1
        pool.recycle(held)
        pool.recycle(got[0])

    def test_peak_never_exceeds_budget_under_churn(self):
        pool = BufferPool(budget_bytes=4096, budget_timeout_s=10.0)
        stop = threading.Event()
        errors = []

        def churn(rows):
            try:
                while not stop.is_set():
                    arr = pool.lease("u1", rows)
                    time.sleep(0.001)
                    pool.recycle(arr)
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=churn, args=(rows,))
            for rows in (1024, 1500, 700, 2000)
        ]
        for t in threads:
            t.start()
        time.sleep(0.3)
        stop.set()
        for t in threads:
            t.join(timeout=5.0)
        assert not errors
        assert pool.budget_snapshot()["peak_held_bytes"] <= 4096

    def test_reset_budget_accounting_rebases(self):
        pool = BufferPool(budget_bytes=100, budget_timeout_s=0.05)
        with pytest.raises(BudgetExceeded):
            arr = pool.lease("u1", 80)
            try:
                pool.lease("u1", 80)
            finally:
                pool.recycle(arr)
        assert pool.budget_snapshot()["budget_stalls"] == 1
        pool.reset_budget_accounting()
        snap = pool.budget_snapshot()
        assert snap["budget_stalls"] == 0
        assert snap["peak_held_bytes"] == snap["held_bytes"]


class TestDepthDownshift:
    class _PressuredPool:
        def __init__(self, stalls):
            self._stalls = list(stalls)

        def consume_pressure(self):
            return self._stalls.pop(0) if self._stalls else 0

    def _governor(self, pool):
        stores = {"input": None, "t1": None, "output": None}
        return RunGovernor(stores, specs=[], cancel=None, pool=pool)

    def test_sustained_pressure_reduces_depth(self):
        gov = self._governor(self._PressuredPool([0, PRESSURE_STALLS, 0]))
        plan = PipelinePlan(depth=2)
        gov.begin_pass(1)
        assert gov.effective_plan(plan).depth == 2
        gov.begin_pass(2)  # pressure sampled here
        assert gov.effective_plan(plan).depth == 1
        gov.begin_pass(3)
        assert gov.effective_plan(plan).depth == 1  # penalty is sticky
        assert gov.snapshot()["depth_downshifts"] == 1

    def test_downshift_bottoms_out_synchronous(self):
        gov = self._governor(
            self._PressuredPool([PRESSURE_STALLS, PRESSURE_STALLS])
        )
        plan = PipelinePlan(depth=1)
        gov.begin_pass(1)
        gov.begin_pass(2)
        assert gov.effective_plan(plan) is SYNCHRONOUS

    def test_begin_pass_is_idempotent_per_index(self):
        pool = self._PressuredPool([PRESSURE_STALLS, PRESSURE_STALLS])
        gov = self._governor(pool)
        gov.begin_pass(1)
        gov.begin_pass(1)  # other ranks arriving: no double sample
        assert gov.snapshot()["depth_downshifts"] == 1

    def test_light_pressure_is_ignored(self):
        gov = self._governor(self._PressuredPool([PRESSURE_STALLS - 1] * 3))
        plan = PipelinePlan(depth=2)
        for index in (1, 2, 3):
            gov.begin_pass(index)
        assert gov.effective_plan(plan).depth == 2


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
        records = generate("uniform", FMT, 8192, seed=3)
        cluster = ClusterConfig(p=4, mem_per_proc=2**12)
        get_pool().set_budget(2**28)
        try:
            res = sort_out_of_core(
                "threaded", records, cluster, FMT, buffer_records=512,
            )
            assert res.governor["budget_stalls"] == 0
            res.output.delete()
        finally:
            get_pool().set_budget(None)

    @pytest.mark.parametrize("algorithm,n,buf,p", [
        ("threaded", 2**15, 2048, 2),
        ("subblock", 2**14, 1024, 4),
        ("m", 2**14, 1024, 4),
    ])
    @pytest.mark.parametrize("depth", [0, 1, 2, 4])
    def test_peak_stays_within_the_admitted_demand(self, algorithm, n, buf, p, depth):
        """What admission charges (`job_demands`: 2·depth + 4 buffers per
        rank) bounds what a run pins, now that the write-behind queue
        holds `depth` whole round buffers: `depth` prefetched + 1 in the
        reader's hand, `depth` queued + 1 being written, 2 in the body."""
        self._check_peak(algorithm, n, buf, p, depth, "thread")

    def test_peak_stays_within_the_admitted_demand_on_process_ranks(self):
        """Forked ranks lease from their own copies of the pool; each
        ships its budget counters home, and the run reports the largest
        per-rank peak (the rule ``peak_leases`` follows)."""
        self._check_peak("threaded", 2**13, 512, 4, 2, "process")

    @staticmethod
    def _check_peak(algorithm, n, buf, p, depth, backend):
        from repro.oocs.api import job_demands

        get_pool().clear()  # freelists left by other tests count as held
        records = generate("uniform", FMT, n, seed=3)
        cluster = ClusterConfig(p=p, mem_per_proc=2**12)
        res = sort_out_of_core(
            algorithm, records, cluster, FMT, buffer_records=buf,
            pipeline_depth=depth, backend=backend,
        )
        res.output.delete()
        mem, _scratch = job_demands(res.job)
        assert res.copy["peak_leases"] <= p * (2 * depth + 4)
        assert 0 < res.governor["peak_held_bytes"] <= mem

