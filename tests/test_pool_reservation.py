"""Pool reservations: byte-size freelists, a run's declared buffers as
the pool's contents, and the meters that show a take past them. (Runs
against their declarations: ``tests/test_warm_run_reservation.py``.)"""

from __future__ import annotations

import gc
import time
import weakref

import numpy as np
import pytest

from repro.errors import BudgetExceeded
from repro.membuf import BufferPool
from repro.records.format import RecordFormat

FMT = RecordFormat("u8", 64)


def _counters(pool: BufferPool) -> dict:
    return pool.budget_snapshot()


class TestByteKeys:
    def test_a_record_array_and_its_item_view_share_a_freelist(self):
        pool = BufferPool()
        recs = pool.lease(FMT.dtype, 32)
        assert pool.recycle(RecordFormat.items(recs))  # closes the lease
        assert pool.outstanding() == 0
        items = pool.lease(np.dtype((np.void, FMT.record_size)), 32)
        assert np.shares_memory(items, recs)
        assert pool.recycle(items)
        as_bytes = pool.grab(np.uint8, 32 * FMT.record_size)
        assert np.shares_memory(as_bytes, recs)
        assert _counters(pool)["fresh_buffers"] == 1

    def test_a_part_of_a_buffer_is_never_pooled(self):
        pool = BufferPool()
        arr = pool.lease(np.int64, 16)
        assert not pool.recycle(arr[:8])
        assert not pool.recycle(arr.reshape(4, 4))
        assert pool.outstanding() == 1
        assert pool.recycle(arr)
        assert not pool.recycle(arr)  # already back: pooling it twice would alias
        assert pool.free_buffers() == 1


class TestReservation:
    def test_a_reservation_maps_its_buffers_once(self):
        pool = BufferPool()
        with pool.reserve({512: 3}):
            assert _counters(pool)["fresh_buffers"] == 3
            assert pool.held_bytes() == 0  # mapped, but no page used yet
            taken = [pool.lease(np.uint8, 512) for _ in range(3)]
            assert _counters(pool)["fresh_buffers"] == 3
            assert pool.held_bytes() == 3 * 512
            for arr in taken:
                pool.recycle(arr)
        pool.reset_budget_accounting()
        with pool.reserve({512: 3}):
            taken = [pool.grab(np.uint8, 512) for _ in range(3)]
        snap = _counters(pool)
        assert snap["fresh_buffers"] == snap["uncovered_takes"] == 0

    def test_idle_buffers_of_other_sizes_are_released(self):
        pool = BufferPool()
        leased = pool.lease(np.uint8, 100)  # out: never released
        idle = pool.lease(np.uint8, 200)
        pool.recycle(idle)
        kept = pool.lease(np.uint8, 300)
        pool.recycle(kept)
        gone = weakref.ref(idle)
        del idle
        with pool.reserve({300: 1, 100: 1}):
            assert pool.free_buffers() == 1
            assert gone() is None  # its mapping is gone with it
            snap = _counters(pool)
            assert snap["released_buffers"] == 1
            assert snap["peak_held_bytes"] == pool.held_bytes()  # the run's own
            assert pool.outstanding() == 1
            assert pool.lease(np.uint8, 300) is kept
            pool.recycle(kept)
        assert pool.recycle(leased)

    def test_a_buffer_another_running_reservation_needs_stays(self):
        pool = BufferPool()
        first = pool.reserve({400: 2})
        held = [pool.lease(np.uint8, 400) for _ in range(2)]
        for arr in held:
            pool.recycle(arr)
        with pool.reserve({800: 1}):
            assert pool.free_buffers() == 2  # the first run's, idle now
        first.release()
        with pool.reserve({800: 1}):
            assert pool.free_buffers() == 0  # nobody reserves them any more

    def test_concurrent_reservations_add_up(self):
        pool = BufferPool()
        a = pool.reserve({256: 2})
        b = pool.reserve({256: 3, 64: 1})
        taken = [pool.grab(np.uint8, 256) for _ in range(6)]
        assert _counters(pool)["uncovered_takes"] == 1  # the sixth
        b.release()
        b.release()  # idempotent
        for arr in taken:
            pool.recycle(arr)
        taken = [pool.grab(np.uint8, 256) for _ in range(3)]
        assert _counters(pool)["uncovered_takes"] == 2  # a's two, then one more
        a.release()

    def test_an_uncovered_take_is_served_and_counted(self):
        pool = BufferPool()
        with pool.reserve({64: 1}):
            first = pool.lease(np.uint8, 64)
            second = pool.lease(np.uint8, 64)  # past the reservation
            landed = pool.land(np.uint8, 32)  # a size nobody reserved
            grabbed = pool.grab(np.uint8, 32)
            snap = _counters(pool)
            assert snap["uncovered_takes"] == 3
            assert snap["fresh_buffers"] == 4  # one reserved, three uncovered
            assert not np.shares_memory(first, second)
            for arr in (first, second, landed, grabbed):
                pool.recycle(arr)

    def test_a_budget_below_the_reservation_fails_at_once(self):
        pool = BufferPool(budget_bytes=1000)
        with pytest.raises(BudgetExceeded, match="reserved buffers"):
            pool.reserve({512: 2})
        pool.grab(np.uint8, 512)  # nothing was reserved
        assert _counters(pool)["uncovered_takes"] == 1
        with pool.reserve({512: 1}):
            pool.grab(np.uint8, 512)
        assert _counters(pool)["uncovered_takes"] == 1

    def test_reservations_past_the_budget_fail_and_the_running_one_holds(self):
        pool = BufferPool(budget_bytes=1000)
        first = pool.reserve({512: 1})
        with pytest.raises(BudgetExceeded, match="running reservations"):
            pool.reserve({256: 2})  # 512 + 512 > 1000
        taken = pool.lease(np.uint8, 512)  # the first run's buffer
        assert _counters(pool)["uncovered_takes"] == 0
        pool.recycle(taken)
        first.release()
        with pool.reserve({256: 2}):  # fits once the first is gone
            pass

    def test_an_uncovered_take_past_the_budget_raises_at_once(self):
        pool = BufferPool(budget_bytes=1000)
        with pool.reserve({512: 1}):
            held = pool.lease(np.uint8, 512)
            before = pool.outstanding()
            t0 = time.monotonic()
            with pytest.raises(BudgetExceeded, match="no reservation covers"):
                pool.lease(np.uint8, 512)
            assert time.monotonic() - t0 < 0.1
            assert pool.outstanding() == before
            pool.recycle(held)

    def test_a_dropped_grab_is_no_longer_out(self):
        pool = BufferPool()
        with pool.reserve({128: 1}):
            pool.grab(np.uint8, 128)  # dropped at once, never recycled
            gc.collect()
            pool.grab(np.uint8, 128)
            assert _counters(pool)["uncovered_takes"] == 0
