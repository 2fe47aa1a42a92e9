"""Buffer pool and copy-accounting unit tests (repro.membuf)."""

from __future__ import annotations

import threading

import numpy as np

from repro.membuf import (
    BufferPool,
    CopyStats,
    LeaseScope,
    copy_stats,
    get_pool,
)
from repro.records.format import RecordFormat


class TestBufferPool:
    def test_lease_recycle_roundtrip_hits_freelist(self):
        pool = BufferPool()
        a = pool.lease(np.int64, 100)
        assert pool.outstanding() == 1
        assert pool.recycle(a)
        assert pool.outstanding() == 0
        b = pool.lease(np.int64, 100)
        assert b is a  # the freelist handed the same array back
        pool.clear()

    def test_fresh_take_is_a_miss_reuse_is_a_hit(self):
        pool = BufferPool()
        before = copy_stats().snapshot()
        a = pool.grab(np.float64, 32)
        mid = copy_stats().snapshot()
        assert mid["pool_misses"] - before["pool_misses"] == 1
        pool.recycle(a)
        pool.grab(np.float64, 32)
        after = copy_stats().snapshot()
        assert after["pool_hits"] - mid["pool_hits"] == 1

    def test_keys_are_dtype_and_rows(self):
        pool = BufferPool()
        a = pool.grab(np.int64, 10)
        pool.recycle(a)
        assert pool.grab(np.int64, 11) is not a  # different rows
        assert pool.grab(np.int32, 10) is not a  # different dtype
        assert pool.grab(np.int64, 10) is a
        pool.clear()

    def test_structured_dtype_buffers(self, small_fmt: RecordFormat):
        pool = BufferPool()
        a = pool.lease(small_fmt.dtype, 64)
        assert a.dtype == small_fmt.dtype and a.shape == (64,)
        assert pool.recycle(a)
        assert pool.lease(small_fmt.dtype, 64) is a
        pool.clear()

    def test_grab_is_untracked(self):
        pool = BufferPool()
        pool.grab(np.int64, 8)
        assert pool.outstanding() == 0

    def test_recycle_view_is_noop(self):
        pool = BufferPool()
        base = np.zeros(100, dtype=np.int64)
        assert not pool.recycle(base[10:20])
        assert pool.free_buffers() == 0

    def test_recycle_2d_and_foreign_rejected(self):
        pool = BufferPool()
        assert not pool.recycle(np.zeros((4, 4)))
        assert not pool.recycle([1, 2, 3])
        assert not pool.recycle(b"bytes")
        assert pool.free_buffers() == 0

    def test_recycle_view_still_closes_lease(self):
        """A leased buffer replaced by a view (e.g. sliced) cannot be
        pooled, but recycling it must still balance the lease count."""
        pool = BufferPool()
        a = pool.lease(np.int64, 16)
        view = a[:8]
        assert not pool.recycle(view)  # not adopted (aliases `a`)
        assert pool.outstanding() == 1  # the view is not the lease
        assert pool.recycle(a)
        assert pool.outstanding() == 0
        pool.clear()

    def test_forget_leases_crash_cleanup(self):
        pool = BufferPool()
        pool.lease(np.int64, 4)
        pool.lease(np.int64, 4)
        assert pool.outstanding() == 2
        assert pool.forget_leases() == 2
        assert pool.outstanding() == 0
        assert pool.free_buffers() == 0  # forgotten, not pooled

    def test_clear_empties_everything(self):
        pool = BufferPool()
        pool.recycle(np.empty(3, dtype=np.int64))
        pool.lease(np.int64, 3)
        assert pool.clear() == 1
        assert pool.free_buffers() == 0 and pool.outstanding() == 0

    def test_global_pool_is_shared(self):
        assert get_pool() is get_pool()

    def test_thread_safety_smoke(self):
        pool = BufferPool()
        errors = []

        def churn():
            try:
                for _ in range(200):
                    arr = pool.lease(np.int64, 64)
                    arr[:] = 1
                    pool.recycle(arr)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=churn) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert pool.outstanding() == 0
        pool.clear()


class TestLend:
    """Slices of a lent buffer: the buffer returns to its freelist when
    the last slice is released, and never while one is out."""

    def _lend(self, pool, rows=12, parts=3):
        base = pool.land(np.int64, rows)
        step = rows // parts
        views = [base[i * step : (i + 1) * step] for i in range(parts)]
        pool.lend(base, views)
        return base, views

    def test_buffer_returns_with_the_last_release(self):
        pool = BufferPool()
        base, views = self._lend(pool)
        for view in views[:-1]:
            assert not pool.recycle(view)
            assert pool.lent() == 1 and pool.free_buffers() == 0
        assert pool.recycle(views[-1])  # the last release adopts the buffer
        assert pool.lent() == 0
        assert pool.land(np.int64, 12) is base

    def test_a_slice_released_twice_counts_once(self):
        pool = BufferPool()
        base, views = self._lend(pool)
        pool.recycle(views[0])
        pool.recycle(views[0])
        pool.recycle(views[1])
        assert pool.lent() == 1 and pool.free_buffers() == 0
        assert pool.land(np.int64, 12) is not base

    def test_a_slice_never_released_keeps_its_buffer_out(self):
        pool = BufferPool()
        base, views = self._lend(pool)
        kept = views.pop()
        pool.recycle(views[0])
        pool.recycle(views[1])
        kept[:] = 7
        assert pool.land(np.int64, 12) is not base  # never reused under kept
        assert (kept == 7).all()
        del base, views, kept  # the garbage collector takes the buffer
        assert pool.lent() == 0

    def test_dropped_slices_do_not_grow_the_tables(self):
        pool = BufferPool()
        for _ in range(500):
            self._lend(pool)  # every slice dropped unreleased
        assert pool.lent() == 0
        assert len(pool._lent) < 200 and len(pool._loans) < 200

    def test_only_lent_views_release(self):
        pool = BufferPool()
        base, views = self._lend(pool)
        assert not pool.recycle(base[1:3])  # a view of the buffer, not lent
        assert pool.lent() == 1

    def test_lending_nothing_returns_the_buffer(self):
        pool = BufferPool()
        base = pool.land(np.int64, 5)
        pool.lend(base, [])
        assert pool.land(np.int64, 5) is base


class TestFreelistDepth:
    def test_a_key_keeps_what_was_out_at_once(self):
        """However many buffers of a size were out at once, all come
        back to the pool: the next round takes them again without
        allocating."""
        pool = BufferPool()
        n = 12
        first = [pool.lease(np.int64, 16) for _ in range(n)]
        for arr in first:
            assert pool.recycle(arr)
        assert pool.free_buffers() == n
        again = [pool.lease(np.int64, 16) for _ in range(n)]
        assert {id(a) for a in again} == {id(a) for a in first}
        for arr in again:
            pool.recycle(arr)
        pool.clear()


class TestLeaseScope:
    def test_close_recycles_what_is_still_held(self):
        pool = BufferPool()
        leases = LeaseScope(pool)
        a = leases.lease(np.int64, 8)
        b = leases.hold(pool.lease(np.int64, 8))  # taken elsewhere, adopted
        early = leases.lease(np.int64, 8)
        leases.recycle(early)
        assert pool.outstanding() == 2
        leases.close()
        leases.close()  # idempotent: nothing is recycled twice
        assert pool.outstanding() == 0
        assert pool.free_buffers() == 3
        assert {id(a), id(b), id(early)} == {
            id(pool.lease(np.int64, 8)) for _ in range(3)
        }
        pool.clear()

    def test_hand_off_moves_ownership(self):
        pool = BufferPool()
        leases = LeaseScope(pool)
        a, b = leases.lease(np.int64, 8), leases.lease(np.int64, 8)
        release = leases.hand_off(a, b)
        leases.close()
        assert pool.outstanding() == 2  # the new owner's now
        release()
        assert pool.outstanding() == 0
        pool.clear()

    def test_recycle_and_hand_off_accept_arrays_never_held(self):
        pool = BufferPool()
        leases = LeaseScope(pool)
        view = np.arange(8)[2:]
        leases.recycle(view)  # a view: the pool ignores it
        leases.hand_off(view, pool.grab(np.int64, 8))()
        assert pool.outstanding() == 0 and pool.free_buffers() == 1
        pool.clear()


class TestCopyStats:
    def test_counters_and_snapshot(self):
        stats = CopyStats()
        stats.record_copy(100)
        stats.record_zero_copy(50)
        stats.record_pool(hit=True)
        stats.record_pool(hit=False)
        snap = stats.snapshot()
        assert snap["bytes_copied"] == 100
        assert snap["bytes_zero_copy"] == 50
        assert snap["pool_hits"] == 1 and snap["pool_misses"] == 1

    def test_peak_leases_high_water(self):
        stats = CopyStats()
        stats.record_lease(1)
        stats.record_lease(2)
        stats.record_return()
        stats.record_lease(2)  # back up to 2, peak stays 2
        assert stats.snapshot()["peak_leases"] == 2
        stats.rebase_peak(1)
        assert stats.snapshot()["peak_leases"] == 1

    def test_copy_delta_differences_counters_keeps_peak(self):
        stats = CopyStats()
        stats.record_copy(10)
        before = stats.snapshot()
        stats.record_copy(30)
        stats.record_lease(5)
        delta = CopyStats.delta(before, stats.snapshot())
        assert delta["bytes_copied"] == 30
        assert delta["leases"] == 1
        assert delta["peak_leases"] == 5  # absolute, not differenced


