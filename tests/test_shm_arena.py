"""Persistent shared-memory arena: slab recycling, attach caching, the
zero-copy landing path, crash cleanup, and the stamp-batching fast path.

The arena's correctness argument (DESIGN §11): a slab is reused only
after every slice cut from it has been acknowledged, and receivers ack
only *after* their copy-out — so a recycled slab can never be
overwritten while a receiver still reads it. These tests pin that
protocol at the unit level (ShmArena alone), at the router level
(descriptors, ``out=`` landing, odd dtypes), and end-to-end (real
process-backed runs, including a rank that dies without teardown).
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.cluster import run_spmd
from repro.cluster.arena import (
    MIN_SLAB_BYTES,
    SHM_PREFIX,
    AttachCache,
    ShmArena,
    slab_class,
)
from repro.cluster.process_backend import (
    STAMP_BATCH_S,
    ProcessRouter,
    _Fabric,
)
from repro.errors import SpmdError
from repro.membuf import ARENA_KEYS, CopyStats, copy_stats

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="POSIX shared memory required"
)


def _arena_delta(before):
    delta = CopyStats.delta(before, copy_stats().snapshot())
    return {k: delta[k] for k in ARENA_KEYS}


def _shm_entries() -> list[str]:
    return sorted(
        n for n in os.listdir("/dev/shm") if n.startswith(SHM_PREFIX + "-")
    )


# ---------------------------------------------------------------------------
# Size classes
# ---------------------------------------------------------------------------


class TestSlabClass:
    def test_minimum_is_one_page_class(self):
        assert slab_class(0) == MIN_SLAB_BYTES
        assert slab_class(1) == MIN_SLAB_BYTES
        assert slab_class(MIN_SLAB_BYTES) == MIN_SLAB_BYTES

    def test_power_of_two_rounding(self):
        assert slab_class(MIN_SLAB_BYTES + 1) == 2 * MIN_SLAB_BYTES
        assert slab_class(3 * MIN_SLAB_BYTES) == 4 * MIN_SLAB_BYTES
        for n in (5000, 70000, 1 << 20):
            cls = slab_class(n)
            assert cls >= n and cls & (cls - 1) == 0


# ---------------------------------------------------------------------------
# ShmArena protocol, in isolation
# ---------------------------------------------------------------------------


class TestShmArena:
    def test_lease_ack_recycle_reuses_the_same_segment(self):
        arena = ShmArena()
        try:
            a = arena.lease(1000)
            name = a.name
            arena.pin(name)
            arena.ack(name)  # last ack: back to the free list
            b = arena.lease(2000)  # same 4 KiB class
            assert b.name == name and arena.slab_count() == 1
        finally:
            assert arena.unlink_all() == []

    def test_distinct_classes_get_distinct_slabs(self):
        arena = ShmArena()
        try:
            small = arena.lease(100)
            big = arena.lease(MIN_SLAB_BYTES + 1)
            assert small.name != big.name
            assert small.nbytes == MIN_SLAB_BYTES
            assert big.nbytes == 2 * MIN_SLAB_BYTES
        finally:
            arena.unlink_all()

    def test_slab_not_reused_while_acks_outstanding(self):
        arena = ShmArena()
        try:
            a = arena.lease(64)
            arena.pin(a.name)
            arena.pin(a.name)
            arena.ack(a.name)  # one of two receivers landed
            b = arena.lease(64)
            assert b.name != a.name, "slab recycled with a slice in flight"
            arena.ack(a.name)  # second receiver lands
            c = arena.lease(64)
            assert c.name == a.name
        finally:
            arena.unlink_all()

    def test_locate_resolves_interior_addresses(self):
        arena = ShmArena()
        try:
            slabs = [arena.lease(MIN_SLAB_BYTES << i) for i in range(4)]
            for slab in slabs:
                assert arena.locate(slab.base, 1) is slab
                assert arena.locate(slab.base + slab.nbytes - 1, 1) is slab
                assert arena.locate(slab.base + 10, slab.nbytes) is None
            assert arena.locate(0, 1) is None
        finally:
            arena.unlink_all()

    def test_lease_meters_hits_and_misses(self):
        before = copy_stats().snapshot()
        arena = ShmArena()
        try:
            a = arena.lease(64)
            arena.pin(a.name)
            arena.ack(a.name)
            arena.lease(64)
            delta = _arena_delta(before)
            assert delta["arena_misses"] == 1 and delta["arena_hits"] == 1
        finally:
            arena.unlink_all()

    def test_unlink_all_reaps_free_and_leased_slabs(self):
        arena = ShmArena()
        a = arena.lease(64)
        arena.pin(a.name)
        arena.ack(a.name)  # free-listed
        b = arena.lease(MIN_SLAB_BYTES * 3)  # still leased
        assert _shm_entries()  # both exist on /dev/shm
        assert arena.unlink_all() == []
        for name in (a.name, b.name):
            assert not os.path.exists(f"/dev/shm/{name}")

    def test_attach_cache_attaches_once(self):
        arena = ShmArena()
        cache = AttachCache()
        try:
            slab = arena.lease(64)
            before = copy_stats().snapshot()
            first = cache.get(slab.name)
            again = cache.get(slab.name)
            assert first is again
            assert _arena_delta(before)["attach_count"] == 1
        finally:
            cache.close_all()
            arena.unlink_all()


# ---------------------------------------------------------------------------
# Router-level: descriptors and the out= landing path
# ---------------------------------------------------------------------------


@pytest.fixture
def router():
    r = ProcessRouter(_Fabric(2, timeout=5.0), rank=0)
    yield r
    # Idempotent backstop for failure paths; passing tests call
    # teardown themselves because the conftest shm leak check runs
    # before fixture finalizers.
    r.teardown(grace_s=0.1)


class TestLandingPath:
    def test_out_landing_copies_bytes_and_meters(self, router):
        packed = router.alloc_packed(np.int64, 16)
        packed[:] = np.arange(16)
        _, desc = router._outbound(("alltoallv", packed[4:12]))
        before = copy_stats().snapshot()
        out = np.empty(8, dtype=np.int64)
        got = router._materialize(desc, out=out)
        assert got is out
        assert out.tolist() == list(range(4, 12))
        delta = _arena_delta(before)
        assert delta["bytes_landed_zero_extra_copy"] == 8 * 8
        assert router.teardown(grace_s=0.1) == []

    def test_zero_length_slice_through_out_landing(self, router):
        packed = router.alloc_packed(np.int64, 8)
        _, desc = router._outbound(("alltoallv", packed[3:3]))
        assert desc.count == 0
        out = np.empty(0, dtype=np.int64)
        assert router._materialize(desc, out=out) is out
        # And without out=: an empty private array, no pool traffic.
        _, desc2 = router._outbound(("alltoallv", packed[5:5]))
        landed = router._materialize(desc2)
        assert isinstance(landed, np.ndarray) and landed.size == 0
        assert router.teardown(grace_s=0.1) == []

    def test_structured_dtype_through_out_landing(self, router):
        dtype = np.dtype([("key", "<u8"), ("pad", "V24")])
        packed = router.alloc_packed(dtype, 6)
        packed["key"] = np.arange(6) + 7
        _, desc = router._outbound(("alltoallv", packed[1:5]))
        out = np.zeros(4, dtype=dtype)
        router._materialize(desc, out=out)
        assert out["key"].tolist() == [8, 9, 10, 11]
        assert router.teardown(grace_s=0.1) == []

    def test_own_slab_ack_is_synchronous(self, router):
        packed = router.alloc_packed(np.int64, 4)
        packed[:] = 1
        _, desc = router._outbound(("alltoallv", packed))
        router._materialize(desc)
        assert router._arena.all_acked()
        # The slab is back on the free list: the next same-class alloc
        # reuses it without creating a segment.
        before = copy_stats().snapshot()
        router.alloc_packed(np.int64, 4)
        delta = _arena_delta(before)
        assert delta["arena_hits"] == 1 and delta["arena_misses"] == 0
        assert router.teardown(grace_s=0.1) == []

    def test_foreign_arrays_pass_through_outbound(self, router):
        plain = np.arange(4, dtype=np.int64)
        assert router._slice_of(plain) is None
        payload = ("alltoallv", plain)
        assert router._outbound(payload) is payload


# ---------------------------------------------------------------------------
# Stamp batching (watchdog fast path)
# ---------------------------------------------------------------------------


class TestStampBatching:
    def test_live_stamps_are_batched(self, router):
        start = router.stamp_writes
        for _ in range(500):
            router.touch(0)
        # 500 touches inside one batch window collapse to ~1 write.
        assert router.stamp_writes - start <= 3

    def test_explicit_stamps_always_write(self, router):
        start = router.stamp_writes
        base = time.monotonic()
        for i in range(10):
            router.touch(0, stamp=base + i)
        assert router.stamp_writes - start == 10

    def test_detection_latency_unchanged(self, router):
        """Batching may only *skip* a write when a fresh one exists, so
        the visible stamp is never more than STAMP_BATCH_S behind the
        rank's true last activity — silence onset, which is what the
        watchdog times, is unchanged."""
        router.touch(0)
        assert time.monotonic() - router.activity()[0] < STAMP_BATCH_S
        time.sleep(2 * STAMP_BATCH_S)
        stale = router.activity()[0]
        router.touch(0)  # past the window: writes immediately
        assert router.activity()[0] > stale


# ---------------------------------------------------------------------------
# End-to-end over the process transport
# ---------------------------------------------------------------------------


def _alltoallv_rounds(comm, rounds):
    """``rounds`` collectives cycling through three distinct slab size
    classes; verifies every received slice."""
    for r in range(rounds):
        n = 256 << (r % 3)
        parts = [
            np.full(n, 1000 * comm.rank + r, dtype=np.int64)
            for _ in range(comm.size)
        ]
        got = comm.alltoallv(parts)
        for source, arr in enumerate(got):
            assert len(arr) == n
            assert arr[0] == 1000 * source + r and arr[-1] == 1000 * source + r
    return True


def _same_alltoallv_rounds(comm, rounds):
    """``rounds`` identical collectives: one slab size class."""
    payload = np.arange(1024, dtype=np.uint64)
    for _ in range(rounds):
        comm.alltoallv([payload for _ in range(comm.size)])
    return True


class TestEndToEnd:
    def test_slabs_recycle_across_collectives(self):
        """≥3 collectives of differing shapes: segment creates stay
        bounded by (ranks x size classes) while every later collective
        is served from the free lists."""
        rounds, size = 12, 2
        before = copy_stats().snapshot()
        res = run_spmd(size, _alltoallv_rounds, rounds, backend="process")
        assert res.returns == [True] * size
        delta = _arena_delta(before)
        leases = delta["arena_hits"] + delta["arena_misses"]
        assert leases == rounds * size
        # 3 size classes per rank, plus slack for acks still in flight
        # when a class came around again.
        assert delta["arena_misses"] <= 2 * 3 * size
        assert delta["arena_hits"] >= rounds * size - 2 * 3 * size
        # Attach caching: far fewer mappings than landed slices.
        assert delta["attach_count"] <= delta["arena_misses"] * (size - 1)
        assert delta["bytes_landed_zero_extra_copy"] > 0
        assert _shm_entries() == []

    def test_steady_state_creates_no_slabs(self):
        """Many identical collectives on 4 ranks: past a warm-up of a
        few slabs per rank every lease is a free-list pop, so creates
        plateau instead of growing with the round count."""
        rounds, size, warmup_per_rank = 80, 4, 4
        before = copy_stats().snapshot()
        run_spmd(size, _same_alltoallv_rounds, rounds, backend="process")
        delta = _arena_delta(before)
        leases = delta["arena_hits"] + delta["arena_misses"]
        assert leases == rounds * size
        assert delta["arena_misses"] <= warmup_per_rank * size
        assert delta["arena_hits"] / leases >= 0.90
        assert _shm_entries() == []

    def test_crashed_rank_slabs_swept_by_parent(self):
        """A rank dying without teardown (``os._exit``) leaks its slabs
        to the parent's pid-keyed ``/dev/shm`` sweep."""

        def program(comm):
            parts = [
                np.arange(512, dtype=np.int64) for _ in range(comm.size)
            ]
            comm.alltoallv(parts)
            if comm.rank == 1:
                os._exit(23)  # no teardown, no report
            return True

        with pytest.raises(SpmdError, match="died without reporting"):
            run_spmd(2, program, backend="process", timeout=10)
        assert _shm_entries() == []
