"""Block checksums: hashing helpers, the per-disk catalog, and the
disk read path's corruption detection."""

import json

import pytest

from repro.cluster import available_backends
from repro.durability.checksums import BlockChecksums
from repro.durability.hashing import (
    CHECKSUM_ALGO,
    block_checksum,
    file_digest,
    hexdigest,
)
from repro.disks.virtual_disk import VirtualDisk, make_disk_array
from repro.errors import CorruptionError, DiskError
from repro.resilience.retry import RetryPolicy


@pytest.fixture
def disk(tmp_path):
    return VirtualDisk(tmp_path / "d0", disk_id=0)


class TestHashing:
    def test_block_checksum_deterministic(self):
        assert block_checksum(b"abc") == block_checksum(b"abc")
        assert block_checksum(b"abc") != block_checksum(b"abd")

    def test_block_checksum_accepts_memoryview(self):
        data = bytearray(b"columnsort")
        assert block_checksum(memoryview(data)) == block_checksum(bytes(data))

    def test_algo_is_gated_not_assumed(self):
        # crc32c if the wheel is present, zlib's crc32 otherwise — either
        # way the module must say which one it is using.
        assert CHECKSUM_ALGO in ("crc32c", "crc32")

    @pytest.mark.parametrize("module", ["zlib", "crc32c"])
    def test_chunked_checksum_equals_whole(self, module, monkeypatch):
        """Both branches of :func:`block_checksum`: the CRC run on over
        contiguous chunks is the CRC of their concatenation. The
        ``crc32c`` branch runs against a stub module, which refuses a
        ``bytes`` copy: the buffer is hashed in place."""
        import importlib
        import sys
        import types
        import zlib

        import numpy as np

        import repro.durability.hashing as hashing

        if module == "crc32c":
            def crc32c(data, value=0):
                assert not isinstance(data, bytes), "a bytes copy was hashed"
                return zlib.crc32(data, value) & 0xFFFFFFFF

            stub = types.ModuleType("crc32c")
            stub.crc32c = crc32c
            monkeypatch.setitem(sys.modules, "crc32c", stub)
        else:
            monkeypatch.setitem(sys.modules, "crc32c", None)  # ImportError
        try:
            importlib.reload(hashing)
            assert hashing.CHECKSUM_ALGO == {"zlib": "crc32", "crc32c": "crc32c"}[module]
            blob = bytes(range(256)) * 40 + b"tail"
            whole = hashing.block_checksum(blob)
            for chunks in (
                [blob[:1], blob[1:]],
                [blob[k : k + 777] for k in range(0, len(blob), 777)],
                [bytearray(blob[:4096]), memoryview(blob)[4096:]],
                [np.frombuffer(blob, dtype=np.uint8)[:100], blob[100:]],
            ):
                crc = 0
                for chunk in chunks:
                    crc = hashing.block_checksum(chunk, crc)
                assert crc == whole
        finally:
            monkeypatch.undo()
            importlib.reload(hashing)

    def test_file_digest_matches_hexdigest(self, tmp_path):
        path = tmp_path / "blob"
        path.write_bytes(b"x" * (3 * 2**20 + 17))  # crosses chunk boundaries
        assert file_digest(path) == hexdigest(b"x" * (3 * 2**20 + 17))


class TestCatalog:
    def test_record_and_verify_roundtrip(self, tmp_path):
        cat = BlockChecksums(tmp_path)
        cat.record("obj", 0, b"aaaa")
        cat.record("obj", 4, b"bbbb")
        bad, hashed, checked = cat.verify("obj", 0, b"aaaabbbb")
        assert bad == [] and hashed == 8 and checked == 2

    def test_verify_flags_mismatch(self, tmp_path):
        cat = BlockChecksums(tmp_path)
        cat.record("obj", 0, b"aaaa")
        bad, _, _ = cat.verify("obj", 0, b"aaXa")
        assert bad == [(0, 4)]

    def test_overwrite_folds_out_stale_extents(self, tmp_path):
        cat = BlockChecksums(tmp_path)
        cat.record("obj", 0, b"aaaa")
        cat.record("obj", 2, b"cc")  # partially covers the first extent
        # The stale [0,4) checksum no longer describes the file: dropped.
        assert cat.extents("obj") == [(2, 2, block_checksum(b"cc"))]

    def test_sidecar_persists_across_processes(self, tmp_path):
        cat = BlockChecksums(tmp_path)
        cat.record("obj", 0, b"hello")
        assert cat.flush() == 1
        reloaded = BlockChecksums(tmp_path)
        assert reloaded.extents("obj") == cat.extents("obj")

    def test_record_alone_touches_no_file(self, tmp_path):
        cat = BlockChecksums(tmp_path)
        cat.record("obj", 0, b"hello")
        assert not (tmp_path / ".meta").exists()
        cat.flush()
        before = {
            p.name: p.stat().st_mtime_ns for p in (tmp_path / ".meta").iterdir()
        }
        cat.record("obj", 5, b"world")
        cat.record("other", 0, b"x")
        assert before == {
            p.name: p.stat().st_mtime_ns for p in (tmp_path / ".meta").iterdir()
        }
        assert BlockChecksums(tmp_path).extents("obj") == cat.extents("obj")[:1]

    def test_flush_writes_each_unflushed_sidecar_once(self, tmp_path):
        cat = BlockChecksums(tmp_path)
        for k in range(8):
            cat.record("a", 4 * k, b"aaaa")
        cat.record("b", 0, b"bbbb")
        assert cat.flush() == 2
        assert cat.flush() == 0
        assert sorted(p.name for p in (tmp_path / ".meta").iterdir()) == [
            "a.json", "b.json",
        ]

    def test_drop_unlinks_at_once_and_is_not_reflushed(self, tmp_path):
        cat = BlockChecksums(tmp_path)
        cat.record("obj", 0, b"hello")
        cat.flush()
        cat.record("obj", 5, b"again")
        cat.drop("obj")
        assert not (tmp_path / ".meta" / "obj.json").exists()
        assert cat.flush() == 0
        assert BlockChecksums(tmp_path).extents("obj") == []

    def test_stranded_temp_files_swept_on_load(self, tmp_path):
        cat = BlockChecksums(tmp_path)
        cat.record("obj", 0, b"hello")
        cat.flush()
        # What a kill between the temp write and os.replace leaves.
        stranded = tmp_path / ".meta" / "gone.json.tmp"
        stranded.write_text("{half a sidec")
        reloaded = BlockChecksums(tmp_path)
        assert not stranded.exists()
        assert reloaded.extents("obj") == cat.extents("obj")
        assert reloaded.extents("gone") == []

    def test_out_of_order_appends_match_the_rebuild(self, tmp_path):
        # The bisect fast path (extent overlaps nothing) and the
        # rebuild path must leave the same catalog.
        pieces = [(8, b"cccc"), (0, b"aaaa"), (4, b"bbbb"), (16, b"eeee"),
                  (12, b"dddd")]
        cat = BlockChecksums(tmp_path)
        for offset, data in pieces:
            cat.record("obj", offset, data)
        assert cat.extents("obj") == sorted(
            (offset, 4, block_checksum(data)) for offset, data in pieces
        )
        cat.record("obj", 6, b"XXXX")  # straddles [4,8) and [8,12)
        assert [e[:2] for e in cat.extents("obj")] == [
            (0, 4), (6, 4), (12, 4), (16, 4),
        ]
        cat.record("obj", 4, b"yy")  # fits the gap exactly: fast path
        assert [e[:2] for e in cat.extents("obj")] == [
            (0, 4), (4, 2), (6, 4), (12, 4), (16, 4),
        ]

    def test_foreign_algo_sidecar_discarded(self, tmp_path):
        cat = BlockChecksums(tmp_path)
        cat.record("obj", 0, b"hello")
        cat.flush()
        sidecar = tmp_path / ".meta" / "obj.json"
        doc = json.loads(sidecar.read_text())
        doc["algo"] = "md5-of-the-future"
        sidecar.write_text(json.dumps(doc))
        assert BlockChecksums(tmp_path).extents("obj") == []


class TestDiskIntegration:
    def test_clean_read_verifies_and_meters(self, disk):
        disk.write_at("obj", 0, b"abcdefgh")
        disk.read_at("obj", 0, 8)
        snap = disk.stats.snapshot()
        assert snap["bytes_hashed"] == 16  # 8 on write + 8 on read-verify
        assert snap["checksum_failures"] == 0

    def corrupt(self, disk, name, at=0):
        path = disk.root / name
        blob = bytearray(path.read_bytes())
        blob[at] ^= 0xFF
        path.write_bytes(bytes(blob))

    def test_bit_rot_raises_corruption_error(self, disk):
        disk.write_at("obj", 0, b"abcdefgh")
        self.corrupt(disk, "obj")
        with pytest.raises(CorruptionError) as err:
            disk.read_at("obj", 0, 8)
        assert err.value.disk_id == 0
        assert err.value.name == "obj"
        assert err.value.extents == [(0, 8)]
        assert disk.stats.snapshot()["checksum_failures"] == 1

    def test_unrepairable_corruption_not_retried(self, disk):
        disk.write_at("obj", 0, b"abcdefgh")
        self.corrupt(disk, "obj")
        disk.retry_policy = RetryPolicy(max_attempts=5, base_delay_s=0.0)
        with pytest.raises(CorruptionError):
            disk.read_at("obj", 0, 8)
        # A hopeless retry must not be metered as recovery effort.
        assert disk.stats.snapshot()["read_retries"] == 0

    def test_corruption_error_is_disk_error(self):
        assert issubclass(CorruptionError, DiskError)
        assert not RetryPolicy.retryable(CorruptionError(0, "obj", [(0, 8)]))

    def test_short_pwrite_still_lands_all_bytes(self, disk, monkeypatch):
        import os

        real_pwrite = os.pwrite
        calls = []

        def half(fd, data, offset):
            view = memoryview(data).cast("B")
            calls.append(view.nbytes)
            return real_pwrite(fd, view[: max(1, view.nbytes // 2)], offset)

        monkeypatch.setattr(os, "pwrite", half)
        payload = bytes(range(256)) * 3
        disk.write_at("obj", 5, payload)  # gap zero-fill goes the same way
        monkeypatch.undo()
        assert len(calls) > 2  # the loop really resumed short writes
        assert (disk.root / "obj").read_bytes() == b"\0" * 5 + payload
        assert disk.read_at("obj", 5, len(payload)) == payload
        assert disk.stats.snapshot()["writes"] == 1

    def test_refresh_takes_what_another_process_left(self, disk):
        disk.write_at("mine", 0, b"abcd")
        other = VirtualDisk(disk.root, disk_id=0)  # stands in for a forked rank
        other.write_at("theirs", 0, b"efghij")
        other.flush()
        assert disk.size("theirs") == 0 and disk.checksums.extents("theirs") == []
        disk.refresh()
        assert disk.files() == ["mine", "theirs"]
        assert disk.size("theirs") == 6
        assert disk.checksums.extents("theirs") == other.checksums.extents("theirs")
        # "mine" was never flushed by anyone: its extents are gone with
        # the stale copy, its bytes are not.
        assert disk.checksums.extents("mine") == []
        assert disk.read_at("mine", 0, 4) == b"abcd"

    def test_delete_drops_checksums(self, disk):
        disk.write_at("obj", 0, b"abcd")
        disk.flush()
        assert (disk.root / ".meta" / "obj.json").exists()
        disk.delete("obj")
        assert disk.checksums.extents("obj") == []
        assert not (disk.root / ".meta" / "obj.json").exists()

    def test_meta_dir_invisible_to_namespace(self, disk):
        disk.write_at("obj", 0, b"abcd")
        assert disk.files() == ["obj"]

    def test_fingerprint_uses_shared_digest(self, disk):
        disk.write_at("obj", 0, b"abcd")
        assert disk.fingerprint("obj") == hexdigest(b"abcd")


class TestStoreLevel:
    def test_store_reads_verified_end_to_end(self, tmp_path, small_fmt):
        import numpy as np

        from repro.cluster.config import ClusterConfig
        from repro.disks.matrixfile import ColumnStore
        from repro.records.generators import generate

        cluster = ClusterConfig(p=2, mem_per_proc=2**10)
        disks = make_disk_array(tmp_path, cluster.virtual_disks)
        recs = generate("uniform", small_fmt, 256, seed=3)
        store = ColumnStore.from_records(
            cluster, small_fmt, recs, 64, 4, disks, name="input"
        )
        col0 = store.read_portion(0, 0)
        assert np.array_equal(col0, recs[:64])
        # flip one payload byte of column 0 on disk
        victim = store._disk_for(0, 0).root / store._file(0, 0)
        blob = bytearray(victim.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        victim.write_bytes(bytes(blob))
        with pytest.raises(CorruptionError):
            store.read_portion(0, 0)


# ---------------------------------------------------------------------------
# Chained appends: a portion written by cursor appends is one extent
# ---------------------------------------------------------------------------


class TestChainedAppends:
    SEGMENTS = [(0, 10), (10, 25), (25, 40), (40, 64)]

    @pytest.fixture
    def stores(self, tmp_path, small_fmt):
        from repro.cluster.config import ClusterConfig
        from repro.disks.matrixfile import ColumnStore
        from repro.records.generators import generate

        cluster = ClusterConfig(p=2, mem_per_proc=2**10)
        disks = make_disk_array(tmp_path, cluster.virtual_disks)

        def store():
            return ColumnStore(cluster, small_fmt, 64, 4, disks, name="m")

        recs = generate("uniform", small_fmt, 64, seed=5)
        return store, recs

    @staticmethod
    def portion_file(store):
        disk, file = store._where[0, 0]
        return disk, file, (disk.root / file)

    def append_all(self, store, recs):
        for lo, hi in self.SEGMENTS:
            store.append_segments(0, [(0, recs[lo:hi])])

    def test_k_appends_leave_one_extent_with_the_whole_crc(self, stores):
        import numpy as np

        make, recs = stores
        store = make()
        self.append_all(store, recs)
        disk, file, path = self.portion_file(store)
        whole = path.read_bytes()
        assert whole == recs.tobytes()
        assert disk.checksums.extents(file) == [
            (0, len(whole), block_checksum(whole))
        ]
        before = disk.stats.snapshot()
        assert np.array_equal(store.read_portion(0, 0), recs)
        delta = disk.stats.delta(before, disk.stats.snapshot())
        assert (delta["reads"], delta["extents_verified"]) == (1, 1)
        assert delta["bytes_hashed"] == len(whole)

    @pytest.mark.parametrize("segment", range(4))
    def test_a_flipped_byte_in_any_segment_is_caught(self, stores, segment):
        make, recs = stores
        store = make()
        self.append_all(store, recs)
        disk, _file, path = self.portion_file(store)
        lo, hi = self.SEGMENTS[segment]
        blob = bytearray(path.read_bytes())
        blob[store.fmt.nbytes((lo + hi) // 2)] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptionError):
            store.read_portion(0, 0)
        assert disk.stats.snapshot()["checksum_failures"] == 1

    def test_out_of_order_appends_are_two_extents_both_verified(
        self, stores, monkeypatch
    ):
        """Reserve A, reserve B, land B first (a flusher overtaking the
        rank thread): B cannot continue an extent, A lands before it."""
        import numpy as np

        make, recs = stores
        store = make()
        real, held = store._write, []

        def write(extents, append=False):
            if not held:
                held.append(extents)  # A: reserved, not yet landed
                return
            real(extents, append=append)

        monkeypatch.setattr(store, "_write", write)
        store.append_segments(0, [(0, recs[:20])])
        store.append_segments(0, [(0, recs[20:])])
        real(held[0], append=True)
        disk, file, path = self.portion_file(store)
        a, b = store.fmt.nbytes(20), store.fmt.nbytes(44)
        data = path.read_bytes()
        assert disk.checksums.extents(file) == [
            (0, a, block_checksum(data[:a])),
            (a, b, block_checksum(data[a:])),
        ]
        before = disk.stats.snapshot()
        assert np.array_equal(store.read_portion(0, 0), recs)
        assert disk.stats.delta(before, disk.stats.snapshot())["extents_verified"] == 2
        for at in (a // 2, a + b // 2):
            blob = bytearray(data)
            blob[at] ^= 0x01
            path.write_bytes(bytes(blob))
            with pytest.raises(CorruptionError):
                store.read_portion(0, 0)
        path.write_bytes(data)

    def test_a_rerun_folds_the_old_extent_out(self, stores, small_fmt):
        import numpy as np

        from repro.records.generators import generate

        make, recs = stores
        store = make()
        self.append_all(store, recs)
        again = generate("uniform", small_fmt, 64, seed=6)
        for rerun in (store, make()):  # reset cursors / a fresh store object
            if rerun is store:
                store.reset_cursors()
            rerun.append_segments(0, [(0, again[:30])])
            rerun.append_segments(0, [(0, again[30:])])
            disk, file, path = self.portion_file(rerun)
            assert disk.checksums.extents(file) == [
                (0, small_fmt.nbytes(64), block_checksum(again.tobytes()))
            ]
            assert np.array_equal(rerun.read_portion(0, 0), again)

    def test_pdm_pieces_stay_one_extent_each(self, tmp_path, small_fmt):
        """Only appends chain: PDM pieces contiguous on one disk (two
        halves of a block, then the disk's next block) stay separate
        extents, so a chunk read that ends inside one never skips it."""
        from repro.cluster.config import ClusterConfig
        from repro.disks.matrixfile import PdmStore
        from repro.records.generators import generate

        cluster = ClusterConfig(p=2, mem_per_proc=2**10)
        disks = make_disk_array(tmp_path, cluster.virtual_disks)
        store = PdmStore(cluster, small_fmt, 128, disks, block_records=8)
        recs = generate("uniform", small_fmt, 128, seed=7)
        stripe = 8 * cluster.virtual_disks
        store.write_pieces(0, [(0, recs[0:4]), (4, recs[4:8])])
        store.write_pieces(0, [(stripe, recs[stripe : stripe + 8])])
        disk = disks[0]
        size = small_fmt.record_size
        assert [e[:2] for e in disk.checksums.extents(store._file(0))] == [
            (0, 4 * size), (4 * size, 4 * size), (8 * size, 8 * size),
        ]

    @pytest.mark.parametrize("k", range(1, 5))
    def test_a_fault_on_extent_k_resumes_there_and_the_chain_holds(
        self, stores, monkeypatch, k
    ):
        import os

        from repro.resilience.faults import FaultPlan, FaultSpec

        make, recs = stores
        store = make()
        disk, file, path = self.portion_file(store)
        disk.fault_plan = FaultPlan([FaultSpec(op="write", nth=k, transient=True)])
        disk.retry_policy = RetryPolicy(max_attempts=2, base_delay_s=0.0)
        landed = []
        real_pwrite = os.pwrite

        def pwrite(fd, data, offset):
            landed.append(offset)
            return real_pwrite(fd, data, offset)

        monkeypatch.setattr(os, "pwrite", pwrite)
        store.append_segments(0, [(0, recs[lo:hi]) for lo, hi in self.SEGMENTS])
        monkeypatch.undo()
        # Every segment landed once, in order: the retry resumed at k.
        assert landed == [store.fmt.nbytes(lo) for lo, _hi in self.SEGMENTS]
        snap = disk.stats.snapshot()
        assert (snap["writes"], snap["write_retries"]) == (4, 1)
        whole = path.read_bytes()
        assert whole == recs.tobytes()
        assert disk.checksums.extents(file) == [
            (0, len(whole), block_checksum(whole))
        ]


# ---------------------------------------------------------------------------
# The flush seam: sidecars are persisted at pass boundaries, not per write
# ---------------------------------------------------------------------------


def _run_sort(program, backend, workdir):
    from repro.cluster.config import ClusterConfig
    from repro.oocs import sort_out_of_core
    from repro.records.format import RecordFormat
    from repro.records.generators import generate

    fmt = RecordFormat("u8", 64)
    if program == "gcolumnsort":
        recs = generate("uniform", fmt, 8192, seed=7)
        cluster = ClusterConfig(p=4, mem_per_proc=512)
        return recs, sort_out_of_core(
            "g", recs, cluster, fmt, 512, group_size=2, workdir=workdir,
            backend=backend,
        )
    n, buffer = {
        "threaded": (2048, 256),
        "subblock": (4096, 256),
        "m": (4096, 1024),
        "hybrid": (1024, 128),
    }[program]
    recs = generate("uniform", fmt, n, seed=7)
    cluster = ClusterConfig(p=2, mem_per_proc=2**10)
    return recs, sort_out_of_core(
        program, recs, cluster, fmt, buffer_records=buffer, workdir=workdir,
        backend=backend,
    )


def _assert_on_disk_catalog_complete(recs, result):
    """What a *fresh* process would find under the run's disk roots:
    extents that exactly tile every object, and an output whose every
    byte is CRC-verified on the way back in."""
    import numpy as np

    from repro.disks.matrixfile import PdmStore

    out = result.output
    fresh = [VirtualDisk(d.root, disk_id=d.disk_id) for d in out.disks]
    seen = set()
    for disk in fresh:
        for name in disk.files():
            seen.add(name.split(".")[0])
            cursor = 0
            for offset, length, _crc in disk.checksums.extents(name):
                assert offset == cursor, f"{name}: gap or overlap at {offset}"
                cursor += length
            assert cursor == disk.size(name), f"{name}: catalog ends at {cursor}"
    assert seen == {"input", "output"}
    store = PdmStore(out.cfg, out.fmt, out.n, fresh, out.block, name=out.name)
    got = store.read_all()
    assert np.array_equal(got, out.fmt.sort(recs))
    hashed = sum(d.stats.snapshot()["bytes_hashed"] for d in fresh)
    assert hashed == out.fmt.nbytes(out.n)


class TestPassBoundaryFlush:
    @pytest.mark.parametrize("backend", available_backends())
    @pytest.mark.parametrize(
        "program", ["threaded", "subblock", "m", "hybrid", "gcolumnsort"]
    )
    def test_fresh_disks_find_a_complete_catalog(self, tmp_path, program, backend):
        recs, result = _run_sort(program, backend, tmp_path / "w")
        _assert_on_disk_catalog_complete(recs, result)

    @pytest.mark.parametrize("backend", available_backends())
    def test_completeness_check_catches_a_missing_flush(
        self, tmp_path, monkeypatch, backend
    ):
        """Teeth: with the flush seam a no-op nothing reaches ``.meta/``
        and the completeness check must say so."""
        monkeypatch.setattr(BlockChecksums, "flush", lambda self: 0)
        recs, result = _run_sort("threaded", backend, tmp_path / "w")
        with pytest.raises(AssertionError, match="catalog ends at 0"):
            _assert_on_disk_catalog_complete(recs, result)
