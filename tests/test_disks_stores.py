"""The column store (at every group size) and the PDM store."""

import numpy as np
import pytest

from repro.cluster.config import ClusterConfig
from repro.disks.iostats import IoStats
from repro.disks.matrixfile import ColumnStore, PdmStore
from repro.disks.virtual_disk import make_disk_array
from repro.errors import ConfigError, DiskError
from repro.records.format import RecordFormat
from repro.records.generators import generate


@pytest.fixture
def env(tmp_path):
    cfg = ClusterConfig(p=4, d=4, mem_per_proc=2**12)
    fmt = RecordFormat("u8", 32)
    disks = make_disk_array(tmp_path, cfg.virtual_disks)
    recs = generate("uniform", fmt, 64 * 8, seed=11)
    return cfg, fmt, disks, recs


#: the three points of the height interpretation r = g·M/P at P = 4
GROUP_SIZES = [1, 2, 4]


class TestColumnStore:
    """The one column store. The unparametrized tests pin the whole-column
    case ``g = 1``; the parametrized ones hold at every group size."""

    def test_roundtrip(self, env):
        cfg, fmt, disks, recs = env
        store = ColumnStore.from_records(cfg, fmt, recs, 64, 8, disks)
        assert np.array_equal(store.to_records(), recs)

    def test_column_contents(self, env):
        cfg, fmt, disks, recs = env
        store = ColumnStore.from_records(cfg, fmt, recs, 64, 8, disks)
        assert (store.g, store.groups, store.portion) == (1, 4, 64)
        for j in range(8):
            col = store.read_portion(store.rank_of(j, 0), j)
            assert np.array_equal(col, recs[j * 64 : (j + 1) * 64])

    def test_ownership_enforced(self, env):
        cfg, fmt, disks, recs = env
        store = ColumnStore.from_records(cfg, fmt, recs, 64, 8, disks)
        with pytest.raises(DiskError, match="owned by group"):
            store.read_portion(0, 1)
        with pytest.raises(DiskError):
            store.write_portion(2, 3, recs[:64])

    def test_segment_writes(self, env):
        """A deal round's segments land back to back: the append cursor
        is the row offset the step-2 deal used to pass explicitly."""
        cfg, fmt, disks, recs = env
        store = ColumnStore(cfg, fmt, 64, 8, disks, name="seg")
        store.append_segments(1, [(1, recs[:32])])
        store.append_segments(1, [(1, recs[32:64])])
        assert np.array_equal(store.read_portion(1, 1), recs[:64])

    def test_segment_bounds_checked(self, env):
        cfg, fmt, disks, recs = env
        store = ColumnStore(cfg, fmt, 64, 8, disks, name="seg2")
        store.append_segments(1, [(1, recs[:60])])
        with pytest.raises(ConfigError, match="overflows"):
            store.append_segments(1, [(1, recs[:8])])

    def test_append_cursors(self, env):
        cfg, fmt, disks, recs = env
        store = ColumnStore(cfg, fmt, 64, 8, disks, name="app")
        store.append_segments(2, [(2, recs[:40])])
        assert store.cursor(2, 2) == 40
        store.append_segments(2, [(2, recs[40:64])])
        assert np.array_equal(store.read_portion(2, 2), recs[:64])
        store.reset_cursors()
        assert store.cursor(2, 2) == 0

    def test_full_column_length_enforced(self, env):
        cfg, fmt, disks, recs = env
        store = ColumnStore(cfg, fmt, 64, 8, disks, name="len")
        with pytest.raises(ConfigError):
            store.write_portion(0, 0, recs[:10])

    def test_wrong_record_count_on_load(self, env):
        cfg, fmt, disks, recs = env
        with pytest.raises(ConfigError):
            ColumnStore.from_records(cfg, fmt, recs[:100], 64, 8, disks)

    def test_p_must_divide_s(self, env):
        cfg, fmt, disks, _ = env
        with pytest.raises(ConfigError):
            ColumnStore(cfg, fmt, 64, 6, disks)

    def test_columns_cycle_over_owner_disks(self, tmp_path):
        cfg = ClusterConfig(p=2, d=4, mem_per_proc=2**12)
        fmt = RecordFormat("u8", 32)
        disks = make_disk_array(tmp_path / "multi", 4)
        for g in (1, 2):
            store = ColumnStore(cfg, fmt, 16, 8, disks, group_size=g)
            used = {
                store._disk_for(j, 0).disk_id
                for j in range(8)
                if store.rank_of(j, 0) == 0
            }
            assert used == {0, 2}  # rank 0's two disks both used

    def test_delete_frees_files(self, env):
        cfg, fmt, disks, recs = env
        store = ColumnStore.from_records(cfg, fmt, recs, 64, 8, disks, name="gone")
        store.delete()
        assert all(not d.files() for d in disks)

    @pytest.mark.parametrize("g", GROUP_SIZES)
    def test_placement(self, env, g):
        """Column ``j`` belongs to group ``j mod P/g``; member ``m`` holds
        rows ``[m·r/g, (m+1)·r/g)`` in ``<name>.colJ.partM`` on one of its
        own disks; other groups' ranks are refused."""
        cfg, fmt, disks, recs = env
        store = ColumnStore.from_records(
            cfg, fmt, recs, 64, 8, disks, name="pl", group_size=g
        )
        assert (store.g, store.groups, store.portion) == (g, 4 // g, 64 // g)
        for j in range(8):
            for m in range(g):
                rank = store.rank_of(j, m)
                assert rank == (j % (4 // g)) * g + m
                disk = store._disk_for(j, rank)
                assert cfg.owner_of_disk(disk.disk_id) == rank
                assert f"pl.col{j:06d}.part{m:03d}" in disk.files()
                lo = j * 64 + m * store.portion
                assert np.array_equal(
                    store.read_portion(rank, j), recs[lo : lo + store.portion]
                )
        assert np.array_equal(store.to_records(), recs)
        for rank in range(4):
            if rank // g != 1 % store.groups:
                with pytest.raises(DiskError, match="owned by group"):
                    store.read_portion(rank, 1)
        store.delete()
        assert all(not d.files() for d in disks)


class TestStripedColumnStore:
    """``g = P``: every column spans the cluster (M-columnsort)."""

    def test_roundtrip(self, env):
        cfg, fmt, disks, recs = env
        store = ColumnStore.from_records(cfg, fmt, recs, 64, 8, disks, group_size=4)
        assert np.array_equal(store.to_records(), recs)

    def test_portions(self, env):
        cfg, fmt, disks, recs = env
        store = ColumnStore.from_records(cfg, fmt, recs, 64, 8, disks, group_size=4)
        assert store.portion == 16
        got = store.read_portion(2, 3)
        assert np.array_equal(got, recs[3 * 64 + 32 : 3 * 64 + 48])

    def test_append_cursors_per_rank_and_column(self, env):
        cfg, fmt, disks, recs = env
        store = ColumnStore(cfg, fmt, 64, 8, disks, name="sapp", group_size=4)
        store.append_segments(0, [(0, recs[:8])])
        store.append_segments(1, [(0, recs[8:10])])
        assert store.cursor(0, 0) == 8
        assert store.cursor(1, 0) == 2
        store.append_segments(0, [(0, recs[8:16])])
        assert np.array_equal(store.read_portion(0, 0), recs[:16])

    def test_portion_bounds(self, env):
        cfg, fmt, disks, recs = env
        store = ColumnStore(cfg, fmt, 64, 8, disks, name="sb", group_size=4)
        with pytest.raises(ConfigError):
            store.write_portion(0, 0, recs[:10])
        store.append_segments(0, [(0, recs[:12])])
        with pytest.raises(ConfigError, match="overflows"):
            store.append_segments(0, [(0, recs[:8])])
        assert store.cursor(0, 0) == 12  # a refused append reserves nothing

    def test_p_must_divide_r(self, env):
        cfg, fmt, disks, _ = env
        with pytest.raises(ConfigError):
            ColumnStore(cfg, fmt, 66, 8, disks, group_size=4)


class TestPdmStore:
    def test_write_read_global(self, env):
        cfg, fmt, disks, recs = env
        pdm = PdmStore(cfg, fmt, len(recs), disks, block_records=16)
        sorted_recs = fmt.sort(recs)
        for rank, pieces in pdm.split_by_owner(0, len(recs)).items():
            for _disk, _off, rel, n in pieces:
                pdm.write_pieces(rank, [(rel, sorted_recs[rel : rel + n])])
        assert np.array_equal(pdm.read_all(), sorted_recs)
        assert np.array_equal(pdm.read_global(100, 50), sorted_recs[100:150])

    def test_ownership_enforced(self, env):
        cfg, fmt, disks, recs = env
        pdm = PdmStore(cfg, fmt, len(recs), disks, block_records=16)
        # global 0 lives on disk 0 owned by rank 0; rank 1 may not write it.
        with pytest.raises(DiskError):
            pdm.write_pieces(1, [(0, recs[:4])])

    def test_unaligned_partial_block_writes(self, env):
        cfg, fmt, disks, recs = env
        pdm = PdmStore(cfg, fmt, len(recs), disks, block_records=16)
        # Range [3, 9) sits inside block 0 (disk 0, rank 0).
        pdm.write_pieces(0, [(3, recs[:6])])
        assert np.array_equal(pdm.read_global(3, 6), recs[:6])

    def test_range_checked(self, env):
        cfg, fmt, disks, recs = env
        pdm = PdmStore(cfg, fmt, 128, disks, block_records=16)
        with pytest.raises(ConfigError):
            pdm.read_global(120, 16)
        with pytest.raises(ConfigError):
            pdm.split_by_owner(-1, 4)

    def test_block_size_positive(self, env):
        cfg, fmt, disks, _ = env
        with pytest.raises(ConfigError):
            PdmStore(cfg, fmt, 128, disks, block_records=0)

    def test_io_totals_exposed(self, env):
        cfg, fmt, disks, recs = env
        store = ColumnStore.from_records(cfg, fmt, recs, 64, 8, disks, name="io")
        totals = IoStats.combine([d.stats for d in store.disks])
        assert totals["bytes_written"] == len(recs) * 32
