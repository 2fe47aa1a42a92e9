"""g-columnsort: the §6 adjustable height interpretation, plus the
sub-communicators and group-striped store underneath it."""

from dataclasses import replace

import numpy as np
import pytest

from repro.cluster.config import ClusterConfig
from repro.cluster.spmd import run_spmd
from repro.disks.matrixfile import ColumnStore
from repro.disks.virtual_disk import make_disk_array
from repro.errors import CommError, ConfigError, DimensionError, DiskError
from repro.oocs.api import sort_out_of_core
from repro.oocs.base import OocJob
from repro.oocs.gcolumnsort import derive_shape, g_bound, smallest_group_size
from repro.records.format import RecordFormat
from repro.records.generators import generate

FMT = RecordFormat("u8", 64)


def sort_g(recs, cluster, buffer, group_size=None, **kwargs):
    return sort_out_of_core(
        "g", recs, cluster, FMT, buffer, group_size=group_size, **kwargs
    )


class TestCommSplit:
    def test_groups_and_subranks(self):
        def prog(comm):
            sub = comm.split(color=comm.rank // 2)
            return (sub.size, sub.rank, sub.allgather(comm.rank))

        res = run_spmd(4, prog)
        assert res.returns[0] == (2, 0, [0, 1])
        assert res.returns[3] == (2, 1, [2, 3])

    def test_key_orders_subranks(self):
        def prog(comm):
            sub = comm.split(color=0, key=-comm.rank)  # reversed
            return sub.rank

        assert run_spmd(3, prog).returns == [2, 1, 0]

    def test_sub_traffic_does_not_leak_across_groups(self):
        def prog(comm):
            sub = comm.split(color=comm.rank % 2)
            sub.send(np.full(1, comm.rank), dest=(sub.rank + 1) % sub.size)
            got = sub.recv(source=(sub.rank + 1) % sub.size)
            # even group only ever sees even ranks and vice versa
            return int(got[0]) % 2 == comm.rank % 2

        assert all(run_spmd(4, prog).returns)

    def test_parent_and_child_interleave(self):
        def prog(comm):
            sub = comm.split(color=comm.rank // 2)
            a = sub.allgather("child")
            b = comm.allgather("parent")
            c = sub.allreduce(1)
            return (len(a), len(b), c)

        assert run_spmd(4, prog).returns == [(2, 4, 2)] * 4

    def test_nested_split(self):
        def prog(comm):
            half = comm.split(color=comm.rank // 2)
            solo = half.split(color=half.rank)
            return (solo.size, solo.allreduce(comm.rank))

        res = run_spmd(4, prog)
        assert res.returns == [(1, 0), (1, 1), (1, 2), (1, 3)]

    def test_singleton_group_membership_error(self):
        from repro.cluster.comm import _SubComm
        from repro.cluster.mailbox import MailboxRouter
        from repro.cluster.comm import Comm

        comm = Comm(0, 2, MailboxRouter(timeout=1))
        with pytest.raises(CommError, match="not a member"):
            _SubComm(comm, [1])

    def test_sub_stats_feed_parent_counters(self):
        def prog(comm):
            sub = comm.split(color=0)
            sub.send(np.zeros(4, dtype=np.int64), dest=(sub.rank + 1) % 2)
            sub.recv(source=(sub.rank + 1) % 2)
            return comm.stats.snapshot()["network_bytes"]

        res = run_spmd(2, prog)
        assert all(v >= 32 for v in res.returns)


class TestGroupColumnStore:
    @pytest.fixture
    def env(self, tmp_path):
        cfg = ClusterConfig(p=4, mem_per_proc=2**12)
        disks = make_disk_array(tmp_path, 4)
        recs = generate("uniform", FMT, 64 * 8, seed=1)
        return cfg, disks, recs

    @pytest.mark.parametrize("g", [1, 2, 4])
    def test_roundtrip(self, env, g):
        cfg, disks, recs = env
        store = ColumnStore.from_records(
            cfg, FMT, recs, 64, 8, disks, group_size=g
        )
        assert np.array_equal(store.to_records(), recs)
        assert store.portion == 64 // g

    def test_g1_matches_whole_column_ownership(self, env):
        cfg, disks, recs = env
        store = ColumnStore.from_records(
            cfg, FMT, recs, 64, 8, disks, group_size=1
        )
        # group j mod 4 ≡ rank j mod 4, one member each
        assert store.rank_of(5, 0) == 1
        assert np.array_equal(store.read_portion(1, 5), recs[5 * 64 : 6 * 64])

    def test_group_access_control(self, env):
        cfg, disks, recs = env
        store = ColumnStore.from_records(
            cfg, FMT, recs, 64, 8, disks, group_size=2
        )
        # column 1 → group 1 (ranks 2, 3); rank 0 may not touch it.
        with pytest.raises(DiskError, match="owned by group"):
            store.read_portion(0, 1)
        assert len(store.read_portion(2, 1)) == 32

    def test_append_overflow_guard(self, env):
        cfg, disks, recs = env
        store = ColumnStore(cfg, FMT, 64, 8, disks, name="ov", group_size=2)
        store.append_to_portion(0, 0, recs[:32])
        with pytest.raises(ConfigError, match="overflows"):
            store.append_to_portion(0, 0, recs[:1])

    def test_shape_validation(self, env):
        cfg, disks, _ = env
        with pytest.raises(ConfigError):
            ColumnStore(cfg, FMT, 64, 8, disks, group_size=3)  # g ∤ P
        with pytest.raises(ConfigError):
            ColumnStore(cfg, FMT, 66, 8, disks, group_size=4)  # g ∤ r
        with pytest.raises(ConfigError):
            ColumnStore(cfg, FMT, 64, 6, disks, group_size=1)  # G=4 ∤ s=6


class TestGColumnsort:
    @pytest.mark.parametrize("g", [1, 2, 4])
    def test_sorts_at_every_group_size(self, g):
        cluster = ClusterConfig(p=4, mem_per_proc=512)
        recs = generate("duplicates", FMT, 8192, seed=2)
        res = sort_g(recs, cluster, 512, group_size=g)
        assert res.passes == 3
        assert res.io["bytes_read"] == 3 * len(recs) * 64
        assert res.io["bytes_written"] == 3 * len(recs) * 64

    @pytest.mark.parametrize("workload", ["uniform", "zipf", "all-equal"])
    def test_workloads(self, workload):
        cluster = ClusterConfig(p=4, mem_per_proc=512)
        recs = generate(workload, FMT, 8192, seed=3)
        sort_g(recs, cluster, 512, group_size=2)

    def test_audited_run_checks_group_striped_portions(self, tmp_path):
        """audit=True drives the auditor's portion checks over g = 2
        stores (passes 1-2) and the PDM output (pass 3)."""
        from repro.durability.audit import PassAuditor
        from repro.errors import AuditError

        cluster = ClusterConfig(p=4, mem_per_proc=512)
        recs = generate("uniform", FMT, 8192, seed=8)
        res = sort_g(recs, cluster, 512, group_size=2, audit=True)
        assert res.durability["audited_passes"] == 3
        assert res.durability["audited_units"] >= 6  # 2 samples per pass
        # Teeth: a portion that lost records fails the exhaustive size check.
        store = ColumnStore.from_records(
            cluster, FMT, recs, 1024, 8, make_disk_array(tmp_path, 4),
            name="out", group_size=2,
        )
        rank = store.rank_of(3, 1)
        disk = store._disk_for(3, rank)
        disk.delete(store._file(3, 1))
        disk.write_at(store._file(3, 1), 0, recs[:100].tobytes())
        with pytest.raises(AuditError, match="column 3 part 1 .* lost or duplicated"):
            PassAuditor().audit_pass("g", store, 1, 3)

    def test_p8_middle_group_size(self):
        cluster = ClusterConfig(p=8, mem_per_proc=256)
        recs = generate("uniform", FMT, 8 * 256 * 4, seed=4)
        res = sort_g(recs, cluster, 256, group_size=4)
        assert res.passes == 3

    def test_sort_stage_traffic_grows_with_g(self):
        """The §6 trade, measured: larger groups mean more sort-stage
        communication (at identical N and buffers)."""
        cluster = ClusterConfig(p=4, mem_per_proc=512)
        recs = generate("uniform", FMT, 8192, seed=5)
        volumes = {
            g: sort_g(recs, cluster, 512, group_size=g).comm_total["network_bytes"]
            for g in (1, 2, 4)
        }
        assert volumes[1] < volumes[2] < volumes[4]

    def test_bound_interpolates(self):
        """g=1 gives restriction (1), g=P gives restriction (3), and the
        bound is monotone in g."""
        from repro.bounds.restrictions import max_n_m_columnsort, max_n_threaded

        mem = 2**14
        assert g_bound(mem, 1) == max_n_threaded(mem)
        assert g_bound(mem, 16) == max_n_m_columnsort(16 * mem)
        bounds = [g_bound(mem, 1 << k) for k in range(5)]
        assert bounds == sorted(bounds)

    def test_smallest_group_size_policy(self):
        # N = 65536 needs g=4 at buffer 512 (bounds 8192 / 23170 / 65536).
        assert smallest_group_size(8192, 4, 512) == 1
        assert smallest_group_size(16384, 4, 512) == 2
        assert smallest_group_size(65536, 4, 512) == 4
        with pytest.raises(DimensionError):
            smallest_group_size(2**20, 4, 512)

    def test_auto_policy_runs_beyond_threaded_bound(self):
        """A problem size threaded columnsort cannot configure at this
        buffer; the auto policy escalates g and the sort verifies."""
        cluster = ClusterConfig(p=4, mem_per_proc=512)
        n = 32768  # > g_bound(512, 1) = 8192
        recs = generate("uniform", FMT, n, seed=6)
        res = sort_g(recs, cluster, 512)
        assert "g=4" in res.algorithm or "g=2" in res.algorithm

    def test_shape_validation(self):
        cluster = ClusterConfig(p=4, mem_per_proc=512)
        job = OocJob(cluster=cluster, fmt=FMT, n=8192, buffer_records=512)
        assert derive_shape(replace(job, group_size=1)) == (512, 16)
        assert derive_shape(replace(job, group_size=2)) == (1024, 8)
        assert derive_shape(job) == (512, 16)  # the smallest feasible g
        with pytest.raises(ConfigError):
            derive_shape(replace(job, group_size=3))  # not a power of 2
        with pytest.raises(ConfigError):
            derive_shape(replace(job, group_size=8))  # g > P
        big = OocJob(
            cluster=cluster, fmt=FMT, n=2**20, buffer_records=512, group_size=1
        )
        with pytest.raises(DimensionError, match="larger group size"):
            derive_shape(big)

    def test_walk_names_the_last_refusal(self):
        """N = 8 fits the g = 1 bound at buffer 8, but one column is
        fewer than P = 2 and at g = 2 the column outgrows N: the refusal
        names what stopped the last g tried and chains it."""
        cluster = ClusterConfig(p=2, mem_per_proc=8)
        job = OocJob(cluster=cluster, fmt=FMT, n=8, buffer_records=8)
        with pytest.raises(
            DimensionError, match="g=2, was refused: .*must divide N=8"
        ) as err:
            derive_shape(job)
        assert isinstance(err.value.__cause__, ConfigError)
