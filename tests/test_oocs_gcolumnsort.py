"""g-columnsort: the §6 adjustable height interpretation, plus the
sub-communicators and group-striped store underneath it, and its two
ends, which are threaded columnsort and M-columnsort."""

from dataclasses import replace

import numpy as np
import pytest

from repro.cluster.config import ClusterConfig
from repro.cluster.spmd import run_spmd
from repro.disks.matrixfile import ColumnStore
from repro.disks.virtual_disk import make_disk_array
from repro.errors import ConfigError, DimensionError, DiskError
from repro.oocs.api import ALGORITHMS, sort_out_of_core
from repro.oocs.base import OocJob, make_workspace, run_pass_program
from repro.records.format import RecordFormat
from repro.records.generators import generate

FMT = RecordFormat("u8", 64)
derive_shape = ALGORITHMS["g"].derive_shape


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
        store.append_segments(0, [(0, recs[:32])])
        with pytest.raises(ConfigError, match="overflows"):
            store.append_segments(0, [(0, recs[:1])])

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
        """The bound at group size g is restriction (1) at height g·M/P:
        g=1 gives restriction (1), g=P gives restriction (3), it is
        monotone in g, and the program admits exactly that N."""
        from repro.bounds.restrictions import (
            max_n_m_columnsort,
            max_n_threaded,
            max_pow2_n,
        )

        mem = 2**14
        assert max_n_threaded(16 * mem) == max_n_m_columnsort(16 * mem)
        bounds = [max_n_threaded((1 << k) * mem) for k in range(5)]
        assert bounds == sorted(bounds)
        cluster = ClusterConfig(p=4, mem_per_proc=512)
        for g in (1, 2, 4):
            n = max_pow2_n(max_n_threaded(g * 512))
            job = OocJob(cluster=cluster, fmt=FMT, n=n, buffer_records=512)
            derive_shape(replace(job, group_size=g))
            with pytest.raises(DimensionError):
                derive_shape(replace(job, n=2 * n, group_size=g))

    def test_smallest_group_size_policy(self):
        # N = 65536 needs g=4 at buffer 512 (bounds 8192 / 23170 / 65536).
        cluster = ClusterConfig(p=4, mem_per_proc=512)

        def picked(n):
            job = OocJob(cluster=cluster, fmt=FMT, n=n, buffer_records=512)
            return ALGORITHMS["g"].layout(job)[2]

        assert picked(4096) == 1
        assert picked(8192) == 1
        assert picked(16384) == 2
        assert picked(32768) == 4
        assert picked(65536) == 4
        with pytest.raises(DimensionError):
            picked(2**20)

    def test_auto_policy_runs_beyond_threaded_bound(self):
        """A problem size threaded columnsort cannot configure at this
        buffer; the auto policy escalates g and the sort verifies."""
        cluster = ClusterConfig(p=4, mem_per_proc=512)
        n = 32768  # > max_n_threaded(512) = 8192
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


def _run_keeping_files(algorithm, n, buffer, backend, workdir, group_size=None):
    """Zipf keys through ``ALGORITHMS[algorithm]`` with every
    intermediate kept: the run, and its data files by name (checksum
    sidecars left out, the program's scratch prefix normalised)."""
    cluster = ClusterConfig(p=4, mem_per_proc=2**16)
    recs = generate("zipf", FMT, n, seed=7)
    job = OocJob(
        cluster=cluster, fmt=FMT, n=n, buffer_records=buffer,
        backend=backend, group_size=group_size,
    )
    program = ALGORITHMS[algorithm]
    r, s, g = program.layout(job)
    ws = make_workspace(cluster, FMT, recs, r, s, workdir=workdir, group_size=g)
    res = run_pass_program(program, job, ws.input, keep_intermediates=True)
    files = {}
    for path in sorted(workdir.rglob("*")):
        if path.is_file() and ".meta" not in path.parts:
            name = path.name
            if name.startswith(f"{program.scratch}-"):
                name = "scratch-" + name[len(program.scratch) + 1 :]
            files[f"{path.parent.name}/{name}"] = path.read_bytes()
    return res, files


@pytest.mark.parametrize("backend", ["thread", "process"])
@pytest.mark.parametrize(
    "named,n,buffer,g",
    [("threaded", 8192, 512, 1), ("m", 32768, 2048, 4)],
)
def test_group_size_ends_are_threaded_and_m(tmp_path, backend, named, n, buffer, g):
    """g = 1 is threaded columnsort and g = P is M-columnsort, operation
    for operation: the same data files after every pass, the same
    output, and the same messages, network bytes, copies and writes."""
    want, want_files = _run_keeping_files(named, n, buffer, backend, tmp_path / "named")
    got, got_files = _run_keeping_files("g", n, buffer, backend, tmp_path / "g", g)
    assert got_files.keys() == want_files.keys()
    for name, data in want_files.items():
        assert got_files[name] == data, name
    assert got.output.read_all().tobytes() == want.output.read_all().tobytes()
    for key in ("messages", "network_bytes"):
        assert got.comm_total[key] == want.comm_total[key], key
    assert got.copy["bytes_copied"] == want.copy["bytes_copied"]
    assert got.io["writes"] == want.io["writes"]
