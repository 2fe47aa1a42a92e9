"""Threaded columnsort, end to end on the simulated cluster."""

import numpy as np
import pytest

from repro.cluster.config import ClusterConfig
from repro.disks.matrixfile import ColumnStore
from repro.errors import ConfigError, DimensionError
from repro.matrix.layout import sort_columns, to_columns
from repro.matrix.permutations import step2
from repro.oocs.api import sort_out_of_core
from repro.oocs.base import OocJob, make_workspace, run_pass_program
from repro.oocs.threaded import PROGRAM, derive_shape
from repro.oocs.verify import verify_output
from repro.records.format import RecordFormat
from repro.records.generators import generate

FMT = RecordFormat("u8", 64)


def run(p, r, s, workload="uniform", fmt=FMT, seed=0, **kw):
    cluster = ClusterConfig(p=p, mem_per_proc=max(r, 2 * p * p))
    recs = generate(workload, fmt, r * s, seed=seed)
    res = sort_out_of_core(
        "threaded", recs, cluster, fmt, buffer_records=r, **kw
    )
    return res, recs


class TestEndToEnd:
    @pytest.mark.parametrize("p", [1, 2, 4, 8])
    def test_various_cluster_sizes(self, p):
        res, recs = run(p, 512, 16)
        assert res.passes == 3  # verification happens inside run()

    @pytest.mark.parametrize(
        "workload", ["uniform", "sorted", "reverse", "duplicates", "all-equal",
                     "zipf", "organ-pipe"]
    )
    def test_workload_shapes(self, workload):
        run(4, 128, 8, workload=workload)

    @pytest.mark.parametrize("key", ["u8", "i8", "f8"])
    def test_key_dtypes(self, key):
        fmt = RecordFormat(key, 32)
        run(4, 128, 8, fmt=fmt)

    def test_record_sizes(self):
        for size in (16, 64, 128):
            run(2, 128, 4, fmt=RecordFormat("u8", size))

    def test_minimum_shape(self):
        # s = P = 2, r = 2s² = 8: one round per pass.
        run(2, 8, 2)

    def test_single_processor(self):
        res, recs = run(1, 32, 4)
        assert res.comm_total["network_bytes"] == 0  # everything self-routed

    def test_more_disks_than_processors(self):
        cluster = ClusterConfig(p=2, d=8, mem_per_proc=2**10)
        recs = generate("uniform", FMT, 128 * 4, seed=1)
        res = sort_out_of_core("threaded", recs, cluster, FMT, buffer_records=128)
        assert res.passes == 3


class TestPassAccounting:
    def test_exactly_three_passes_of_io(self):
        res, recs = run(4, 512, 16)
        nbytes = len(recs) * FMT.record_size
        assert res.io["bytes_read"] == 3 * nbytes
        assert res.io["bytes_written"] == 3 * nbytes

    def test_io_per_pass_balanced(self):
        res, recs = run(4, 512, 16)
        nbytes = len(recs) * FMT.record_size
        assert len(res.io_per_pass) == 3
        for delta in res.io_per_pass:
            assert delta["bytes_read"] == nbytes
            assert delta["bytes_written"] == nbytes

    def test_deal_pass_network_volume(self):
        """Each round, each processor sends (P−1)/P of its r records
        over the network (paper §2)."""
        p, r, s = 4, 512, 16
        res, _ = run(p, r, s)
        per_round = (p - 1) * (r // p) * FMT.record_size
        rounds = s // p
        assert res.comm_per_pass[0]["network_bytes"] == per_round * rounds
        assert res.comm_per_pass[1]["network_bytes"] == per_round * rounds

    def test_total_comm_scales_with_ranks(self):
        res, recs = run(4, 512, 16)
        # All ranks combined move ~3 passes × (P−1)/P of the data, plus
        # the final pass's half exchanges; just check the magnitude.
        nbytes = len(recs) * FMT.record_size
        assert 1.5 * nbytes < res.comm_total["network_bytes"] < 4 * nbytes


class TestIntermediateStates:
    def test_pass1_realizes_steps_1_and_2_exactly(self, tmp_path):
        """Pass 1 writes exact positions, so its output must equal the
        in-core reference: step2(sort columns)."""
        p, r, s = 4, 128, 8
        cluster = ClusterConfig(p=p, mem_per_proc=2**10)
        recs = generate("uniform", FMT, r * s, seed=7)
        ws = make_workspace(cluster, FMT, recs, r, s, workdir=tmp_path)
        job = OocJob(cluster=cluster, fmt=FMT, n=r * s, buffer_records=r)
        result = run_pass_program(PROGRAM, job, ws.input, keep_intermediates=True)
        t1 = ColumnStore(cluster, FMT, r, s, ws.disks, name="thr-t1")
        got = to_columns(t1.to_records(), r, s)
        ref = step2(sort_columns(to_columns(recs, r, s)))
        assert np.array_equal(got["key"], ref["key"])
        assert np.array_equal(got["uid"], ref["uid"])
        verify_output(result.output, recs)

    def test_pass2_column_sets_match_step4(self, tmp_path):
        """Pass 2 appends in arrival order, so only the per-column
        record *sets* must match the in-core reference."""
        from repro.matrix.permutations import step4

        p, r, s = 2, 128, 8
        cluster = ClusterConfig(p=p, mem_per_proc=2**10)
        recs = generate("uniform", FMT, r * s, seed=8)
        ws = make_workspace(cluster, FMT, recs, r, s, workdir=tmp_path)
        job = OocJob(cluster=cluster, fmt=FMT, n=r * s, buffer_records=r)
        run_pass_program(PROGRAM, job, ws.input, keep_intermediates=True)
        t2 = ColumnStore(cluster, FMT, r, s, ws.disks, name="thr-t2")
        got = to_columns(t2.to_records(), r, s)
        ref = step4(sort_columns(step2(sort_columns(to_columns(recs, r, s)))))
        for j in range(s):
            assert np.array_equal(
                np.sort(got["uid"][:, j]), np.sort(ref["uid"][:, j])
            ), f"column {j} holds the wrong records"


class TestValidation:
    def test_shape_derivation(self):
        cluster = ClusterConfig(p=4, mem_per_proc=2**10)
        job = OocJob(cluster=cluster, fmt=FMT, n=8192, buffer_records=512)
        assert derive_shape(job) == (512, 16)

    def test_height_restriction_rejected(self):
        cluster = ClusterConfig(p=4, mem_per_proc=2**10)
        job = OocJob(cluster=cluster, fmt=FMT, n=512 * 32, buffer_records=512)
        with pytest.raises(DimensionError):
            derive_shape(job)

    def test_buffer_must_divide_n(self):
        cluster = ClusterConfig(p=4, mem_per_proc=2**12)
        job = OocJob(cluster=cluster, fmt=FMT, n=2**9, buffer_records=2**10)
        with pytest.raises(ConfigError, match="divide"):
            derive_shape(job)

    def test_fewer_columns_than_processors(self):
        cluster = ClusterConfig(p=8, mem_per_proc=2**12)
        job = OocJob(cluster=cluster, fmt=FMT, n=2**12 * 4, buffer_records=2**12)
        with pytest.raises(ConfigError, match="at least P"):
            derive_shape(job)

    def test_buffer_exceeding_memory(self):
        cluster = ClusterConfig(p=4, mem_per_proc=2**8)
        with pytest.raises(ConfigError, match="exceeds per-processor"):
            OocJob(cluster=cluster, fmt=FMT, n=2**12, buffer_records=2**9)

    def test_non_power_of_two_n(self):
        cluster = ClusterConfig(p=4, mem_per_proc=2**10)
        with pytest.raises(ConfigError):
            OocJob(cluster=cluster, fmt=FMT, n=1000, buffer_records=128)

    def test_store_shape_mismatch(self, tmp_path):
        cluster = ClusterConfig(p=2, mem_per_proc=2**10)
        recs = generate("uniform", FMT, 512, seed=1)
        ws = make_workspace(cluster, FMT, recs, 128, 4, workdir=tmp_path)
        job = OocJob(cluster=cluster, fmt=FMT, n=1024, buffer_records=128)
        with pytest.raises(ConfigError, match="input store"):
            run_pass_program(PROGRAM, job, ws.input)


class TestOutputLayout:
    def test_output_is_pdm_striped(self):
        """The output store really is in PDM order: reading each disk's
        stripe file directly and interleaving reproduces the sorted
        sequence."""
        p, r, s = 4, 128, 8
        res, recs = run(p, r, s)
        pdm = res.output
        expected = FMT.sort(recs)
        n = len(recs)
        block = pdm.block
        for g in range(0, n, 97):  # sample positions
            from repro.disks.pdm import pdm_position

            disk, offset = pdm_position(g, block, pdm.cfg.virtual_disks)
            raw = pdm.disks[disk].read_at(
                f"output.pdm{disk:03d}", FMT.nbytes(offset), FMT.record_size
            )
            got = FMT.from_bytes(raw)
            assert got["key"][0] == expected["key"][g]
