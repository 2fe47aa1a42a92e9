"""Sorted-run structure (footnote 5): predictions, live verification,
and the merging sort."""

import numpy as np
import pytest

from repro.cluster.config import ClusterConfig
from repro.disks.matrixfile import ColumnStore
from repro.errors import ConfigError
from repro.oocs.api import ALGORITHMS
from repro.oocs.base import OocJob, make_workspace, run_pass_program
from repro.oocs.runs import (
    merge_sorted_runs,
    merge_two,
    predict_runs,
    sort_column,
    verify_run_structure,
)
from repro.records.format import RecordFormat
from repro.records.generators import generate

FMT = RecordFormat("u8", 32)


class TestMergeTwo:
    def test_basic(self):
        a = FMT.make(np.array([1, 3, 5], dtype=np.uint64))
        b = FMT.make(np.array([2, 3, 6], dtype=np.uint64), uids=np.array([10, 11, 12]))
        out = merge_two(a, b)
        assert list(out["key"]) == [1, 2, 3, 3, 5, 6]
        # Stability: a's 3 (uid 1) precedes b's 3 (uid 11).
        assert list(out["uid"]) == [0, 10, 1, 11, 2, 12]

    def test_empty_sides(self):
        a = FMT.make(np.array([1, 2], dtype=np.uint64))
        empty = FMT.empty(0)
        assert np.array_equal(merge_two(a, empty), a)
        assert np.array_equal(merge_two(empty, a), a)

    def test_disjoint_ranges(self):
        a = FMT.make(np.array([1, 2], dtype=np.uint64))
        b = FMT.make(np.array([5, 6], dtype=np.uint64))
        assert list(merge_two(b, a)["key"]) == [1, 2, 5, 6]

    def test_random_agreement_with_sort(self, rng):
        for _ in range(20):
            ka = np.sort(rng.integers(0, 50, size=rng.integers(0, 40)))
            kb = np.sort(rng.integers(0, 50, size=rng.integers(0, 40)))
            out = merge_two(FMT.make(ka.astype(np.uint64)),
                            FMT.make(kb.astype(np.uint64)))
            assert np.array_equal(out["key"], np.sort(np.concatenate([ka, kb])))


class TestMergeRuns:
    @pytest.mark.parametrize("k", [1, 2, 4, 8, 16])
    def test_merges_k_runs(self, k, rng):
        run = 32
        keys = np.concatenate(
            [np.sort(rng.integers(0, 1000, size=run)) for _ in range(k)]
        ).astype(np.uint64)
        out = merge_sorted_runs(FMT.make(keys), run)
        assert np.array_equal(out["key"], np.sort(keys))

    def test_preserves_uids(self, rng):
        keys = np.concatenate(
            [np.sort(rng.integers(0, 9, size=16)) for _ in range(4)]
        ).astype(np.uint64)
        out = merge_sorted_runs(FMT.make(keys), 16)
        assert np.array_equal(np.sort(out["uid"]), np.arange(64))

    def test_bad_run_length(self):
        with pytest.raises(ConfigError):
            merge_sorted_runs(FMT.empty(10), 3)
        with pytest.raises(ConfigError):
            merge_sorted_runs(FMT.empty(10), 0)

    def test_sort_column_dispatch(self, rng):
        keys = np.concatenate(
            [np.sort(rng.integers(0, 100, size=64)) for _ in range(2)]
        ).astype(np.uint64)
        recs = FMT.make(keys)
        merged = sort_column(recs, run_length=64)
        plain = sort_column(recs)
        assert np.array_equal(merged["key"], plain["key"])


class TestPredictions:
    def test_formulas(self):
        assert predict_runs("after-deal", 512, 16) == (16, 32)
        assert predict_runs("after-subblock", 256, 16) == (4, 64)
        with pytest.raises(ConfigError):
            predict_runs("after-quicksort", 64, 8)
        with pytest.raises(ConfigError):
            predict_runs("after-deal", 10, 3)

    def test_verify_run_structure(self):
        keys = np.array([1, 2, 3, 0, 5, 9], dtype=np.uint64)
        assert verify_run_structure(FMT.make(keys), 3)
        assert not verify_run_structure(FMT.make(keys), 2)
        assert not verify_run_structure(FMT.make(keys), 4)  # non-dividing

    def test_live_deal_pass_produces_predicted_runs(self, tmp_path):
        """Footnote 5, verified: every intermediate column written by
        pass 1 of a live threaded run consists of s sorted runs of r/s."""
        p, r, s = 4, 128, 8
        cluster = ClusterConfig(p=p, mem_per_proc=2**10)
        recs = generate("uniform", FMT, r * s, seed=3)
        ws = make_workspace(cluster, FMT, recs, r, s, workdir=tmp_path)
        job = OocJob(cluster=cluster, fmt=FMT, n=r * s, buffer_records=r)
        run_pass_program(
            ALGORITHMS["threaded"], job, ws.input, keep_intermediates=True
        )
        t1 = ColumnStore(cluster, FMT, r, s, ws.disks, name="thr-t1")
        count, length = predict_runs("after-deal", r, s)
        for j in range(s):
            col = t1.read_portion(t1.rank_of(j, 0), j)
            assert verify_run_structure(col, length), f"column {j}"

    def test_live_subblock_pass_produces_predicted_runs(self, tmp_path):
        """§3's sorted-run theorem on the live 4-pass program: columns
        written by the subblock pass are √s runs of r/√s."""
        p, r, s = 4, 256, 16
        cluster = ClusterConfig(p=p, mem_per_proc=2**10)
        recs = generate("uniform", FMT, r * s, seed=4)
        ws = make_workspace(cluster, FMT, recs, r, s, workdir=tmp_path)
        job = OocJob(cluster=cluster, fmt=FMT, n=r * s, buffer_records=r)
        run_pass_program(
            ALGORITHMS["subblock"], job, ws.input, keep_intermediates=True
        )
        t2 = ColumnStore(cluster, FMT, r, s, ws.disks, name="sub-t2")
        count, length = predict_runs("after-subblock", r, s)
        assert (count, length) == (4, 64)
        for j in range(s):
            col = t2.read_portion(t2.rank_of(j, 0), j)
            assert verify_run_structure(col, length), f"column {j}"
