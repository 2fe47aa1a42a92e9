"""The 10-step subblock columnsort, in core."""

import numpy as np
import pytest

from repro.columnsort.basic import columnsort
from repro.columnsort.checks import (
    count_sorted_runs,
    has_subblock_property,
    min_run_length,
    runs_after_subblock_ok,
)
from repro.columnsort.subblock import subblock_columnsort, subblock_columnsort_steps
from repro.errors import DimensionError
from repro.matrix.layout import (
    from_columns,
    is_sorted_column_major,
    sort_columns,
    to_columns,
)
from repro.matrix.permutations import step2_target, subblock, subblock_target
from repro.records.format import RecordFormat
from repro.records.generators import WORKLOADS, generate

#: (r, s) pairs legal for subblock columnsort; the starred ones violate
#: basic columnsort's r ≥ 2s² — the whole point of the algorithm.
SHAPES = [(32, 4), (256, 16), (512, 16), (2048, 64)]
BELOW_BASIC = [(256, 16), (2048, 64)]  # 2s² = 512, 8192 respectively


class TestSorts:
    @pytest.mark.parametrize("r,s", SHAPES)
    def test_random_ints(self, r, s, rng):
        flat = rng.integers(0, 10**6, size=r * s)
        out = subblock_columnsort(to_columns(flat, r, s))
        assert is_sorted_column_major(out)
        assert np.array_equal(from_columns(out), np.sort(flat))

    @pytest.mark.parametrize("r,s", BELOW_BASIC)
    def test_sorts_below_basic_bound(self, r, s, rng):
        """Matrices too short for basic columnsort, repeatedly, with an
        adversarially small key space."""
        assert r < 2 * s * s
        for trial in range(25):
            flat = rng.integers(0, 5, size=r * s)
            out = subblock_columnsort(to_columns(flat, r, s))
            assert is_sorted_column_major(out), trial

    def test_boundary_height_exact(self, rng):
        # r = 4·s^(3/2) exactly (s=16 → 256).
        flat = rng.integers(0, 100, size=256 * 16)
        out = subblock_columnsort(to_columns(flat, 256, 16))
        assert is_sorted_column_major(out)

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_all_workloads_with_records(self, workload):
        fmt = RecordFormat("u8", 32)
        recs = generate(workload, fmt, 256 * 16, seed=6)
        out = subblock_columnsort(to_columns(recs, 256, 16))
        flat = from_columns(out)
        assert np.array_equal(flat["key"], np.sort(recs["key"]))
        assert np.array_equal(np.sort(flat["uid"]), np.arange(len(recs)))

    def test_agrees_with_basic_where_both_legal(self, rng):
        flat = rng.integers(0, 10**9, size=512 * 16)
        a = columnsort(to_columns(flat, 512, 16))
        b = subblock_columnsort(to_columns(flat, 512, 16))
        assert np.array_equal(a, b)

    def test_height_restriction_enforced(self, rng):
        m = to_columns(rng.integers(0, 9, size=128 * 16), 128, 16)
        with pytest.raises(DimensionError):
            subblock_columnsort(m)


class TestSteps:
    def test_ten_labels(self, rng):
        m = to_columns(rng.integers(0, 100, size=256 * 16), 256, 16)
        labels = [label for label, _ in subblock_columnsort_steps(m)]
        assert labels == [
            "1:sort", "2:transpose-reshape", "3:sort",
            "3.1:subblock-permutation", "3.2:sort",
            "4:reshape-transpose", "5:sort", "6:shift-down",
            "7:sort", "8:shift-up",
        ]

    def test_sorted_runs_after_subblock_step(self, rng):
        """§3: the subblock permutation of sorted columns leaves runs of
        r/√s in every column — the property enabling merge-based sorts."""
        r, s = 256, 16
        m = to_columns(rng.integers(0, 10**6, size=r * s), r, s)
        states = dict(subblock_columnsort_steps(m))
        after = states["3.1:subblock-permutation"]
        assert runs_after_subblock_ok(after, r, s)
        for j in range(s):
            assert count_sorted_runs(after[:, j]) <= 4  # √s
            assert min_run_length(after[:, j]) >= r // 4


class TestSubblockProperty:
    @pytest.mark.parametrize("r,s", SHAPES + [(1024, 64)])
    def test_paper_permutation_has_property(self, r, s):
        assert has_subblock_property(subblock_target, r, s)

    def test_identity_lacks_property(self):
        assert not has_subblock_property(lambda i, j, r, s: (i, j), 256, 16)

    def test_step2_lacks_property(self):
        """The ordinary deal does NOT spread subblocks across all
        columns — the extra step is really needed."""
        assert not has_subblock_property(step2_target, 256, 16)

    def test_sorted_columns_stay_runs(self, rng):
        r, s = 256, 16
        m = sort_columns(to_columns(rng.integers(0, 10**6, size=r * s), r, s))
        assert runs_after_subblock_ok(subblock(m), r, s)


class TestRunCheckers:
    def test_count_sorted_runs(self):
        assert count_sorted_runs(np.array([1, 2, 0, 5, 5, 3])) == 3
        assert count_sorted_runs(np.array([1])) == 1
        assert count_sorted_runs(np.array([], dtype=int)) == 0

    def test_min_run_length(self):
        assert min_run_length(np.array([1, 2, 0, 5, 5, 3])) == 1
        assert min_run_length(np.array([1, 2, 3])) == 3
        assert min_run_length(np.array([], dtype=int)) == 0

    def test_run_checkers_on_records(self):
        fmt = RecordFormat("u8", 32)
        recs = fmt.make(np.array([1, 2, 0], dtype=np.uint64))
        assert count_sorted_runs(recs) == 2
