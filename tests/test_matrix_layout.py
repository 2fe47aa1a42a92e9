"""Flat/matrix conversions and column sorting."""

import numpy as np
import pytest

from repro.errors import DimensionError
from repro.matrix.layout import (
    from_columns,
    is_sorted_column_major,
    is_sorted_columnwise,
    sort_columns,
    to_columns,
)
from repro.records.format import RecordFormat


class TestConversions:
    def test_roundtrip(self):
        flat = np.arange(24)
        m = to_columns(flat, 6, 4)
        assert m.shape == (6, 4)
        assert list(m[:, 0]) == list(range(6))
        assert np.array_equal(from_columns(m), flat)

    def test_column_major_semantics(self):
        m = to_columns(np.arange(6), 3, 2)
        assert list(m[:, 1]) == [3, 4, 5]

    def test_record_arrays(self):
        fmt = RecordFormat("u8", 32)
        recs = fmt.make(np.arange(12, dtype=np.uint64))
        m = to_columns(recs, 4, 3)
        assert np.array_equal(from_columns(m), recs)

    def test_bad_length(self):
        with pytest.raises(DimensionError):
            to_columns(np.arange(5), 2, 3)

    def test_bad_ndim(self):
        with pytest.raises(DimensionError):
            from_columns(np.arange(6))


class TestSortColumns:
    def test_plain(self):
        m = np.array([[3, 1], [1, 2], [2, 0]])
        out = sort_columns(m)
        assert np.array_equal(out, [[1, 0], [2, 1], [3, 2]])

    def test_input_unmodified(self):
        m = np.array([[3], [1]])
        sort_columns(m)
        assert m[0, 0] == 3

    def test_records_sorted_by_key_only(self):
        fmt = RecordFormat("u8", 32)
        recs = fmt.make(
            np.array([2, 1, 1, 2], dtype=np.uint64), uids=np.array([0, 1, 2, 3])
        )
        m = to_columns(recs, 2, 2)
        out = sort_columns(m)
        assert list(out["key"][:, 0]) == [1, 2]
        assert list(out["key"][:, 1]) == [1, 2]

    def test_records_stable_within_column(self):
        fmt = RecordFormat("u8", 32)
        recs = fmt.make(np.zeros(4, dtype=np.uint64), uids=np.arange(4))
        out = sort_columns(to_columns(recs, 4, 1))
        assert list(out["uid"][:, 0]) == [0, 1, 2, 3]

    def test_rejects_1d(self):
        with pytest.raises(DimensionError):
            sort_columns(np.arange(4))


class TestSortedness:
    def test_columnwise(self):
        assert is_sorted_columnwise(np.array([[1, 5], [2, 5], [3, 4]])) is False
        assert is_sorted_columnwise(np.array([[1, 4], [2, 5]]))
        assert is_sorted_columnwise(np.zeros((1, 3)))

    def test_column_major(self):
        ok = to_columns(np.arange(12), 4, 3)
        assert is_sorted_column_major(ok)
        bad = ok.copy()
        bad[0, 1] = 0  # duplicate of global minimum out of place
        assert not is_sorted_column_major(bad) or bad[3, 0] <= bad[0, 1]

    def test_column_major_records(self):
        fmt = RecordFormat("u8", 32)
        recs = fmt.make(np.arange(8, dtype=np.uint64))
        assert is_sorted_column_major(to_columns(recs, 4, 2))
