"""Bit utilities behind the Figure 1 permutation."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import DimensionError
from repro.matrix.bits import (
    extract_bits,
    ilog2,
    is_power_of_four,
    is_power_of_two,
    sqrt_pow4,
)


class TestPredicates:
    def test_powers_of_two(self):
        assert [n for n in range(1, 65) if is_power_of_two(n)] == [
            1, 2, 4, 8, 16, 32, 64,
        ]
        assert not is_power_of_two(0)
        assert not is_power_of_two(-4)

    def test_powers_of_four(self):
        assert [n for n in range(1, 300) if is_power_of_four(n)] == [1, 4, 16, 64, 256]

    def test_ilog2(self):
        for a in range(20):
            assert ilog2(1 << a) == a
        with pytest.raises(DimensionError):
            ilog2(6)
        with pytest.raises(DimensionError):
            ilog2(0)

    def test_sqrt_pow4(self):
        assert sqrt_pow4(1) == 1
        assert sqrt_pow4(4) == 2
        assert sqrt_pow4(256) == 16
        with pytest.raises(DimensionError):
            sqrt_pow4(8)


class TestBitFields:
    def test_extract(self):
        assert extract_bits(0b101100, 2, 3) == 0b011
        assert extract_bits(0b101100, 0, 2) == 0
        assert extract_bits(0xFF, 4, 4) == 0xF

    def test_extract_zero_width(self):
        assert extract_bits(123, 3, 0) == 0
        arr = extract_bits(np.array([5, 6]), 1, 0)
        assert np.all(arr == 0)

    def test_extract_vectorized(self):
        vals = np.array([0b1010, 0b0101])
        assert list(extract_bits(vals, 1, 2)) == [0b01, 0b10]

    @given(
        st.integers(min_value=0, max_value=2**30 - 1),
        st.integers(min_value=0, max_value=24),
        st.integers(min_value=1, max_value=6),
    )
    def test_extract_deposit_roundtrip(self, value, lo, width):
        field = extract_bits(value, lo, width)
        assert 0 <= field < (1 << width)
        # Depositing back and re-extracting is the identity on the field.
        assert extract_bits(field << lo, lo, width) == field

    @given(st.integers(min_value=0, max_value=2**20 - 1))
    def test_full_decomposition(self, value):
        """Splitting into 4 fields of 5 bits and re-interleaving is the
        identity — the exact structure of the Figure 1 permutation."""
        fields = {lo: extract_bits(value, lo, 5) for lo in (15, 10, 5, 0)}
        assert sum(field << lo for lo, field in fields.items()) == value
