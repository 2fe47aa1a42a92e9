"""Key dtypes and sentinels."""

import numpy as np
import pytest

from repro.records.keys import KEY_DTYPES, key_info


class TestKeyInfo:
    @pytest.mark.parametrize("name", sorted(KEY_DTYPES))
    def test_resolution_by_name(self, name):
        info = key_info(name)
        assert info.name == name
        assert info.dtype == KEY_DTYPES[name]
        assert info.itemsize == KEY_DTYPES[name].itemsize

    def test_resolution_by_dtype(self):
        info = key_info(np.dtype("<u8"))
        assert info.name == "u8"

    def test_unknown_name(self):
        with pytest.raises(TypeError, match="unknown key dtype"):
            key_info("u2")

    def test_unsupported_dtype(self):
        with pytest.raises(TypeError):
            key_info(np.dtype("c16"))


class TestSentinels:
    def test_integer_extremes(self):
        assert key_info("u8").min_value == 0
        assert key_info("u8").max_value == np.iinfo(np.uint64).max
        assert key_info("i8").min_value == np.iinfo(np.int64).min
        assert key_info("i4").max_value == np.iinfo(np.int32).max

    def test_float_infinities(self):
        assert key_info("f8").min_value == -np.inf
        assert key_info("f8").max_value == np.inf

    @pytest.mark.parametrize("name", sorted(KEY_DTYPES))
    def test_sentinels_bracket_all_values(self, name):
        """Every drawable key lies in [min_value, max_value] — the property
        the step-6/8 padding relies on."""
        info = key_info(name)
        rng = np.random.default_rng(0)
        if info.dtype.kind == "f":
            vals = rng.standard_normal(100) * 1e30
        else:
            ii = np.iinfo(info.dtype)
            vals = rng.integers(ii.min, ii.max, size=100, endpoint=True,
                                dtype=info.dtype)
        assert np.all(vals >= info.min_value)
        assert np.all(vals <= info.max_value)
