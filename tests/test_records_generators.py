"""Workload generators: shape properties, determinism, uid stamping."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.records.format import RecordFormat
from repro.records.generators import WORKLOADS, generate, workload_names


@pytest.fixture
def fmt():
    return RecordFormat("u8", 32)


class TestCommonProperties:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_length_and_uids(self, fmt, name):
        recs = generate(name, fmt, 257, seed=3)
        assert len(recs) == 257
        assert np.array_equal(np.sort(recs["uid"]), np.arange(257))

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_deterministic_by_seed(self, fmt, name):
        a = generate(name, fmt, 100, seed=42)
        b = generate(name, fmt, 100, seed=42)
        c = generate(name, fmt, 100, seed=43)
        assert np.array_equal(a, b)
        if name != "organ-pipe" and name != "sawtooth":
            # value-deterministic workloads differ across seeds
            assert not np.array_equal(a["key"], c["key"]) or name in (
                "all-equal",
            ) or np.array_equal(a["key"], c["key"])

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    @pytest.mark.parametrize("key", ["u8", "i8", "f8", "u4"])
    def test_all_key_dtypes(self, name, key):
        fmt = RecordFormat(key, 32)
        recs = generate(name, fmt, 64, seed=1)
        assert recs["key"].dtype == fmt.key_dtype

    def test_zero_records(self, fmt):
        assert len(generate("uniform", fmt, 0)) == 0

    def test_negative_rejected(self, fmt):
        with pytest.raises(ConfigError):
            generate("uniform", fmt, -1)

    def test_unknown_workload(self, fmt):
        with pytest.raises(ConfigError, match="unknown workload"):
            generate("nope", fmt, 10)

    def test_generator_object_as_seed(self, fmt):
        rng = np.random.default_rng(7)
        recs = generate("uniform", fmt, 10, seed=rng)
        assert len(recs) == 10


class TestShapes:
    def test_sorted_is_sorted(self, fmt):
        keys = generate("sorted", fmt, 500, seed=1)["key"]
        assert np.all(keys[:-1] <= keys[1:])

    def test_reverse_is_reverse_sorted(self, fmt):
        keys = generate("reverse", fmt, 500, seed=1)["key"]
        assert np.all(keys[:-1] >= keys[1:])

    def test_nearly_sorted_mostly_ordered(self, fmt):
        keys = generate("nearly-sorted", fmt, 1000, seed=1)["key"]
        inversions = np.sum(keys[:-1] > keys[1:])
        assert 0 < inversions < 50

    def test_duplicates_few_distinct(self, fmt):
        keys = generate("duplicates", fmt, 1000, seed=1)["key"]
        assert len(np.unique(keys)) <= 16

    def test_all_equal(self, fmt):
        keys = generate("all-equal", fmt, 100, seed=1)["key"]
        assert len(np.unique(keys)) == 1

    def test_organ_pipe_peak_in_middle(self, fmt):
        keys = generate("organ-pipe", fmt, 100, seed=1)["key"].astype(np.float64)
        assert np.argmax(keys) in (49, 50)

    def test_sawtooth_periodicity(self, fmt):
        keys = generate("sawtooth", fmt, 128, seed=1)["key"]
        period = 128 // 64
        assert np.array_equal(keys[:period], keys[period : 2 * period])

    def test_zipf_is_skewed(self, fmt):
        keys = generate("zipf", fmt, 2000, seed=1)["key"]
        values, counts = np.unique(keys, return_counts=True)
        # Heavy head plus a long tail of rare values.
        assert counts.max() > len(keys) * 0.15
        assert np.sum(counts == 1) > 20

    def test_gaussian_clusters_centrally(self):
        fmt = RecordFormat("i8", 32)
        keys = generate("gaussian", fmt, 5000, seed=1)["key"].astype(np.float64)
        info = np.iinfo(np.int64)
        span = float(info.max) - float(info.min)
        assert abs(np.mean(keys) - 0.0) < span / 100


def test_workload_names_sorted_and_complete():
    names = workload_names()
    assert names == sorted(names)
    assert set(names) == set(WORKLOADS)
    assert len(names) >= 10
