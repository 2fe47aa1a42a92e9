"""Workload generators: shape properties, determinism, uid stamping."""

import hashlib
import tracemalloc

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


class TestByteIdentity:
    """Generation is chunked (``CHUNK_RECORDS`` at a time); the records
    are pinned byte for byte to what the unchunked generators drew."""

    #: SHA-256 over the records of (key u8, i4, f8) × (seed 0, 7), in
    #: that order, at N = 100,003 (not a multiple of the chunk) and
    #: 32-byte records.
    DIGESTS = {
        "all-equal": "703ffa09a474d32fa0cc4f1605c7aa6ada644293c892cdd7151c459120918f57",
        "duplicates": "e1f64d0d0449d93207597bf7f00ba4fa41e76a16046a55b9e861b57f0d14a823",
        "gaussian": "7cf7fded3d24f67f9b866d007ccef8b35515057aeb7c31bf5a2dc0e4a214da8b",
        "nearly-sorted": "cc2318777cd8baad127212bdf6ba10745be6c9e8baf2ae67175326fa01716703",
        "organ-pipe": "2d36e6da7f743bf759a2ca3490eda6742232c8161aaea020505cfe853a1c20f4",
        "reverse": "f28bc8374e70ec6ad49d77d06bdf57516ffb0f80402ee06ca2881ad3a8e6e0d2",
        "sawtooth": "74d1cebe5f5809e32393e24af093790171b39ef11987e4bc561efb428c3103de",
        "sorted": "f22e5dfaa89712424f4fb19bd28b002f36b7252cedf4dc731571e5bbe9af9426",
        "uniform": "7e1f789d193a27fc53beb7d66c810b60ed0964d3c82f750bd527718a066dbf17",
        "zipf": "568a07499bb7caf6345557be985e543701e103f1b6c641e452c5a76cfcdb90d4",
    }

    def test_every_workload_is_pinned(self):
        assert sorted(self.DIGESTS) == workload_names()

    @pytest.mark.parametrize("name", workload_names())
    def test_records_match_the_pinned_digest(self, name):
        h = hashlib.sha256()
        for key in ("u8", "i4", "f8"):
            for seed in (0, 7):
                recs = generate(name, RecordFormat(key, 32), 100_003, seed=seed)
                h.update(recs.tobytes())
        assert h.hexdigest() == self.DIGESTS[name]

    def test_memory_is_the_record_array_and_one_chunk(self):
        """2^19 64-byte records are 32 MiB; generating them may hold
        at most 2 MiB more at any moment."""
        n = 1 << 19
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            recs = generate("uniform", RecordFormat("u8", 64), n, seed=5)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert recs.nbytes == 32 << 20
        assert peak <= recs.nbytes + (2 << 20), peak
