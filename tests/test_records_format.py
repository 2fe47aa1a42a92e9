"""RecordFormat: layout, constructors, serialization, sorting helpers."""

import numpy as np
import pytest

from repro.cluster import available_backends
from repro.cluster.config import ClusterConfig
from repro.errors import ConfigError
from repro.membuf import get_pool
from repro.oocs.api import sort_out_of_core
from repro.records.format import (
    RecordFormat,
    concat_records,
    stable_argsort,
    take_records,
)
from repro.records.generators import generate
from repro.records.keys import KEY_DTYPES
from tests.test_zerocopy_equivalence import SHAPES


class TestLayout:
    def test_itemsize_matches_record_size(self):
        for size in (16, 32, 64, 128):
            assert RecordFormat("u8", size).dtype.itemsize == size

    def test_minimum_record_size_is_key_plus_uid(self):
        assert RecordFormat("u8", 16).dtype.itemsize == 16
        with pytest.raises(ConfigError):
            RecordFormat("u8", 15)

    def test_u4_key_allows_smaller_records(self):
        fmt = RecordFormat("u4", 12)
        assert fmt.dtype.itemsize == 12
        assert fmt.key_dtype == np.dtype("<u4")

    def test_fields_present(self):
        fmt = RecordFormat("i8", 64)
        assert set(fmt.dtype.names) == {"key", "uid", "pad"}

    def test_no_pad_field_when_exact(self):
        fmt = RecordFormat("u8", 16)
        assert set(fmt.dtype.names) == {"key", "uid"}

    def test_unknown_key_dtype_rejected(self):
        with pytest.raises(TypeError):
            RecordFormat("u16", 64)

    def test_nbytes_and_count_roundtrip(self):
        fmt = RecordFormat("u8", 64)
        assert fmt.nbytes(10) == 640
        assert fmt.count(640) == 10
        with pytest.raises(ConfigError):
            fmt.count(641)


class TestConstructors:
    def test_make_stamps_sequential_uids(self):
        fmt = RecordFormat("u8", 32)
        recs = fmt.make(np.array([5, 3, 9], dtype=np.uint64))
        assert list(recs["uid"]) == [0, 1, 2]
        assert list(recs["key"]) == [5, 3, 9]

    def test_make_with_explicit_uids(self):
        fmt = RecordFormat("u8", 32)
        recs = fmt.make(np.array([1, 2]), uids=np.array([7, 8]))
        assert list(recs["uid"]) == [7, 8]

    def test_empty(self):
        fmt = RecordFormat("u8", 64)
        assert len(fmt.empty(5)) == 5
        assert fmt.empty(0).dtype == fmt.dtype

    def test_pads_have_extreme_keys(self):
        fmt = RecordFormat("u8", 32)
        assert np.all(fmt.pad_low(4)["key"] == 0)
        assert np.all(fmt.pad_high(4)["key"] == np.iinfo(np.uint64).max)

    def test_float_pads_are_infinite(self):
        fmt = RecordFormat("f8", 32)
        assert np.all(np.isneginf(fmt.pad_low(3)["key"]))
        assert np.all(np.isposinf(fmt.pad_high(3)["key"]))

    def test_signed_pads(self):
        fmt = RecordFormat("i8", 32)
        info = np.iinfo(np.int64)
        assert np.all(fmt.pad_low(2)["key"] == info.min)
        assert np.all(fmt.pad_high(2)["key"] == info.max)


class TestSerialization:
    def test_roundtrip(self):
        fmt = RecordFormat("u8", 64)
        recs = fmt.make(np.arange(100, dtype=np.uint64))
        back = fmt.from_bytes(fmt.to_bytes(recs))
        assert np.array_equal(back, recs)

    def test_byte_length_exact(self):
        fmt = RecordFormat("u8", 64)
        assert len(fmt.to_bytes(fmt.empty(7))) == 7 * 64

    def test_from_bytes_returns_writable_copy(self):
        fmt = RecordFormat("u8", 32)
        recs = fmt.from_bytes(fmt.to_bytes(fmt.make(np.array([1, 2]))))
        recs["key"][0] = 99  # must not raise (frombuffer alone is read-only)
        assert recs["key"][0] == 99


class TestSorting:
    def test_sort_is_by_key(self):
        fmt = RecordFormat("u8", 32)
        recs = fmt.make(np.array([3, 1, 2], dtype=np.uint64))
        out = fmt.sort(recs)
        assert list(out["key"]) == [1, 2, 3]
        assert list(out["uid"]) == [1, 2, 0]

    def test_sort_is_stable(self):
        fmt = RecordFormat("u8", 32)
        keys = np.array([1, 0, 1, 0, 1], dtype=np.uint64)
        out = fmt.sort(fmt.make(keys))
        # Equal keys keep their original relative order (by uid).
        assert list(out["uid"]) == [1, 3, 0, 2, 4]

    def test_is_sorted(self):
        fmt = RecordFormat("u8", 32)
        assert fmt.is_sorted(fmt.make(np.array([1, 1, 2])))
        assert not fmt.is_sorted(fmt.make(np.array([2, 1])))
        assert fmt.is_sorted(fmt.empty(0))
        assert fmt.is_sorted(fmt.make(np.array([5])))


def _key_cases(dtype: np.dtype, n: int, seed: int) -> dict[str, np.ndarray]:
    """Key arrays of every shape the order kernel must get exactly
    right, as ``dtype``."""
    rng = np.random.default_rng(seed)
    if dtype.kind == "f":
        uniform = rng.standard_normal(n) * 1e6
    else:
        info = np.iinfo(dtype)
        uniform = rng.integers(info.min, info.max, n, dtype=dtype, endpoint=True)
    uniform = uniform.astype(dtype)
    return {
        "uniform": uniform,
        "all-equal": np.full(n, 7, dtype=dtype),
        "zipf": np.minimum(rng.zipf(1.3, n), 1000).astype(dtype),
        "sorted": np.sort(uniform),
        "reversed": np.sort(uniform)[::-1].copy(),
        "two-values": rng.integers(0, 2, n).astype(dtype),
    }


class TestStableOrderKernel:
    """`stable_argsort` is the stable order itself, not an
    approximation: element for element ``np.argsort(kind="stable")``."""

    @pytest.mark.parametrize("key", sorted(KEY_DTYPES))
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 257, 4096])
    def test_equals_numpy_stable_argsort(self, key, n):
        for name, keys in _key_cases(KEY_DTYPES[key], n, seed=n).items():
            want = np.argsort(keys, kind="stable")
            got = stable_argsort(keys)
            assert got.dtype == np.intp
            assert np.array_equal(got, want), (key, n, name)
            # The way pass bodies call it: the strided key field.
            recs = RecordFormat(key, 32).make(keys)
            assert np.array_equal(RecordFormat.argsort(recs), want), (key, n, name)
            assert np.array_equal(stable_argsort(keys[::2]),
                                  np.argsort(keys[::2], kind="stable"))

    def test_float_nan_and_signed_zero(self):
        rng = np.random.default_rng(5)
        keys = rng.choice(
            np.array([np.nan, 0.0, -0.0, 1.5, -np.inf, np.inf, -2.0]), 500
        )
        assert np.array_equal(stable_argsort(keys), np.argsort(keys, kind="stable"))
        no_nan = keys[~np.isnan(keys)]  # ±0.0 tie: the repair path, not the fallback
        assert np.array_equal(
            stable_argsort(no_nan), np.argsort(no_nan, kind="stable")
        )

    def test_uid_field_and_other_dtypes(self):
        uids = np.random.default_rng(6).permutation(1000).astype("<u8")
        assert np.array_equal(stable_argsort(uids), np.argsort(uids, kind="stable"))
        names = np.array(["b", "a", "b", "a"])
        assert np.array_equal(stable_argsort(names), [1, 3, 0, 2])

    @pytest.mark.parametrize("size", [16, 64, 128, 20])  # 20: not 8-byte words
    @pytest.mark.parametrize("method", ["sort", "merge_runs"])
    def test_sort_into_lease_is_byte_identical(self, size, method):
        fmt = RecordFormat("u4" if size == 20 else "u8", size)
        keys = _key_cases(fmt.key_dtype, 1024, seed=size)["zipf"]
        # Random bytes in every field, so a gather that dropped or
        # misplaced any byte of a record would show.
        noise = np.random.default_rng(size).integers(
            0, 256, len(keys) * size, dtype=np.uint8
        )
        recs = noise.view(fmt.dtype)
        recs["key"] = keys
        if method == "merge_runs":  # its contract: sorted runs end to end
            recs = np.concatenate([fmt.sort(recs[:512]), fmt.sort(recs[512:])])
        want = recs[np.argsort(recs["key"], kind="stable")].tobytes()
        kernel = getattr(fmt, method)
        assert kernel(recs).tobytes() == want
        lease = get_pool().lease(fmt.dtype, len(recs))
        try:
            assert kernel(recs, out=lease) is lease
            assert lease.tobytes() == want
        finally:
            get_pool().recycle(lease)
        # A non-contiguous source moves through the same item view.
        strided = np.concatenate([recs, recs])[::2]
        assert fmt.sort(strided).tobytes() == (
            strided[np.argsort(strided["key"], kind="stable")].tobytes()
        )


#: 12 bytes (a ``u4`` key and the uid, no pad), 20 and 100 (not whole
#: 8-byte words) and 64 (the benchmark's records).
ITEM_FORMATS = {
    12: RecordFormat("u4", 12),
    20: RecordFormat("u4", 20),
    64: RecordFormat("u8", 64),
    100: RecordFormat("u8", 100),
}

#: Every shape in which the data plane copies records, over 64 records.
COPY_SHAPES = {
    "contiguous": lambda a: a[3:35],
    "strided": lambda a: a[1::4],  # col[q::p]
    "transposed": lambda a: a.reshape(8, 8).T,  # reshape(b, m).T
    "class_gather": lambda a: a.reshape(16, 4)[:, [3, 0]].T,  # subblock class
    "empty": lambda a: a[:0],
}


def _noise_records(fmt: RecordFormat, n: int, seed: int) -> np.ndarray:
    """``n`` records with random bytes in every field, so a copy that
    dropped or misplaced any byte of a record would show."""
    noise = np.random.default_rng(seed).integers(
        0, 256, n * fmt.record_size, dtype=np.uint8
    )
    return noise.view(fmt.dtype)


@pytest.mark.parametrize("size", sorted(ITEM_FORMATS))
@pytest.mark.parametrize("shape", sorted(COPY_SHAPES))
class TestItemCopies:
    """A record moved as one opaque item (``RecordFormat.items``) lands
    the bytes NumPy's structured copy lands, in every copy shape."""

    def _source(self, size, shape):
        fmt = ITEM_FORMATS[size]
        return fmt, COPY_SHAPES[shape](_noise_records(fmt, 64, seed=size))

    def test_item_copy(self, size, shape):
        fmt, src = self._source(size, shape)
        want = np.empty(src.shape, fmt.dtype)
        want[...] = src
        got = np.empty(src.shape, fmt.dtype)
        fmt.items(got)[...] = fmt.items(src)
        assert got.tobytes() == want.tobytes()
        packed = np.ascontiguousarray(fmt.items(src)).view(fmt.dtype)
        assert packed.dtype == fmt.dtype
        assert packed.tobytes() == np.ascontiguousarray(src).tobytes()

    def test_concat_records(self, size, shape):
        fmt, src = self._source(size, shape)
        parts = [src, fmt.items(src)[::-1].view(fmt.dtype)]
        got = concat_records(parts)
        want = np.concatenate(parts)
        assert got.dtype == fmt.dtype
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_take_records(self, size, shape):
        fmt, src = self._source(size, shape)
        flat = src.reshape(-1)
        order = np.random.default_rng(size).permutation(len(flat))
        want = flat[order].tobytes()
        assert take_records(flat, order).tobytes() == want
        # Into a strided ``out=`` too.
        out = fmt.empty(2 * len(flat))[::2]
        assert take_records(flat, order, out) is out
        assert out.tobytes() == want


def test_items_passes_non_record_arrays_through():
    words = np.arange(6, dtype=np.uint64)
    assert RecordFormat.items(words) is words
    assert concat_records([words, words]).tolist() == words.tolist() * 2


@pytest.mark.parametrize(
    "algorithm, backend",
    [(algorithm, "thread") for algorithm in sorted(SHAPES)]
    + [("threaded", b) for b in available_backends() if b != "thread"],
)
def test_sort_of_records_not_a_multiple_of_8_bytes(algorithm, backend):
    # 100-byte records: no row of 8-byte words holds one, so every copy
    # and gather of the sort moves them as opaque items.
    fmt = RecordFormat("u8", 100)
    n, buffer = SHAPES[algorithm]
    records = generate("uniform", fmt, n, seed=7)
    keys = records["key"]
    assert len(np.unique(keys)) == len(keys)  # so the oracle is exact
    result = sort_out_of_core(
        algorithm, records, ClusterConfig(p=4, mem_per_proc=2**16), fmt,
        buffer_records=buffer, backend=backend,
        group_size=2 if algorithm == "g" else None,
    )
    got = result.output.read_global(0, n).tobytes()
    result.output.delete()
    assert got == records[np.argsort(keys, kind="stable")].tobytes()
