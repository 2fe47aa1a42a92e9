"""Fixed-size record formats.

A record is ``key | uid | padding``:

* ``key`` — the sort key (one of :data:`~repro.records.keys.KEY_DTYPES`);
* ``uid`` — a 64-bit unsigned "record identity" stamped at generation time
  with the record's original index. Columnsort never looks at it, but the
  verification layer uses it to prove that an output is a true permutation
  of its input (the paper verified output files the same way, by keeping
  the original data files around — see §5, footnote 7);
* ``padding`` — opaque filler bringing the record up to ``record_size``
  bytes (the paper used 64- to 128-byte records).

Records are represented as NumPy structured arrays so that disk I/O is a
straight ``tobytes``/``frombuffer`` of the underlying buffer. A record is
moved as one opaque item (:meth:`RecordFormat.items`); only the sort
kernels look inside it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigError
from repro.membuf.copystats import copy_stats
from repro.records.keys import KeyInfo, key_info

_UID_DTYPE = np.dtype("<u8")


@dataclass(frozen=True)
class RecordFormat:
    """A fixed-size record layout.

    Parameters
    ----------
    key:
        Key dtype name (``"u8"``, ``"i8"``, ``"f8"``, ``"u4"``, ``"i4"``).
    record_size:
        Total record size in bytes. Must be at least key size + 8 (for the
        uid field). The paper's experiments used 64 and 128.

    >>> fmt = RecordFormat("u8", 64)
    >>> fmt.dtype.itemsize
    64
    """

    key: str = "u8"
    record_size: int = 64
    _info: KeyInfo = field(init=False, repr=False, compare=False)
    _dtype: np.dtype = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        info = key_info(self.key)
        overhead = info.itemsize + _UID_DTYPE.itemsize
        if self.record_size < overhead:
            raise ConfigError(
                f"record_size={self.record_size} too small for a "
                f"{self.key} key plus 8-byte uid ({overhead} bytes minimum)"
            )
        pad = self.record_size - overhead
        fields: list[tuple[str, object]] = [
            ("key", info.dtype),
            ("uid", _UID_DTYPE),
        ]
        if pad:
            fields.append(("pad", np.dtype(f"V{pad}")))
        object.__setattr__(self, "_info", info)
        object.__setattr__(self, "_dtype", np.dtype(fields))

    # -- basic properties ------------------------------------------------

    @property
    def dtype(self) -> np.dtype:
        """The structured dtype of one record."""
        return self._dtype

    @property
    def key_dtype(self) -> np.dtype:
        return self._info.dtype

    @property
    def key_min(self) -> object:
        """The ``-inf`` sentinel key."""
        return self._info.min_value

    @property
    def key_max(self) -> object:
        """The ``+inf`` sentinel key."""
        return self._info.max_value

    def nbytes(self, n: int) -> int:
        """Bytes occupied by ``n`` records."""
        return n * self.record_size

    def count(self, nbytes: int) -> int:
        """Number of whole records in ``nbytes`` bytes."""
        if nbytes % self.record_size:
            raise ConfigError(
                f"{nbytes} bytes is not a whole number of "
                f"{self.record_size}-byte records"
            )
        return nbytes // self.record_size

    # -- constructors ----------------------------------------------------

    def empty(self, n: int) -> np.ndarray:
        """An uninitialized array of ``n`` records."""
        return np.empty(n, dtype=self._dtype)

    def make(
        self,
        keys: np.ndarray,
        uids: np.ndarray | None = None,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Build records from an array of keys (and optional uids), in
        ``out`` (zeroed records of the same length) when given.

        When ``uids`` is omitted, records are stamped ``0..n-1``.
        """
        keys = np.asarray(keys)
        if out is None:
            out = np.zeros(len(keys), dtype=self._dtype)
        out["key"] = keys.astype(self._info.dtype, copy=False)
        out["uid"] = (
            np.arange(len(keys), dtype=_UID_DTYPE)
            if uids is None
            else np.asarray(uids, dtype=_UID_DTYPE)
        )
        return out

    def pad_low(self, n: int) -> np.ndarray:
        """``n`` records of ``-inf`` keys (columnsort step-6 top padding)."""
        out = np.zeros(n, dtype=self._dtype)
        out["key"] = self.key_min
        return out

    def pad_high(self, n: int) -> np.ndarray:
        """``n`` records of ``+inf`` keys (columnsort step-6 bottom padding)."""
        out = np.zeros(n, dtype=self._dtype)
        out["key"] = self.key_max
        return out

    # -- (de)serialization ------------------------------------------------

    def to_bytes(self, records: np.ndarray) -> bytes:
        """Serialize records to their on-disk byte representation."""
        out = np.ascontiguousarray(records, dtype=self._dtype).tobytes()
        copy_stats().record_copy(len(out))
        return out

    def wire_views(self, arrays) -> list[np.ndarray | bytes]:
        """The on-disk byte representation of each record array: the
        array itself when it is C-contiguous in this format's dtype (the
        zero-copy write path, metered once for the whole list — a
        buffer ``pwrite`` and the CRC read in place), else a serialized
        copy."""
        views = []
        zero_copy = 0
        dtype = self._dtype
        for records in arrays:
            if (
                isinstance(records, np.ndarray)
                and records.dtype == dtype
                and records.flags.c_contiguous
            ):
                zero_copy += records.nbytes
                views.append(records)
            else:
                views.append(self.to_bytes(records))
        if zero_copy:
            copy_stats().record_zero_copy(zero_copy)
        return views

    # -- moving records ----------------------------------------------------

    @staticmethod
    def items(arr: np.ndarray) -> np.ndarray:
        """``arr`` with each record as one opaque item: a
        ``np.dtype((np.void, record_size))`` view of the same memory, at
        the same shape and strides. Arrays that do not hold records (no
        fields) pass through unchanged.

        Every record copy on the data plane goes through this view:
        NumPy copies a structured record field by field, but an opaque
        item as one block (1.5–5× faster for 64-byte records), and the
        bytes that land are the same.
        """
        if arr.dtype.names is None:
            return arr
        return arr.view(_item_dtype(arr.dtype.itemsize))

    # -- sorting helpers ---------------------------------------------------
    #
    # Static: the kernels read only the array they are given (its ``key``
    # field and item size), so helpers that hold records but no format
    # (``matrix.layout.sort_columns``, the bitonic merge in
    # ``oocs.incore.bitonic``) call the same code as ``fmt.sort(col)``.

    @staticmethod
    def argsort(records: np.ndarray) -> np.ndarray:
        """Stable argsort of records by key.

        Stability is load-bearing: the ±∞ padding discipline of columnsort
        steps 6-8 relies on padding records not crossing equal-keyed data
        records (see :mod:`repro.records.keys`). It is bought after the
        fact rather than by a stable algorithm — see
        :func:`stable_argsort`.
        """
        return stable_argsort(records["key"])

    @staticmethod
    def sort(records: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Return records stably sorted by key — in ``out`` (e.g. a pool
        lease of the same length) when given, else in a fresh array."""
        return take_records(records, stable_argsort(records["key"]), out)

    @staticmethod
    def merge_runs(records: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """:meth:`sort` for records known to be a few key-sorted runs laid
        end to end (the two half-columns of a step-7 window, the ``P``
        received slices of an in-core step 3): timsort finds the runs
        and merges them in one pass, which beats sorting from scratch."""
        order = np.argsort(np.ascontiguousarray(records["key"]), kind="stable")
        return take_records(records, order, out)


@functools.cache
def _item_dtype(record_size: int) -> np.dtype:
    """The opaque item of :meth:`RecordFormat.items` (built once: a
    dtype costs more to construct than the view it serves)."""
    return np.dtype((np.void, record_size))


def stable_argsort(values: np.ndarray) -> np.ndarray:
    """Element for element ``np.argsort(values, kind="stable")``, faster.

    NumPy's default ``argsort`` of a contiguous 4- or 8-byte array is a
    vectorized quicksort several times faster than its stable timsort,
    but orders equal values arbitrarily. So: sort with it, look for
    ties, and only when there are any repair them by sorting the words
    ``(dense rank of the value << 32) | index`` — within a group of equal
    values that is ascending index order, which is what stable means.
    Where that is not exact (float NaNs compare unequal to themselves,
    an index ≥ 2³² does not fit the low word, a non-numeric dtype) the
    stable sort itself runs.
    """
    keys = np.ascontiguousarray(values)
    n = len(keys)
    kind = keys.dtype.kind
    if n >= 1 << 32 or not (
        kind in "iu" or (kind == "f" and not np.isnan(keys).any())
    ):
        return np.argsort(keys, kind="stable")
    order = np.argsort(keys)
    in_order = keys[order]
    ties = in_order[1:] == in_order[:-1]
    if not ties.any():
        return order
    packed = np.zeros(n, dtype=np.uint64)
    np.cumsum(~ties, dtype=np.uint64, out=packed[1:])
    packed <<= np.uint64(32)
    packed |= order.view(np.uint64)  # indices are non-negative
    packed.sort()
    packed &= np.uint64(0xFFFFFFFF)
    return packed.view(np.intp)


def concat_records(arrays: list[np.ndarray]) -> np.ndarray:
    """``np.concatenate(arrays)`` for arrays of one record dtype, each
    record moved as one item (:meth:`RecordFormat.items`)."""
    out = np.concatenate([RecordFormat.items(a) for a in arrays])
    return out.view(arrays[0].dtype)


def take_records(
    records: np.ndarray, order: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """``records[order]`` for a permutation ``order``, written into
    ``out`` when given.

    One ``np.take`` of opaque items (:meth:`RecordFormat.items`), so
    whole records move as blocks at any record size. ``mode="clip"``
    skips the bounds pass and the buffered copy ``np.take`` otherwise
    makes for ``out=``; ``order`` comes from an argsort, so nothing is
    clipped.
    """
    if out is None:
        out = np.empty(len(records), dtype=records.dtype)
    np.take(
        RecordFormat.items(records), order,
        out=RecordFormat.items(out), mode="clip",
    )
    return out
