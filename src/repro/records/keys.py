"""Key dtypes and sentinel values.

Columnsort's steps 6-8 pad the matrix with ``-inf`` and ``+inf`` keys.
With integer keys there is no true infinity, so we use the dtype's extreme
values together with *stable* sorting: padding records are prepended
(for ``-inf``) or appended (for ``+inf``) to the data they pad, so after a
stable sort they remain outside the retained slice even when real keys
collide with the sentinel values. No key values need to be reserved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Key dtypes supported by :class:`~repro.records.format.RecordFormat`.
KEY_DTYPES: dict[str, np.dtype] = {
    "u4": np.dtype("<u4"),
    "u8": np.dtype("<u8"),
    "i4": np.dtype("<i4"),
    "i8": np.dtype("<i8"),
    "f8": np.dtype("<f8"),
}


@dataclass(frozen=True)
class KeyInfo:
    """Resolved information about a key dtype."""

    name: str
    dtype: np.dtype
    min_value: object
    max_value: object

    @property
    def itemsize(self) -> int:
        return self.dtype.itemsize


def _extremes(dtype: np.dtype) -> tuple[object, object]:
    if dtype.kind in "iu":
        info = np.iinfo(dtype)
        return info.min, info.max
    if dtype.kind == "f":
        return -np.inf, np.inf
    raise TypeError(f"unsupported key dtype: {dtype}")


def key_info(name_or_dtype: str | np.dtype) -> KeyInfo:
    """Resolve a key dtype name (or dtype) to a :class:`KeyInfo`.

    >>> key_info("u8").itemsize
    8
    """
    if isinstance(name_or_dtype, str):
        try:
            dtype = KEY_DTYPES[name_or_dtype]
        except KeyError:
            raise TypeError(
                f"unknown key dtype {name_or_dtype!r}; "
                f"expected one of {sorted(KEY_DTYPES)}"
            ) from None
        name = name_or_dtype
    else:
        dtype = np.dtype(name_or_dtype)
        for candidate, dt in KEY_DTYPES.items():
            if dt == dtype:
                name = candidate
                break
        else:
            raise TypeError(f"unsupported key dtype: {dtype}")
    lo, hi = _extremes(dtype)
    return KeyInfo(name=name, dtype=dtype, min_value=lo, max_value=hi)
