"""Conversions between flat record arrays and ``r × s`` matrices, and
per-column sorting that works uniformly for plain key arrays and
structured record arrays.

Columnsort's contract is stated over the column-major order of the
matrix: the input is the flat sequence ``column 0, column 1, …`` and the
output is sorted in that same order. The out-of-core programs never
materialize the full matrix, but the in-core algorithms and the test
oracles do, via these helpers.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DimensionError
from repro.records.format import RecordFormat


def to_columns(flat: np.ndarray, r: int, s: int) -> np.ndarray:
    """View a flat column-major array of ``r·s`` elements as an ``(r, s)``
    matrix (copies, since NumPy arrays here are C-ordered)."""
    if flat.ndim != 1 or len(flat) != r * s:
        raise DimensionError(
            f"expected a flat array of r*s={r * s} elements, got shape {flat.shape}"
        )
    return flat.reshape(s, r).T.copy()


def from_columns(matrix: np.ndarray) -> np.ndarray:
    """Flatten an ``(r, s)`` matrix to column-major order — the inverse of
    :func:`to_columns`."""
    if matrix.ndim != 2:
        raise DimensionError(f"expected a 2-D matrix, got shape {matrix.shape}")
    return matrix.flatten(order="F")


def _is_record_array(a: np.ndarray) -> bool:
    return a.dtype.names is not None and "key" in a.dtype.names


def sort_columns(matrix: np.ndarray) -> np.ndarray:
    """Stably sort every column of an ``(r, s)`` matrix (columnsort steps
    1, 3, 3.2, 5, and 7).

    For structured record arrays sorting is by the ``key`` field only:
    stability among equal keys is what keeps the ±∞ padding of steps 6-8
    outside the retained output (see :mod:`repro.records.keys`).
    """
    if matrix.ndim != 2:
        raise DimensionError(f"expected a 2-D matrix, got shape {matrix.shape}")
    if _is_record_array(matrix):
        order = np.stack(
            [RecordFormat.argsort(matrix[:, j]) for j in range(matrix.shape[1])],
            axis=1,
        )
        return np.take_along_axis(matrix, order, axis=0)
    return np.sort(matrix, axis=0, kind="stable")


def is_sorted_columnwise(matrix: np.ndarray) -> bool:
    """Whether every column of the matrix is in nondecreasing order."""
    keys = matrix["key"] if _is_record_array(matrix) else matrix
    if keys.shape[0] < 2:
        return True
    return bool(np.all(keys[:-1, :] <= keys[1:, :]))


def is_sorted_column_major(matrix: np.ndarray) -> bool:
    """Whether the matrix is fully sorted in column-major order — the
    postcondition of columnsort."""
    keys = matrix["key"] if _is_record_array(matrix) else matrix
    flat = keys.flatten(order="F")
    if len(flat) < 2:
        return True
    return bool(np.all(flat[:-1] <= flat[1:]))
