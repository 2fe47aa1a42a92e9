"""Power-of-two arithmetic and bit-field helpers.

The out-of-core columnsort implementations assume every configuration
parameter is a power of 2 (paper §2), and subblock columnsort further
requires ``s`` to be a power of 4 so that ``√s`` is an integer power of 2.
The subblock permutation itself is a *bit permutation* of the (row,
column) index pair (paper Figure 1); the helpers here extract and deposit
the bit fields it shuffles.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DimensionError


def is_power_of_two(n: int) -> bool:
    """Whether ``n`` is a positive power of two (1 counts).

    >>> [is_power_of_two(n) for n in (0, 1, 2, 3, 4)]
    [False, True, True, False, True]
    """
    return n > 0 and (n & (n - 1)) == 0


def is_power_of_four(n: int) -> bool:
    """Whether ``n`` is a positive power of four (1 counts).

    >>> [is_power_of_four(n) for n in (1, 2, 4, 8, 16, 64)]
    [True, False, True, False, True, True]
    """
    return is_power_of_two(n) and (n.bit_length() - 1) % 2 == 0


def ilog2(n: int) -> int:
    """``lg n`` for a power of two ``n``.

    >>> ilog2(1), ilog2(8)
    (0, 3)
    """
    if not is_power_of_two(n):
        raise DimensionError(f"{n} is not a power of two")
    return n.bit_length() - 1


def sqrt_pow4(n: int) -> int:
    """``√n`` for a power of four ``n`` (always an integral power of 2).

    >>> sqrt_pow4(16), sqrt_pow4(64)
    (4, 8)
    """
    if not is_power_of_four(n):
        raise DimensionError(f"{n} is not a power of four")
    return 1 << (ilog2(n) // 2)


def extract_bits(value: np.ndarray | int, lo: int, width: int) -> np.ndarray | int:
    """Bits ``lo .. lo+width-1`` of ``value`` (bit 0 = least significant).

    Works elementwise on arrays. ``width == 0`` yields 0.

    >>> extract_bits(0b101100, 2, 3)
    3
    """
    if width == 0:
        return value & 0 if isinstance(value, np.ndarray) else 0
    mask = (1 << width) - 1
    return (value >> lo) & mask
