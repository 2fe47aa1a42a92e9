"""Dimension restrictions for columnsort variants.

Basic columnsort (Leighton) requires, for an ``r × s`` matrix:

* ``s | r``;
* the *height restriction* ``r ≥ 2s²`` (the paper deliberately uses this
  simpler, more stringent form of Leighton's ``r ≥ 2(s−1)²``).

Subblock columnsort relaxes the height restriction by a factor of
``√s / 2`` to ``r ≥ 4·s^(3/2)``, at the price of requiring ``s`` to be a
power of 4 (so that ``√s`` is an integer in the power-of-two world of the
out-of-core setting).

The out-of-core implementations additionally require ``r`` and ``s`` to be
powers of 2 (paper §2); :func:`out_of_core_shape` resolves and checks
the ``r × s`` matrix of every out-of-core program from its point on the
grid *height interpretation* ``r = g·M/P`` × *height restriction*.
"""

from __future__ import annotations

from repro.errors import ConfigError, DimensionError
from repro.matrix.bits import ilog2, is_power_of_four, is_power_of_two, sqrt_pow4


def basic_height_ok(r: int, s: int) -> bool:
    """Whether ``r ≥ 2s²`` holds.

    >>> basic_height_ok(512, 16), basic_height_ok(511, 16)
    (True, False)
    """
    return r >= 2 * s * s


def subblock_height_ok(r: int, s: int) -> bool:
    """Whether ``r ≥ 4·s^(3/2)`` holds (`s` must be a power of 4 for the
    bound to be meaningful; this predicate checks only the inequality,
    exactly, in integer arithmetic: ``r² ≥ 16·s³``)."""
    return r * r >= 16 * s**3


def validate_basic(r: int, s: int, *, powers_of_two: bool = False) -> None:
    """Raise :class:`DimensionError` unless ``r × s`` is legal for basic
    columnsort. With ``powers_of_two=True`` also require ``r`` and ``s``
    to be powers of 2 (the out-of-core setting)."""
    if r <= 0 or s <= 0:
        raise DimensionError(f"dimensions must be positive, got r={r}, s={s}")
    if r % s:
        raise DimensionError(f"s must divide r, got r={r}, s={s}")
    if not basic_height_ok(r, s):
        raise DimensionError(
            f"height restriction violated: r={r} < 2s²={2 * s * s} "
            f"(basic columnsort requires r ≥ 2s²)"
        )
    if powers_of_two and not (is_power_of_two(r) and is_power_of_two(s)):
        raise DimensionError(
            f"out-of-core setting requires power-of-2 dimensions, got r={r}, s={s}"
        )


def validate_subblock(r: int, s: int, *, powers_of_two: bool = True) -> None:
    """Raise :class:`DimensionError` unless ``r × s`` is legal for subblock
    columnsort: ``s | r``, ``√s | r``, ``s`` a power of 4, and
    ``r ≥ 4·s^(3/2)``."""
    if r <= 0 or s <= 0:
        raise DimensionError(f"dimensions must be positive, got r={r}, s={s}")
    if not is_power_of_four(s):
        raise DimensionError(
            f"subblock columnsort requires s to be a power of 4, got s={s}"
        )
    if r % s:
        raise DimensionError(f"s must divide r, got r={r}, s={s}")
    if powers_of_two and not is_power_of_two(r):
        raise DimensionError(f"r must be a power of 2, got r={r}")
    if r % sqrt_pow4(s):
        raise DimensionError(f"√s={sqrt_pow4(s)} must divide r, got r={r}")
    if not subblock_height_ok(r, s):
        t = sqrt_pow4(s)
        raise DimensionError(
            f"relaxed height restriction violated: r={r} < 4·s^(3/2)={4 * s * t} "
            f"(subblock columnsort requires r ≥ 4·s^(3/2))"
        )


def column_layout(n: int, p: int, buffer_records: int, g: int = 1) -> tuple[int, int]:
    """``(r, s)`` of ``N`` records under the height interpretation
    ``r = g·buffer``: ``P/g`` groups of ``g`` processors, each column
    owned by one group and striped over its members. Checks what the
    layout alone needs — no height restriction (the I/O-only baseline's
    analytic trace stops here)."""
    for name, value in (("N", n), ("P", p), ("buffer", buffer_records)):
        if not is_power_of_two(value):
            raise ConfigError(f"{name} must be a power of 2, got {value}")
    if not is_power_of_two(g) or g > p:
        raise ConfigError(f"group size g={g} must be a power of 2 with g ≤ P={p}")
    r = g * buffer_records
    if n % r:
        raise ConfigError(
            f"column height r=g·buffer={r} (g={g}) must divide N={n}"
        )
    s = n // r
    groups = p // g
    if s < groups or s % groups:
        raise ConfigError(
            f"need at least P/g={groups} columns with P/g | s, got s={s} "
            f"(N={n}, r={r})"
        )
    return r, s


def out_of_core_shape(
    n: int, p: int, buffer_records: int, g: int, relaxed: bool = False
) -> tuple[int, int]:
    """Resolve and validate the ``r × s`` matrix of an out-of-core job.

    The five programs are points on a grid: the height interpretation
    ``r = g·buffer`` (``g = 1`` threaded/subblock, ``g = P``
    M-columnsort/hybrid §4, in between §6) × the height restriction
    (``r ≥ 2s²``, or with ``relaxed`` subblock's ``r ≥ 4·s^(3/2)`` with
    ``s`` a power of 4, §3). For ``g ≥ 2`` the sort stage is a
    distributed in-core columnsort on a ``buffer × g`` matrix, so
    ``buffer ≥ 2g²``, and ``s | buffer`` keeps every round's delivery
    even. Layout violations raise :class:`ConfigError`, restrictions
    :class:`DimensionError`.
    """
    r, s = column_layout(n, p, buffer_records, g)
    try:
        (validate_subblock if relaxed else validate_basic)(r, s)
    except DimensionError as exc:
        # Taller, fewer columns are the way out of either restriction.
        hint = "; try a larger group size" if g < p else ""
        raise DimensionError(
            f"{exc} — N={n} under the height interpretation r=g·buffer, "
            f"g={g}{hint}"
        ) from None
    if g >= 2:
        if buffer_records < 2 * g * g:
            raise DimensionError(
                f"in-core height restriction violated: r/g={buffer_records} < "
                f"2g²={2 * g * g} (the sort stage's distributed columnsort)"
            )
        if buffer_records % s:
            raise ConfigError(
                f"s={s} must divide the per-rank portion r/g={buffer_records} "
                "for even per-round delivery"
            )
    return r, s


def max_s_basic(r: int) -> int:
    """The largest power-of-2 ``s`` legal for basic columnsort at height
    ``r`` (a power of 2): ``s = 2^⌊(lg r − 1)/2⌋``.

    >>> max_s_basic(512)
    16
    """
    a = ilog2(r)
    if a < 1:
        raise DimensionError(f"r={r} too small for any s ≥ 1 with r ≥ 2s²")
    return 1 << ((a - 1) // 2)


def max_s_subblock(r: int) -> int:
    """The largest power-of-4 ``s`` legal for subblock columnsort at
    height ``r`` (a power of 2): ``s = 4^⌊(lg r − 2)/3⌋``.

    >>> max_s_subblock(256), max_s_subblock(2048)
    (16, 64)
    """
    a = ilog2(r)
    if a < 2:
        raise DimensionError(f"r={r} too small for any s ≥ 1 with r ≥ 4·s^(3/2)")
    return 1 << (2 * ((a - 2) // 3))
