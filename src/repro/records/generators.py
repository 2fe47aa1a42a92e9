"""Workload generators.

Columnsort's I/O and communication patterns are oblivious to key values
(paper §2), but its *correctness* must hold for every input, and local
sort times do vary with input shape. The test suite, examples, and
benchmark harness therefore draw inputs from a family of generators
covering the usual sorting stress cases.

Every generator stamps record ``uid`` fields with ``0..n-1`` so the
verification layer can prove outputs are permutations of inputs.
Records are filled :data:`CHUNK_RECORDS` at a time: beyond the record
array itself, only the generators that sort their keys hold an N-long
(key) array.
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

from repro.errors import ConfigError
from repro.records.format import RecordFormat

#: A workload's ``n`` keys in order, in pieces of at most
#: :data:`CHUNK_RECORDS` (:func:`generate` stamps them into records).
Keys = Iterator[np.ndarray]
GeneratorFn = Callable[[RecordFormat, int, np.random.Generator], Keys]

WORKLOADS: dict[str, GeneratorFn] = {}

#: Records :func:`generate` fills per step. Draws are taken in this
#: order and size; every draw kind used here (full-range integers,
#: small bounded integers, normals, Zipf ranks) gives the same stream
#: whether taken whole or in pieces, so the records do not depend on it.
CHUNK_RECORDS = 1 << 15


def _register(name: str) -> Callable[[GeneratorFn], GeneratorFn]:
    def deco(fn: GeneratorFn) -> GeneratorFn:
        WORKLOADS[name] = fn
        return fn

    return deco


def _spans(n: int) -> Iterator[tuple[int, int]]:
    """``[start, stop)`` of each :data:`CHUNK_RECORDS` piece of ``n``."""
    for start in range(0, n, CHUNK_RECORDS):
        yield start, min(n, start + CHUNK_RECORDS)


def _pieces(keys: np.ndarray) -> Keys:
    """An N-long key array in :data:`CHUNK_RECORDS` views."""
    for start, stop in _spans(len(keys)):
        yield keys[start:stop]


def _key_span(fmt: RecordFormat) -> tuple[float, float]:
    """A comfortable key range for random draws, avoiding dtype extremes
    only to keep printed examples readable (extremes are still legal)."""
    if fmt.key_dtype.kind == "f":
        return -1e9, 1e9
    info = np.iinfo(fmt.key_dtype)
    return float(info.min), float(info.max)


def _random_keys(fmt: RecordFormat, n: int, rng: np.random.Generator) -> np.ndarray:
    if fmt.key_dtype.kind == "f":
        keys = rng.standard_normal(n)
        keys *= 1e6
        return keys
    info = np.iinfo(fmt.key_dtype)
    return rng.integers(info.min, info.max, size=n, endpoint=True, dtype=fmt.key_dtype)


def _sorted_keys(fmt: RecordFormat, n: int, rng: np.random.Generator) -> np.ndarray:
    keys = _random_keys(fmt, n, rng)
    keys.sort()
    return keys


def _scaled(base: np.ndarray, scale: float, fmt: RecordFormat) -> np.ndarray:
    """Integer ramp values mapped into the middle half of the key range."""
    lo, _hi = _key_span(fmt)
    return (base * scale + lo / 4).astype(fmt.key_dtype)


@_register("uniform")
def uniform(fmt: RecordFormat, n: int, rng: np.random.Generator) -> Keys:
    """Keys drawn uniformly over the full key range."""
    for start, stop in _spans(n):
        yield _random_keys(fmt, stop - start, rng)


@_register("sorted")
def already_sorted(fmt: RecordFormat, n: int, rng: np.random.Generator) -> Keys:
    """Keys already in nondecreasing order (best case for merging sorts)."""
    yield from _pieces(_sorted_keys(fmt, n, rng))


@_register("reverse")
def reverse_sorted(fmt: RecordFormat, n: int, rng: np.random.Generator) -> Keys:
    """Keys in nonincreasing order."""
    yield from _pieces(_sorted_keys(fmt, n, rng)[::-1])


@_register("nearly-sorted")
def nearly_sorted(fmt: RecordFormat, n: int, rng: np.random.Generator) -> Keys:
    """Sorted keys with ~1% of positions perturbed by random swaps."""
    keys = _sorted_keys(fmt, n, rng)
    swaps = max(1, n // 100)
    a = rng.integers(0, n, size=swaps)
    b = rng.integers(0, n, size=swaps)
    keys[a], keys[b] = keys[b].copy(), keys[a].copy()
    yield from _pieces(keys)


@_register("duplicates")
def duplicate_heavy(fmt: RecordFormat, n: int, rng: np.random.Generator) -> Keys:
    """Only ~16 distinct key values — stresses stability and tie handling."""
    distinct = _random_keys(fmt, 16, rng)
    for start, stop in _spans(n):
        yield distinct[rng.integers(0, len(distinct), size=stop - start)]


@_register("all-equal")
def all_equal(fmt: RecordFormat, n: int, rng: np.random.Generator) -> Keys:
    """Every key identical — a degenerate tie-only input."""
    key = _random_keys(fmt, 1, rng)
    for start, stop in _spans(n):
        yield np.broadcast_to(key, (stop - start,))


@_register("gaussian")
def gaussian(fmt: RecordFormat, n: int, rng: np.random.Generator) -> Keys:
    """Keys clustered around the middle of the key range."""
    lo, hi = _key_span(fmt)
    mid = (lo + hi) / 2.0
    spread = (hi - lo) / 64.0
    for start, stop in _spans(n):
        vals = rng.standard_normal(stop - start) * spread + mid
        yield np.clip(vals, lo, hi).astype(fmt.key_dtype)


@_register("zipf")
def zipf(fmt: RecordFormat, n: int, rng: np.random.Generator) -> Keys:
    """Zipf-distributed keys — a heavily skewed value histogram, the shape
    that breaks naive distribution sorts (relevant to the §6 future-work
    distribution-based sort stage)."""
    lo, hi = _key_span(fmt)
    for start, stop in _spans(n):
        ranks = rng.zipf(1.3, size=stop - start).astype(np.float64)
        vals = np.minimum(ranks, 1e6) / 1e6 * (hi - lo) / 2 + lo
        yield vals.astype(fmt.key_dtype)


@_register("sawtooth")
def sawtooth(fmt: RecordFormat, n: int, rng: np.random.Generator) -> Keys:
    """Repeating ascending runs — adversarial for run-detecting merges."""
    period = max(2, n // 64)
    lo, hi = _key_span(fmt)
    # Stay well inside the dtype range: casting a float equal to the
    # integer maximum overflows (floats round up at 2^64).
    scale = (hi - lo) / 4 / max(period - 1, 1)
    for start, stop in _spans(n):
        yield _scaled(np.arange(start, stop, dtype=np.int64) % period, scale, fmt)


@_register("organ-pipe")
def organ_pipe(fmt: RecordFormat, n: int, rng: np.random.Generator) -> Keys:
    """Ascending then descending — every element far from its final home."""
    half = n // 2
    lo, hi = _key_span(fmt)
    scale = (hi - lo) / 4 / max(n, 1)
    for start, stop in _spans(n):
        index = np.arange(start, stop, dtype=np.int64)
        # 0, 1, …, half-1, then n-half-1, …, 1, 0
        yield _scaled(np.where(index < half, index, n - 1 - index), scale, fmt)


def workload_names() -> list[str]:
    """Names of all registered workload generators."""
    return sorted(WORKLOADS)


def generate(
    workload: str,
    fmt: RecordFormat,
    n: int,
    seed: int | np.random.Generator = 0,
) -> np.ndarray:
    """Generate ``n`` records of the named workload.

    >>> fmt = RecordFormat("u8", 64)
    >>> recs = generate("uniform", fmt, 100, seed=1)
    >>> len(recs), recs.dtype.itemsize
    (100, 64)
    """
    try:
        fn = WORKLOADS[workload]
    except KeyError:
        raise ConfigError(
            f"unknown workload {workload!r}; expected one of {workload_names()}"
        ) from None
    rng = (
        seed
        if isinstance(seed, np.random.Generator)
        else np.random.default_rng(seed)
    )
    if n < 0:
        raise ConfigError(f"cannot generate {n} records")
    out = np.zeros(n, dtype=fmt.dtype)
    at = 0
    for keys in fn(fmt, n, rng):
        stop = at + len(keys)
        fmt.make(keys, np.arange(at, stop, dtype=np.uint64), out=out[at:stop])
        at = stop
    return out
