"""Run meters: one counter type for every layer.

Each layer of a run meters what it did — disk I/O, messages, data-plane
copies, governance, pool budget — and a run reports *deltas*: the
counters after it minus the counters before it. The process backend adds a third operation: each rank meters its
own fork-copied objects and ships the deltas home, where they are
merged into the parent's meters so that both backends report the same
numbers. :class:`Counters` is the one implementation of that
arithmetic; a meter subclasses it and declares its field names.

Two kinds of field exist. A *counter* (every name in ``KEYS``) only
grows: deltas subtract, merges and totals add. A *peak* (a name in
both ``KEYS`` and ``PEAKS``) is a high-water mark: a delta reports the
later value, and merges and totals keep the maximum — a peak of one
address space cannot be added to a peak of another.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable


class Counters:
    """Lock-guarded integer fields named by ``KEYS``, all starting at 0.

    Subclasses increment the fields directly, under ``self._lock``, in
    their own ``record_*`` methods. ``lock`` lets an owner that already
    serializes its updates under a lock of its own share it.
    """

    KEYS: tuple[str, ...] = ()
    PEAKS: tuple[str, ...] = ()

    def __init__(self, lock=None) -> None:
        self._lock = lock if lock is not None else threading.Lock()
        for key in self.KEYS:
            setattr(self, key, 0)

    def snapshot(self) -> dict:
        """The fields as a plain dict (safe to compare, pickle, diff)."""
        with self._lock:
            snap = {key: getattr(self, key) for key in self.KEYS}
            snap.update(self._state())
            return snap

    def _state(self) -> dict:
        """Non-counter state a subclass reports beside its counters
        (called with the lock held); deltas and totals ignore it."""
        return {}

    def merge(self, delta: dict) -> None:
        """Fold a delta (from another process, say) into this meter;
        a missing key counts as 0."""
        with self._lock:
            self._fold(vars(self), delta)

    @classmethod
    def delta(cls, before: dict, after: dict) -> dict:
        """What happened between two snapshots: counters subtract,
        peaks are taken from ``after``."""
        return {
            key: after[key] if key in cls.PEAKS else after[key] - before[key]
            for key in cls.KEYS
        }

    @classmethod
    def total(cls, snapshots: Iterable[dict]) -> dict:
        """The sum of several meters' snapshots (peaks: the maximum)."""
        out = dict.fromkeys(cls.KEYS, 0)
        for snap in snapshots:
            cls._fold(out, snap)
        return out

    @classmethod
    def _fold(cls, into: dict, delta: dict) -> None:
        for key in cls.KEYS:
            value = delta.get(key, 0)
            if key in cls.PEAKS:
                into[key] = max(into[key], value)
            else:
                into[key] += value
