"""Per-rank communication accounting.

The paper's §3 argues about *message counts*: the subblock pass sends
``⌈P/√s⌉`` messages per processor per round instead of ``P``, and zero
bytes cross the network when ``√s ≥ P`` (the single message stays on its
sender). :class:`CommStats` meters exactly those quantities so the tests
and the T-msgcount benchmark can check the claims against a live run.

Self-messages (a rank "sending" to itself) are counted separately from
network traffic, mirroring the paper's observation that the message a
processor addresses to itself "does not need to go over the network".
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass, field


def payload_nbytes(payload: object) -> int:
    """Best-effort byte size of a message payload.

    NumPy arrays (the only payloads on the algorithms' hot paths) are
    measured exactly; other objects are approximated, which is fine —
    they only appear in control-plane messages.
    """
    nbytes = getattr(payload, "nbytes", None)
    if nbytes is not None:
        return int(nbytes)
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return len(payload)
    if isinstance(payload, (list, tuple)):
        return sum(payload_nbytes(x) for x in payload)
    return 0


@dataclass
class CommStats:
    """Communication counters for one rank.

    ``messages``/``bytes`` count everything the rank sent (collectives
    included); the ``network_*`` variants exclude messages addressed to
    the sender itself. ``by_op`` breaks messages down by the operation
    that produced them (``"send"``, ``"alltoallv"``, …).
    """

    rank: int = 0
    messages: int = 0
    bytes: int = 0
    network_messages: int = 0
    network_bytes: int = 0
    by_op: Counter = field(default_factory=Counter)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def record_send(self, dest: int, payload: object, op: str) -> None:
        size = payload_nbytes(payload)
        with self._lock:
            self.messages += 1
            self.bytes += size
            self.by_op[op] += 1
            if dest != self.rank:
                self.network_messages += 1
                self.network_bytes += size

    def snapshot(self) -> dict:
        """A plain-dict copy (safe to compare/serialize in tests)."""
        with self._lock:
            return {
                "rank": self.rank,
                "messages": self.messages,
                "bytes": self.bytes,
                "network_messages": self.network_messages,
                "network_bytes": self.network_bytes,
                "by_op": dict(self.by_op),
            }

    def reset(self) -> None:
        with self._lock:
            self.messages = 0
            self.bytes = 0
            self.network_messages = 0
            self.network_bytes = 0
            self.by_op.clear()


def stats_from_snapshot(snap: dict | None, rank: int = 0) -> CommStats:
    """Rebuild a :class:`CommStats` from a :meth:`CommStats.snapshot`.

    Live ``CommStats`` objects hold a lock and cannot cross a process
    boundary; the process transport ships each rank's snapshot dict home
    and rehydrates it here, so ``SpmdResult.stats`` has the same shape
    on every backend. A missing snapshot (a rank that died before
    reporting) yields zeroed counters.
    """
    stats = CommStats(rank=rank)
    if snap is None:
        return stats
    stats.rank = snap.get("rank", rank)
    stats.messages = snap.get("messages", 0)
    stats.bytes = snap.get("bytes", 0)
    stats.network_messages = snap.get("network_messages", 0)
    stats.network_bytes = snap.get("network_bytes", 0)
    stats.by_op = Counter(snap.get("by_op", {}))
    return stats


def combined(stats: list[CommStats]) -> dict:
    """Aggregate counters across ranks (for whole-run assertions)."""
    total = {
        "messages": 0,
        "bytes": 0,
        "network_messages": 0,
        "network_bytes": 0,
    }
    for s in stats:
        snap = s.snapshot()
        for key in total:
            total[key] += snap[key]
    return total
