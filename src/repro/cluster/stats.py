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

from collections import Counter

from repro.telemetry import Counters


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


class CommStats(Counters):
    """Communication counters for one rank.

    ``messages``/``bytes`` count everything the rank sent (collectives
    included); the ``network_*`` variants exclude messages addressed to
    the sender itself. ``by_op`` breaks messages down by the operation
    that produced them (``"send"``, ``"alltoallv"``, …); it rides along
    in :meth:`snapshot`, :meth:`merge` and :meth:`delta` (so a pass's
    ``comm_per_pass`` entry names its operations) but not in totals.
    """

    KEYS = ("messages", "bytes", "network_messages", "network_bytes")

    def __init__(self, rank: int = 0) -> None:
        super().__init__()
        self.rank = rank
        self.by_op: Counter = Counter()

    def record_send(self, dest: int, payload: object, op: str) -> None:
        size = payload_nbytes(payload)
        with self._lock:
            self.messages += 1
            self.bytes += size
            self.by_op[op] += 1
            if dest != self.rank:
                self.network_messages += 1
                self.network_bytes += size

    def _state(self) -> dict:
        return {"rank": self.rank, "by_op": dict(self.by_op)}

    @classmethod
    def delta(cls, before: dict, after: dict) -> dict:
        """The counters' delta, plus ``by_op``: the messages of each
        operation sent between the two snapshots (operations with none
        left out)."""
        ops = Counter(after["by_op"])
        ops.subtract(before["by_op"])
        return {
            **super().delta(before, after),
            "by_op": {op: n for op, n in ops.items() if n},
        }

    def merge(self, delta: dict) -> None:
        super().merge(delta)
        with self._lock:
            self.by_op.update(delta.get("by_op", {}))
