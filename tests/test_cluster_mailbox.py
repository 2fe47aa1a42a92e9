"""The mailbox fabric: ordering, drainage, shutdown."""

import sys
import threading
import time

import pytest

from repro.cluster.mailbox import MailboxRouter
from repro.errors import CommError


class TestRouting:
    def test_fifo_per_triple(self):
        router = MailboxRouter(timeout=1)
        for k in range(10):
            router.put(0, 1, "t", k)
        assert [router.get(0, 1, "t") for _ in range(10)] == list(range(10))

    def test_triples_are_independent(self):
        router = MailboxRouter(timeout=1)
        router.put(0, 1, "a", "on-a")
        router.put(0, 1, "b", "on-b")
        router.put(1, 1, "a", "other-source")
        assert router.get(0, 1, "b") == "on-b"
        assert router.get(1, 1, "a") == "other-source"
        assert router.get(0, 1, "a") == "on-a"

    def test_pending_counts(self):
        router = MailboxRouter(timeout=1)
        assert router.pending() == {}
        router.put(0, 1, "t", "x")
        router.put(0, 1, "t", "y")
        router.put(2, 0, "u", "z")
        pending = router.pending()
        assert pending[(0, 1, "t")] == 2
        assert pending[(2, 0, "u")] == 1
        router.get(0, 1, "t")
        assert router.pending()[(0, 1, "t")] == 1

    def test_fabric_drains_after_spmd_run(self):
        """No stray messages survive a complete SPMD program — every
        send was received (protocol completeness)."""
        from repro.cluster.comm import Comm
        from repro.cluster.mailbox import MailboxRouter

        router = MailboxRouter(timeout=5)
        comms = [Comm(p, 2, router) for p in range(2)]
        results = []

        def rank(p):
            comms[p].send(p, dest=1 - p)
            results.append(comms[p].recv(source=1 - p))
            comms[p].allgather(p)

        threads = [threading.Thread(target=rank, args=(p,)) for p in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert router.pending() == {}

    def test_reused_tag_loses_no_message_while_queues_are_dropped(self):
        """A drained queue leaves the table; a put racing that drop must
        land in a queue the receiver will read, never in an orphan."""
        ranks, messages = 4, 300
        router = MailboxRouter(timeout=10)
        received = {}

        def sender(source):
            for k in range(messages):
                for dest in range(ranks):
                    router.put(source, dest, "reused", (source, k))

        def receiver(dest):
            received[dest] = [
                router.get(source, dest, "reused")
                for k in range(messages)
                for source in range(ranks)
            ]

        threads = [threading.Thread(target=sender, args=(q,)) for q in range(ranks)]
        threads += [threading.Thread(target=receiver, args=(q,)) for q in range(ranks)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        want = [(source, k) for k in range(messages) for source in range(ranks)]
        assert received == {dest: want for dest in range(ranks)}
        assert router._queues == {}


class TestTimeoutsAndShutdown:
    def test_timeout_raises_comm_error(self):
        router = MailboxRouter(timeout=0.2)
        t0 = time.monotonic()
        with pytest.raises(CommError, match="timed out"):
            router.get(0, 1, "never")
        assert time.monotonic() - t0 < 2

    def test_close_interrupts_blocked_get_quickly(self):
        router = MailboxRouter(timeout=60)
        errors = []

        def blocked():
            try:
                router.get(0, 1, "never")
            except CommError as exc:
                errors.append(exc)

        t = threading.Thread(target=blocked)
        t.start()
        time.sleep(0.1)
        router.close()
        t.join(timeout=5)
        assert not t.is_alive()
        assert errors and "shut down" in str(errors[0])

    def test_put_after_close_rejected(self):
        router = MailboxRouter(timeout=1)
        router.close()
        with pytest.raises(CommError, match="shut down"):
            router.put(0, 1, "t", "x")

    def test_get_after_close_rejected(self):
        router = MailboxRouter(timeout=1)
        router.put(0, 1, "t", "x")
        router.close()
        with pytest.raises(CommError, match="shut down"):
            router.get(0, 1, "t")
