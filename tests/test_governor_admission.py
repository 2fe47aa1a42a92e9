"""Admission control: quotas, bounded FIFO queueing, timeouts, and
structured shedding under a K-job storm.

The contract: at most ``max_concurrent`` jobs run, at most ``max_queue``
wait in arrival order, everything beyond that is shed *immediately*
with :class:`~repro.errors.AdmissionRejected` — overload becomes prompt
structured refusals, never unbounded latency.
"""

import threading
import time

import pytest

from repro.cluster.config import ClusterConfig
from repro.errors import AdmissionRejected, CancelledError, ConfigError
from repro.governor import CancelToken, JobGovernor
from repro.oocs.api import ALGORITHMS, job_demands, sort_out_of_core
from repro.oocs.base import OocJob
from repro.records.format import RecordFormat
from repro.records.generators import generate

FMT = RecordFormat("u8", 64)


class TestGovernorBasics:
    def test_fast_path_admits_immediately(self):
        gov = JobGovernor(max_concurrent=2)
        ticket = gov.admit(mem_bytes=100)
        assert gov.running() == 1
        assert ticket.wait_s == 0.0
        ticket.release()
        assert gov.running() == 0
        snap = gov.snapshot()
        assert snap["admitted"] == snap["completed"] == 1

    def test_release_is_idempotent(self):
        gov = JobGovernor()
        ticket = gov.admit()
        ticket.release()
        ticket.release()
        assert gov.snapshot()["completed"] == 1

    def test_ticket_is_a_context_manager(self):
        gov = JobGovernor(max_concurrent=1)
        with gov.admit(mem_bytes=5, scratch_bytes=7) as ticket:
            assert gov.running() == 1
            snap = ticket.snapshot()
            assert snap["admitted_mem_bytes"] == 5
            assert snap["admitted_scratch_bytes"] == 7
        assert gov.running() == 0

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            JobGovernor(max_concurrent=0)
        with pytest.raises(ConfigError):
            JobGovernor(max_queue=-1)
        with pytest.raises(ConfigError):
            JobGovernor(queue_timeout_s=0)
        with pytest.raises(ConfigError):
            JobGovernor().admit(mem_bytes=-1)

    def test_impossible_demand_fails_fast(self):
        gov = JobGovernor(mem_quota_bytes=100)
        with pytest.raises(AdmissionRejected, match="demand exceeds quota"):
            gov.admit(mem_bytes=101)
        assert gov.snapshot()["rejected_impossible"] == 1
        gov2 = JobGovernor(scratch_quota_bytes=10)
        with pytest.raises(AdmissionRejected):
            gov2.admit(scratch_bytes=11)

    def test_mem_quota_gates_concurrency(self):
        gov = JobGovernor(max_concurrent=10, mem_quota_bytes=100,
                          queue_timeout_s=0.1, max_queue=1)
        first = gov.admit(mem_bytes=80)
        with pytest.raises(AdmissionRejected, match="timeout"):
            gov.admit(mem_bytes=30)
        first.release()
        second = gov.admit(mem_bytes=30)
        second.release()

    def test_queue_full_sheds_immediately(self):
        gov = JobGovernor(max_concurrent=1, max_queue=0)
        ticket = gov.admit()
        t0 = time.monotonic()
        with pytest.raises(AdmissionRejected, match="queue full") as err:
            gov.admit()
        assert time.monotonic() - t0 < 1.0  # shed, not queued
        assert err.value.reason == "queue full"
        assert gov.snapshot()["rejected_queue_full"] == 1
        ticket.release()

    def test_queue_timeout_is_structured(self):
        gov = JobGovernor(max_concurrent=1, max_queue=2, queue_timeout_s=0.15)
        ticket = gov.admit()
        with pytest.raises(AdmissionRejected, match="timeout"):
            gov.admit()
        assert gov.snapshot()["rejected_timeout"] == 1
        assert gov.queued() == 0  # the waiter cleaned itself up
        ticket.release()

    def test_cancel_token_aborts_the_wait(self):
        gov = JobGovernor(max_concurrent=1, max_queue=2, queue_timeout_s=30.0)
        ticket = gov.admit()
        token = CancelToken()
        timer = threading.Timer(0.05, token.cancel)
        timer.start()
        t0 = time.monotonic()
        with pytest.raises(CancelledError):
            gov.admit(cancel=token)
        assert time.monotonic() - t0 < 5.0
        assert gov.queued() == 0
        timer.join()
        ticket.release()

    def test_fifo_order_is_respected(self):
        gov = JobGovernor(max_concurrent=1, max_queue=4, queue_timeout_s=30.0)
        first = gov.admit()
        order = []
        started = []

        def waiter(name):
            started.append(name)
            with gov.admit():
                order.append(name)
                time.sleep(0.02)

        threads = []
        for name in ("a", "b", "c"):
            t = threading.Thread(target=waiter, args=(name,))
            threads.append(t)
            t.start()
            while name not in started:
                time.sleep(0.005)
            time.sleep(0.08)  # let the waiter reach the queue in order
        first.release()
        for t in threads:
            t.join(timeout=10.0)
        assert order == ["a", "b", "c"]

    def test_release_wakes_the_head_waiter(self):
        gov = JobGovernor(max_concurrent=1, max_queue=1, queue_timeout_s=30.0)
        first = gov.admit()
        got = []
        t = threading.Thread(target=lambda: got.append(gov.admit()))
        t.start()
        time.sleep(0.1)
        assert not got
        first.release()
        t.join(timeout=5.0)
        assert len(got) == 1
        assert got[0].wait_s > 0.0
        got[0].release()


class TestProcessGovernor:
    def test_installed_governor_gates_api_runs(self):
        records = generate("uniform", FMT, 8192, seed=3)
        cluster = ClusterConfig(p=4, mem_per_proc=2**12)
        gov = JobGovernor(max_concurrent=2)
        res = sort_out_of_core(
            "threaded", records, cluster, FMT, buffer_records=512,
            governor=gov,
        )
        assert res.governor["admission_wait_s"] == 0.0
        assert res.governor["admitted_mem_bytes"] > 0
        res.output.delete()
        snap = gov.snapshot()
        assert snap["admitted"] == snap["completed"] == 1
        assert snap["running"] == 0

    def test_job_demands_scale_with_depth_and_n(self):
        cluster = ClusterConfig(p=4, mem_per_proc=2**12)
        shallow = OocJob(cluster=cluster, fmt=FMT, n=8192,
                         buffer_records=512, pipeline_depth=0)
        deep = OocJob(cluster=cluster, fmt=FMT, n=8192,
                      buffer_records=512, pipeline_depth=2)
        mem0, scratch0 = job_demands(ALGORITHMS["threaded"], shallow)
        mem2, scratch2 = job_demands(ALGORITHMS["threaded"], deep)
        assert mem2 > mem0 > 0
        assert scratch0 == scratch2 == 3 * 8192 * FMT.record_size


class TestAdmissionStorm:
    def test_storm_completes_queues_and_sheds(self):
        """K=7 simultaneous jobs against 2 slots + 2 queue places: the
        admitted ones complete and verify, the peaks respect the bounds,
        and the overflow is shed with AdmissionRejected."""
        records = generate("uniform", FMT, 8192, seed=3)
        cluster = ClusterConfig(p=2, mem_per_proc=2**12)
        expected = sort_out_of_core(
            "threaded", records, cluster, FMT, buffer_records=1024,
        ).output_records().tobytes()
        gov = JobGovernor(max_concurrent=2, max_queue=2, queue_timeout_s=30.0)
        k = 7
        outcomes = [None] * k
        start = threading.Barrier(k)

        def job(i):
            start.wait()
            try:
                res = sort_out_of_core(
                    "threaded", records, cluster, FMT, buffer_records=1024,
                    governor=gov,
                )
            except AdmissionRejected as exc:
                outcomes[i] = ("rejected", exc.reason)
            else:
                ok = res.output_records().tobytes() == expected
                outcomes[i] = ("completed" if ok else "diverged", None)
                res.output.delete()

        threads = [threading.Thread(target=job, args=(i,)) for i in range(k)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120.0)

        kinds = [o[0] if o else "hung" for o in outcomes]
        snap = gov.snapshot()
        assert "hung" not in kinds and "diverged" not in kinds
        assert kinds.count("completed") == snap["admitted"] == snap["completed"]
        assert kinds.count("rejected") == snap["rejected_queue_full"] >= 1
        assert kinds.count("completed") + kinds.count("rejected") == k
        assert snap["peak_running"] <= 2
        assert snap["peak_queued"] <= 2
        assert snap["running"] == snap["queued"] == 0
        assert snap["mem_in_use"] == snap["scratch_in_use"] == 0


class TestPriorityQueueing:
    """Priority admission (the service daemon's tenant priorities map
    here): highest priority leaves the queue first, FIFO within a
    priority, and the default priority 0 everywhere stays plain FIFO."""

    def test_higher_priority_overtakes_earlier_arrival(self):
        gov = JobGovernor(max_concurrent=1, max_queue=4, queue_timeout_s=30.0)
        blocker = gov.admit()
        order = []
        lock = threading.Lock()

        def waiter(name, priority):
            ticket = gov.admit(priority=priority)
            with lock:
                order.append(name)
            ticket.release()

        low = threading.Thread(target=waiter, args=("low", 0))
        low.start()
        while gov.queued() < 1:
            time.sleep(0.005)
        high = threading.Thread(target=waiter, args=("high", 5))
        high.start()
        while gov.queued() < 2:
            time.sleep(0.005)
        blocker.release()
        low.join(timeout=30)
        high.join(timeout=30)
        assert order == ["high", "low"]

    def test_equal_priority_stays_fifo(self):
        gov = JobGovernor(max_concurrent=1, max_queue=8, queue_timeout_s=30.0)
        blocker = gov.admit()
        order = []
        lock = threading.Lock()
        threads = []

        def waiter(name):
            ticket = gov.admit(priority=3)
            with lock:
                order.append(name)
            ticket.release()

        for i in range(4):
            t = threading.Thread(target=waiter, args=(i,))
            t.start()
            threads.append(t)
            while gov.queued() < i + 1:
                time.sleep(0.005)
        blocker.release()
        for t in threads:
            t.join(timeout=30)
        assert order == [0, 1, 2, 3]

    def test_cancelled_high_priority_waiter_unblocks_the_rest(self):
        gov = JobGovernor(max_concurrent=1, max_queue=4, queue_timeout_s=30.0)
        blocker = gov.admit()
        token = CancelToken()
        outcome = {}

        def vip():
            try:
                gov.admit(priority=10, cancel=token)
            except CancelledError:
                outcome["vip"] = "cancelled"

        def regular():
            ticket = gov.admit(priority=0)
            outcome["regular"] = "admitted"
            ticket.release()

        t1 = threading.Thread(target=vip)
        t1.start()
        while gov.queued() < 1:
            time.sleep(0.005)
        t2 = threading.Thread(target=regular)
        t2.start()
        while gov.queued() < 2:
            time.sleep(0.005)
        token.cancel("changed plans")
        t1.join(timeout=30)
        blocker.release()
        t2.join(timeout=30)
        assert outcome == {"vip": "cancelled", "regular": "admitted"}
        assert gov.snapshot()["queued"] == 0
