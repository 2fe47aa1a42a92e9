"""The service daemon end to end: protocol ops, tenancy, priority
scheduling, and graceful drain (including a real SIGTERM)."""

from __future__ import annotations

import os
import signal
import tempfile
import threading
import time
from pathlib import Path

import pytest

from repro.errors import JobNotFound, ServiceError
from repro.service import ServiceClient, SortService, TenantPolicy, validate_spec
from repro.service.journal import JobJournal

#: A fast known-good job (~0.5 s on the thread backend).
SPEC = {"records": 4096, "buffer": 512, "processors": 4}

#: A longer valid job (s = n/r must keep r >= 2s²) for cancel/drain races.
SPEC_LONG = {"records": 16384, "buffer": 2048, "processors": 4}


@pytest.fixture
def service_root():
    """A service root whose socket path stays under the AF_UNIX limit
    (pytest's tmp_path can exceed it)."""
    with tempfile.TemporaryDirectory(prefix="svc-", dir="/tmp") as root:
        yield Path(root)


def _start(root, **kwargs):
    service = SortService(root, **kwargs)
    service.start()
    return service


def test_submit_runs_to_done_with_result_schema(service_root):
    service = _start(service_root, workers=2)
    try:
        with ServiceClient(service.socket_path) as client:
            sub = client.submit(SPEC, key="k1")
            assert sub["state"] == "admitted" and not sub["duplicate"]
            final = client.wait(sub["job"], timeout_s=120)
            assert final["state"] == "done"
            result = final["result"]
            assert result["schema"] == "repro.sort-result/1"
            assert result["verified"] is True
            assert len(result["output_digest"]) == 64
            assert result["passes"] == 3
            assert final["passes_done"] == result["passes"]
            assert final["attempts"] == 1
    finally:
        service.stop()


def test_duplicate_key_dedupes_onto_one_job(service_root):
    service = _start(service_root, workers=1)
    try:
        with ServiceClient(service.socket_path) as client:
            first = client.submit(SPEC, key="same")
            second = client.submit(SPEC, key="same")
            assert second["job"] == first["job"]
            assert second["duplicate"] is True
            client.wait(first["job"], timeout_s=120)
    finally:
        service.stop()


def test_unknown_job_raises_job_not_found(service_root):
    service = _start(service_root)
    try:
        with ServiceClient(service.socket_path) as client:
            with pytest.raises(JobNotFound):
                client.status("j999999")
            with pytest.raises(JobNotFound):
                client.result("j999999")
    finally:
        service.stop()


def test_invalid_spec_rejected_and_not_journaled(service_root):
    service = _start(service_root)
    try:
        with ServiceClient(service.socket_path) as client:
            with pytest.raises(ServiceError, match="unknown algorithm"):
                client.submit({"algorithm": "quicksort"})
            with pytest.raises(ServiceError, match="unknown job-spec field"):
                client.submit({"nope": 1})
            # "g" is in ALGORITHMS (smallest feasible g); its knob is no field
            assert validate_spec({"algorithm": "g"})["algorithm"] == "g"
            with pytest.raises(ServiceError, match="unknown job-spec field"):
                client.submit({"algorithm": "g", "group_size": 2})
            assert client.health()["jobs"] == {}
    finally:
        service.stop()
    journal = JobJournal(service_root / "journal.log")
    events, _ = journal.replay()
    assert events == []  # a rejected submit leaves no durable trace
    journal.close()


def test_cancel_queued_job_never_runs(service_root):
    service = _start(service_root, workers=1)
    try:
        with ServiceClient(service.socket_path) as client:
            running = client.submit(SPEC)["job"]
            queued = client.submit(SPEC)["job"]
            cancelled = client.cancel(queued, reason="changed my mind")
            assert cancelled["state"] == "cancelled"
            final = client.result(queued)
            assert final["state"] == "cancelled"
            assert final["cancel_reason"] == "changed my mind"
            assert final["attempts"] == 0
            assert client.wait(running, timeout_s=120)["state"] == "done"
            # cancel of a terminal job is a no-op, not an error
            assert client.cancel(queued)["state"] == "cancelled"
    finally:
        service.stop()


def test_cancel_running_job_reaches_terminal_cancelled(service_root):
    service = _start(service_root, workers=1)
    try:
        with ServiceClient(service.socket_path) as client:
            job = client.submit(SPEC_LONG)["job"]
            deadline = time.monotonic() + 60
            while client.status(job)["state"] not in ("running", "checkpointed"):
                assert time.monotonic() < deadline
                time.sleep(0.02)
            ack = client.cancel(job)
            assert ack.get("cancelling") or ack["state"] == "cancelled"
            final = client.wait(job, timeout_s=60)
            assert final["state"] == "cancelled"
    finally:
        service.stop()


def test_tenant_queue_quota_sheds_submits(service_root):
    service = _start(
        service_root, workers=1,
        tenants={"small": TenantPolicy(max_queued=1)},
    )
    try:
        with ServiceClient(service.socket_path) as client:
            first = client.submit(SPEC, tenant="small")["job"]
            client.submit(SPEC, tenant="small")  # fills the queue slot
            with pytest.raises(ServiceError, match="queue full"):
                client.submit(SPEC, tenant="small")
            # another tenant is unaffected by small's quota
            other = client.submit(SPEC, tenant="big")["job"]
            for job in (first, other):
                client.wait(job, timeout_s=120)
    finally:
        service.stop()


def test_priority_tenant_runs_first(service_root):
    service = _start(
        service_root, workers=1,
        tenants={"vip": TenantPolicy(priority=10)},
    )
    try:
        with ServiceClient(service.socket_path) as client:
            blocker = client.submit(SPEC)["job"]
            low = client.submit(SPEC, tenant="default")["job"]
            high = client.submit(SPEC, tenant="vip")["job"]
            for job in (blocker, low, high):
                client.wait(job, timeout_s=120)
    finally:
        service.stop()
    journal = JobJournal(service_root / "journal.log")
    events, _ = journal.replay()
    journal.close()
    started = [e["job"] for e in events if e["kind"] == "running"]
    assert started.index(high) < started.index(low)


def test_drain_rejects_new_submits_and_finishes_inflight(service_root):
    service = _start(service_root, workers=1)
    try:
        with ServiceClient(service.socket_path) as client:
            job = client.submit(SPEC)["job"]
            drained = client.drain(deadline_s=120)
            assert drained["drained_clean"] is True
            assert drained["interrupted"] == []
            assert client.result(job)["state"] == "done"
            with pytest.raises(ServiceError, match="draining"):
                client.submit(SPEC)
    finally:
        service.stop()
    journal = JobJournal(service_root / "journal.log")
    events, _ = journal.replay()
    journal.close()
    assert any(e["kind"] == "drain" for e in events)


def test_drain_deadline_interrupts_but_keeps_job_resumable(service_root):
    service = _start(service_root, workers=1, drain_timeout_s=0.05)
    try:
        with ServiceClient(service.socket_path) as client:
            job = client.submit(SPEC_LONG)["job"]
            deadline = time.monotonic() + 60
            while client.status(job)["state"] not in ("running", "checkpointed"):
                assert time.monotonic() < deadline
                time.sleep(0.02)
            drained = client.drain(deadline_s=0.05)
            assert drained["drained_clean"] is False
            assert drained["interrupted"] == [job]
            # No terminal event was journaled: the job is still
            # running/checkpointed, i.e. resumable by the next daemon.
            state = client.status(job)["state"]
            assert state in ("running", "checkpointed")
    finally:
        service.stop()
    restarted = SortService(service_root, workers=1)
    restarted.start()
    try:
        assert restarted._recovered["resumed"] == [job]
        with ServiceClient(restarted.socket_path) as client:
            final = client.wait(job, timeout_s=120)
            assert final["state"] == "done"
            assert final["attempts"] == 2
    finally:
        restarted.stop()


def test_sigterm_drains_and_stops(service_root):
    """A real SIGTERM to this process: the installed handler drains the
    service (in-flight job finishes) and stops it."""
    service = _start(service_root, workers=1, drain_timeout_s=120)
    old_term = signal.getsignal(signal.SIGTERM)
    old_int = signal.getsignal(signal.SIGINT)
    try:
        service.install_signal_handlers()
        with ServiceClient(service.socket_path) as client:
            job = client.submit(SPEC)["job"]
        os.kill(os.getpid(), signal.SIGTERM)
        assert service.stopped.wait(timeout=120)
    finally:
        signal.signal(signal.SIGTERM, old_term)
        signal.signal(signal.SIGINT, old_int)
        service.stop()
    journal = JobJournal(service_root / "journal.log")
    events, _ = journal.replay()
    journal.close()
    by_kind = {}
    for event in events:
        by_kind.setdefault(event["kind"], []).append(event)
    assert "drain" in by_kind
    assert by_kind["done"][0]["job"] == job


def test_stop_joins_all_service_threads(service_root):
    before = {t.name for t in threading.enumerate()}
    service = _start(service_root, workers=3)
    with ServiceClient(service.socket_path) as client:
        client.health()
    service.stop()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        lingering = [
            t.name for t in threading.enumerate()
            if t.name.startswith("service-") and t.name not in before
        ]
        if not lingering:
            break
        time.sleep(0.05)
    assert not lingering


def test_second_daemon_on_same_root_is_refused(service_root):
    service = _start(service_root)
    try:
        with pytest.raises(ServiceError, match="another daemon"):
            SortService(service_root, socket_path=service_root / "other.sock").start()
    finally:
        service.stop()


def test_socket_path_length_guard(service_root):
    too_long = service_root / ("x" * 120)
    with pytest.raises(ServiceError, match="AF_UNIX"):
        SortService(service_root, socket_path=too_long)


def test_client_reconnects_after_daemon_restart(service_root):
    service = _start(service_root)
    client = ServiceClient(service.socket_path, retries=8, backoff_s=0.05)
    try:
        job = client.submit(SPEC, key="kr")["job"]
        client.wait(job, timeout_s=120)
        service.stop()  # severs the client's connection
        service = _start(service_root)
        # same client object, same key: reconnect + idempotent dedupe
        again = client.submit(SPEC, key="kr")
        assert again["job"] == job and again["duplicate"] is True
        assert client.result(job)["state"] == "done"
    finally:
        client.close()
        service.stop()
