"""Recovery-on-restart: a new daemon over a crashed daemon's root
requeues queued jobs, resumes running ones from their pass-boundary
checkpoints, and produces byte-identical output — with zero lost,
duplicated, or phantom jobs."""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

import pytest

from repro.errors import Cancellation
from repro.governor import CancelToken
from repro.oocs.api import job_from_spec, run_job
from repro.oocs.report import output_digest
from repro.records.generators import generate
from repro.service import ServiceClient, SortService
from repro.service.journal import JobJournal
from repro.service.protocol import validate_spec

SPEC = validate_spec({"records": 4096, "buffer": 512, "processors": 4})


@pytest.fixture
def service_root():
    with tempfile.TemporaryDirectory(prefix="svcr-", dir="/tmp") as root:
        yield Path(root)


def _expected_digest(spec) -> str:
    program, job = job_from_spec(spec)
    records = generate(spec["workload"], job.fmt, job.n, seed=spec["seed"])
    return output_digest(run_job(program, job, records))


class _CrashAtPass(CancelToken):
    """Cancels at a pass boundary — on-disk state then looks exactly
    like a daemon killed mid-job (valid checkpoints, partial scratch)."""

    def __init__(self, at_pass: int) -> None:
        super().__init__()
        self.at_pass = at_pass

    def pass_boundary(self, completed_index: int) -> None:
        if completed_index >= self.at_pass:
            self.cancel("simulated daemon crash")
        super().pass_boundary(completed_index)


def _fabricate_crashed_job(root: Path, job_id: str, spec: dict,
                           at_pass: int) -> None:
    """Run the job into the service's directory layout and kill it at
    ``at_pass``, then journal the history a crashed daemon would leave:
    submitted/admitted/running/checkpointed with no terminal event."""
    jobdir = root / "jobs" / job_id
    program, job = job_from_spec(
        spec, checkpoint_dir=jobdir / "ckpt", cancel=_CrashAtPass(at_pass)
    )
    records = generate(spec["workload"], job.fmt, job.n, seed=spec["seed"])
    with pytest.raises(Cancellation):
        run_job(program, job, records, workdir=jobdir / "work")
    journal = JobJournal(root / "journal.log")
    journal.replay()  # continue the existing sequence, if any
    journal.append("submitted", job=job_id, tenant="default", spec=spec,
                   key=f"key-{job_id}")
    journal.append("admitted", job=job_id)
    journal.append("running", job=job_id)
    journal.append("checkpointed", job=job_id, **{"pass": at_pass})
    journal.close()


def test_resumed_job_completes_byte_identically(service_root):
    expected = _expected_digest(SPEC)
    _fabricate_crashed_job(service_root, "j000001", SPEC, at_pass=2)
    service = SortService(service_root, workers=1)
    service.start()
    try:
        assert service._recovered["resumed"] == ["j000001"]
        assert service._recovered["requeued"] == []
        with ServiceClient(service.socket_path) as client:
            final = client.wait("j000001", timeout_s=120)
            assert final["state"] == "done"
            assert final["attempts"] == 2  # the crashed attempt counts
            assert final["result"]["output_digest"] == expected
            # idempotent resubmit after the crash: same job, no double
            again = client.submit(SPEC, key="key-j000001")
            assert again["job"] == "j000001" and again["duplicate"] is True
            # fresh ids continue after the recovered one
            fresh = client.submit(SPEC)
            assert fresh["job"] == "j000002"
            client.wait(fresh["job"], timeout_s=120)
    finally:
        service.stop()


def test_submitted_and_admitted_jobs_are_requeued(service_root):
    """A crash can land between any two journal appends: a job stuck in
    ``submitted`` (ack'd but the admitted record never hit disk) or
    ``admitted`` (queued, no executor yet) must simply run."""
    journal = JobJournal(service_root / "journal.log")
    journal.append("submitted", job="j000001", tenant="default", spec=SPEC)
    journal.append("submitted", job="j000002", tenant="default", spec=SPEC)
    journal.append("admitted", job="j000002")
    journal.close()
    service = SortService(service_root, workers=2)
    service.start()
    try:
        assert sorted(service._recovered["requeued"]) == ["j000001", "j000002"]
        with ServiceClient(service.socket_path) as client:
            digests = {
                client.wait(job, timeout_s=120)["result"]["output_digest"]
                for job in ("j000001", "j000002")
            }
            assert digests == {_expected_digest(SPEC)}
    finally:
        service.stop()


def test_torn_journal_tail_is_repaired_on_start(service_root):
    journal = JobJournal(service_root / "journal.log")
    journal.append("submitted", job="j000001", tenant="default", spec=SPEC)
    journal.append("admitted", job="j000001")
    journal.append("running", job="j000001")
    journal.append("done", job="j000001", result={"output_digest": "d"})
    journal.close()
    clean = (service_root / "journal.log").stat().st_size
    with open(service_root / "journal.log", "ab") as fh:
        fh.write(b'0001 {"torn')  # a write the crash cut short
    service = SortService(service_root)
    service.start()
    try:
        assert service._recovered["torn_bytes_repaired"] == 11
        # the repaired journal accepts appends that replay cleanly
        with ServiceClient(service.socket_path) as client:
            assert client.result("j000001")["result"] == {"output_digest": "d"}
    finally:
        service.stop()
    events, torn = JobJournal(service_root / "journal.log").replay()
    assert torn == 0
    assert (service_root / "journal.log").stat().st_size > clean  # recovered event
    kinds = [e["kind"] for e in events]
    assert kinds[:4] == ["submitted", "admitted", "running", "done"]
    assert "recovered" in kinds


def test_terminal_jobs_survive_restart_without_rerunning(service_root):
    service = SortService(service_root, workers=1)
    service.start()
    try:
        with ServiceClient(service.socket_path) as client:
            job = client.submit(SPEC, key="k")["job"]
            done = client.wait(job, timeout_s=120)
    finally:
        service.stop()
    restarted = SortService(service_root, workers=1)
    restarted.start()
    try:
        assert restarted._recovered["requeued"] == []
        assert restarted._recovered["resumed"] == []
        with ServiceClient(restarted.socket_path) as client:
            final = client.result(job)
            assert final["state"] == "done"
            assert final["result"]["output_digest"] == \
                done["result"]["output_digest"]
            assert final["attempts"] == 1  # never re-ran
    finally:
        restarted.stop()


def test_successful_job_checkpoints_are_pruned(service_root):
    """The satellite contract end to end: a job that finishes leaves no
    checkpoint manifests behind (the directory itself is retired)."""
    service = SortService(service_root, workers=1)
    service.start()
    try:
        with ServiceClient(service.socket_path) as client:
            job = client.submit(SPEC)["job"]
            client.wait(job, timeout_s=120)
            ckpt = service.job_dir(job) / "ckpt"
            deadline = time.monotonic() + 10
            while ckpt.exists() and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not ckpt.exists()
    finally:
        service.stop()
