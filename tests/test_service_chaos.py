"""The daemon as a real subprocess under ``kill -9``.

A K-job storm across prioritized tenants is submitted to ``repro.cli
serve``; the daemon is killed at a lifecycle point, restarted over the
same root, and every job is resubmitted with its original idempotency
key. Nothing may be lost or duplicated: each resubmit lands on its
journaled job, the job table holds exactly K jobs, every job finishes
with the digest of an uninterrupted in-process run, SIGTERM then drains
the daemon to exit status 0, and an offline replay of the journal agrees.
``test_service_recovery.py`` simulates the crash in-process; this is
the real process death.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

from repro.oocs.api import job_from_spec, run_job
from repro.oocs.report import output_digest
from repro.records.generators import generate
from repro.service import ServiceClient
from repro.service.jobs import replay_jobs
from repro.service.journal import JobJournal
from repro.service.protocol import validate_spec

K = 4
SPEC = {"records": 4096, "buffer": 512, "processors": 4}
TENANTS = [("vip", 10), ("default", 0), ("batch", -5)]
SRC = Path(__file__).resolve().parent.parent / "src"

#: Kill points: the daemon dies once a job state matches.
KILL_WHEN = {
    "mid-run": lambda states: any(
        s in ("running", "checkpointed") for s in states
    ),
    "after-first-done": lambda states: "done" in states,
}


@pytest.fixture
def service_root():
    """A root whose socket path stays under the AF_UNIX limit."""
    with tempfile.TemporaryDirectory(prefix="svcx-", dir="/tmp") as root:
        yield Path(root)


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    """Output digest of an uninterrupted run, per job seed."""
    spec = validate_spec(SPEC)
    program, job = job_from_spec(spec)
    out = {}
    for seed in range(K):
        records = generate(spec["workload"], job.fmt, job.n, seed=seed)
        res = run_job(
            program, job, records,
            workdir=tmp_path_factory.mktemp(f"digest{seed}"),
        )
        out[seed] = output_digest(res)
        res.output.delete()
    return out


class Daemon:
    """One ``repro.cli serve`` subprocess over a service root."""

    def __init__(self, root: Path) -> None:
        self.socket_path = root / "service.sock"
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(
                   filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
        cmd = [sys.executable, "-m", "repro.cli", "serve",
               "--root", str(root), "--workers", "2"]
        for name, priority in TENANTS:
            cmd += ["--tenant", f"{name}={priority}"]
        self.proc = subprocess.Popen(
            cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
        )
        deadline = time.monotonic() + 30
        while True:
            assert self.proc.poll() is None, "daemon died on startup"
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as probe:
                try:
                    probe.connect(str(self.socket_path))
                    return
                except OSError:
                    pass
            assert time.monotonic() < deadline, "daemon did not come up"
            time.sleep(0.05)

    def kill9(self) -> None:
        self.proc.kill()
        self.proc.wait(timeout=30)

    def sigterm(self) -> int:
        self.proc.send_signal(signal.SIGTERM)
        return self.proc.wait(timeout=120)

    def reap(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=30)


def submit_storm(client) -> dict[str, tuple[str, int, str]]:
    """K jobs across the tenants: key → (job id, seed, tenant)."""
    jobs = {}
    for i in range(K):
        tenant = TENANTS[i % len(TENANTS)][0]
        ack = client.submit({**SPEC, "seed": i}, tenant=tenant,
                            key=f"storm-{i}")
        jobs[f"storm-{i}"] = (ack["job"], i, tenant)
    return jobs


def wait_all_done(client, jobs, digests) -> None:
    for job, seed, _ in jobs.values():
        final = client.wait(job, timeout_s=300)
        assert final["state"] == "done", final.get("error")
        assert final["result"]["output_digest"] == digests[seed]
    assert client.health()["jobs"] == {"done": K}


@pytest.mark.parametrize("kill_point", sorted(KILL_WHEN))
def test_kill9_loses_and_duplicates_nothing(kill_point, service_root, digests):
    daemon = Daemon(service_root)
    client = ServiceClient(daemon.socket_path, retries=10, backoff_s=0.1)
    try:
        jobs = submit_storm(client)
        deadline = time.monotonic() + 120
        while not KILL_WHEN[kill_point](
            [client.status(job)["state"] for job, _, _ in jobs.values()]
        ):
            assert time.monotonic() < deadline, f"never reached {kill_point}"
            time.sleep(0.05)
        daemon.kill9()

        daemon = Daemon(service_root)
        for key, (job, seed, tenant) in jobs.items():
            again = client.submit({**SPEC, "seed": seed}, tenant=tenant,
                                  key=key)
            assert again["duplicate"] is True and again["job"] == job, key
        wait_all_done(client, jobs, digests)
        assert daemon.sigterm() == 0
    finally:
        client.close()
        daemon.reap()

    journal = JobJournal(service_root / "journal.log")
    events, torn = journal.replay()
    journal.close()
    assert torn == 0
    replayed, _ = replay_jobs(events)
    assert len(replayed) == K
    assert {record.state for record in replayed.values()} == {"done"}


def test_storm_then_sigterm_drains_cleanly(service_root, digests):
    daemon = Daemon(service_root)
    client = ServiceClient(daemon.socket_path, retries=10, backoff_s=0.1)
    try:
        wait_all_done(client, submit_storm(client), digests)
        assert daemon.sigterm() == 0
    finally:
        client.close()
        daemon.reap()
