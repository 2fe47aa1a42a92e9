"""The sort-as-a-service daemon: a crash-safe job lifecycle over
:class:`~repro.governor.JobGovernor`.

Design (DESIGN §13):

* **Journal-before-acknowledge.** Every acknowledged state change hits
  the :class:`~repro.service.journal.JobJournal` (fsync'd) first. The
  daemon's memory is just a cache of the journal; ``kill -9`` at any
  instant loses at most an un-acknowledged request, which the client
  retries idempotently.
* **Recovery-on-restart.** Startup repairs the journal's torn tail,
  replays it, and requeues every non-terminal job: ``submitted``/
  ``admitted`` jobs run from scratch; ``running``/``checkpointed`` jobs
  rerun with ``resume=True`` against their surviving pass-boundary
  checkpoints (the :mod:`repro.resilience` machinery makes the resumed
  output byte-identical to an uninterrupted run).
* **Tenancy on top of the governor.** The scheduler picks the
  highest-priority admitted job whose tenant is under its
  ``max_running`` quota, then the executor maps the job onto the shared
  :class:`~repro.governor.JobGovernor` with the tenant's priority — so
  global concurrency, memory/scratch quotas, and priority ordering are
  all enforced by the same admission gate single sorts use.
* **Graceful drain.** ``drain`` (and SIGTERM) stops admission and new
  job starts, lets in-flight jobs finish under a deadline, then
  cancel-interrupts the stragglers *without journaling a terminal
  state* — their last checkpoint stays valid and their journal state
  stays ``running``/``checkpointed``, so the next start resumes them.
  The drain itself is journaled.

In-run robustness is inherited, not reimplemented: each job runs under
its own :class:`~repro.governor.CancelToken`, the service-wide
:class:`~repro.resilience.supervisor.RestartPolicy` (rank crashes
restart in place), and per-job checkpoint directories that
:func:`~repro.oocs.api.sort_out_of_core` prunes on success.
"""

from __future__ import annotations

import os
import signal
import socket
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ReproError, Cancellation, JobNotFound, ServiceError
from repro.governor import CancelToken, JobGovernor
from repro.service import protocol
from repro.service.jobs import (
    JobRecord,
    apply_event,
    compaction_events,
    replay_jobs,
)
from repro.service.journal import JobJournal

#: Unix sockets cap sun_path around 108 bytes; fail early and clearly.
_MAX_SOCKET_PATH = 100


@dataclass(frozen=True)
class TenantPolicy:
    """One tenant's share of the service.

    ``max_running`` bounds the tenant's concurrently running jobs,
    ``max_queued`` its jobs waiting to run (a submit past it is shed,
    un-journaled, with a structured rejection — exactly the governor's
    shedding contract), and ``priority`` orders the scheduler and the
    governor queue (higher runs sooner; FIFO within a priority).
    """

    max_running: int = 2
    max_queued: int = 16
    priority: int = 0


class _ProgressToken(CancelToken):
    """The per-job cancel token, extended to report pass-boundary
    progress: every rank calls :meth:`pass_boundary`, the first call
    per index journals one ``checkpointed`` event."""

    def __init__(self, on_pass) -> None:
        super().__init__()
        self._on_pass = on_pass
        self._last_reported = 0
        self._report_lock = threading.Lock()
        self.drain_interrupt = False  # set before a drain-deadline cancel

    def pass_boundary(self, completed_index: int) -> None:
        report = False
        with self._report_lock:
            if completed_index > self._last_reported:
                self._last_reported = completed_index
                report = True
        if report:
            try:
                self._on_pass(completed_index)
            except Exception:
                pass  # progress reporting must never fail the sort
        super().pass_boundary(completed_index)


class SortService:
    """The long-running daemon. ``start()`` binds the socket and spawns
    the acceptor and executor threads; ``drain()``/``stop()`` wind it
    down. All protocol ops are also plain methods (``submit`` /
    ``status`` / ``cancel`` / ``result`` / ``health`` / ``drain``) so
    tests and embedders can drive the service without a socket.
    """

    def __init__(
        self,
        root: str | Path,
        socket_path: str | Path | None = None,
        workers: int = 2,
        max_concurrent: int | None = None,
        mem_quota_bytes: int | None = None,
        scratch_quota_bytes: int | None = None,
        tenants: dict[str, TenantPolicy] | None = None,
        default_policy: TenantPolicy | None = None,
        restart_policy=None,
        drain_timeout_s: float = 30.0,
        compact_min_bytes: int | None = 1 << 20,
        compact_min_events: int | None = 4096,
        log=None,
    ) -> None:
        if workers < 1:
            raise ServiceError(f"workers must be >= 1, got {workers}")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.socket_path = Path(
            socket_path if socket_path is not None else self.root / "service.sock"
        )
        if len(str(self.socket_path)) > _MAX_SOCKET_PATH:
            raise ServiceError(
                f"socket path {str(self.socket_path)!r} exceeds "
                f"{_MAX_SOCKET_PATH} bytes (AF_UNIX limit); pass a shorter "
                "socket_path"
            )
        self.workers = workers
        self.tenants = dict(tenants or {})
        self.default_policy = default_policy or TenantPolicy()
        self.restart_policy = restart_policy
        self.drain_timeout_s = drain_timeout_s
        self.compact_min_bytes = compact_min_bytes
        self.compact_min_events = compact_min_events
        self._log = log or (lambda line: None)
        self.governor = JobGovernor(
            max_concurrent=max_concurrent or workers,
            max_queue=workers,
            mem_quota_bytes=mem_quota_bytes,
            scratch_quota_bytes=scratch_quota_bytes,
            queue_timeout_s=24 * 3600.0,
        )
        self.journal = JobJournal(self.root / "journal.log")

        self._cv = threading.Condition()
        self._jobs: dict[str, JobRecord] = {}
        self._keys: dict[str, str] = {}  # idempotency key → job id
        self._pending: list[str] = []  # admitted, waiting for an executor
        self._resume: set[str] = set()  # pending jobs that must resume
        self._running: set[str] = set()
        self._tokens: dict[str, _ProgressToken] = {}
        self._tenant_running: dict[str, int] = {}
        self._draining = False
        self._stopping = False
        self._next_id = 1
        self._started_at = time.monotonic()
        self._recovered: dict = {}

        self._server: socket.socket | None = None
        self._threads: list[threading.Thread] = []
        self._conns: set[socket.socket] = set()
        self._conn_lock = threading.Lock()
        self._lock_fh = None
        self.stopped = threading.Event()

    # -- lifecycle -------------------------------------------------------

    def _acquire_lock(self) -> None:
        """One daemon per service root: an ``flock`` the kernel releases
        even on ``kill -9`` (a stale lock can never brick the root)."""
        import fcntl

        self._lock_fh = open(self.root / "daemon.lock", "w")
        try:
            fcntl.flock(self._lock_fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError as exc:
            self._lock_fh.close()
            self._lock_fh = None
            raise ServiceError(
                f"another daemon already serves {self.root} ({exc})"
            ) from exc

    def _maybe_compact(self, events: list[dict], jobs) -> dict | None:
        """Boot-time journal compaction (ROADMAP: implemented-but-unwired
        until now). When the replayed journal exceeds the size *or*
        event threshold — and the minimal history is actually smaller —
        rewrite it via :meth:`~repro.service.journal.JobJournal.compact`
        (crash-atomic: the journal is the old file or the new one,
        never a mixture) and journal a ``compacted`` service event so
        the rewrite itself is observable in replay. Returns the
        compaction summary, or None when the policy does not fire."""
        size = self.journal.size_bytes()
        over_bytes = (
            self.compact_min_bytes is not None
            and size >= self.compact_min_bytes
        )
        over_events = (
            self.compact_min_events is not None
            and len(events) >= self.compact_min_events
        )
        if not (over_bytes or over_events):
            return None
        minimal = compaction_events(jobs)
        # Compare against *job* events only: compaction always discards
        # historical service events (drain/recovered/compacted), and
        # counting them would make every boot re-compact an already
        # minimal journal just to strip its own compaction marker.
        job_events = sum(1 for e in events if e.get("job") is not None)
        if len(minimal) >= job_events:
            return None  # nothing to reclaim; keep the journal as-is
        self.journal.compact(minimal)
        summary = {
            "events_before": len(events),
            "events_after": len(minimal),
            "bytes_before": size,
            "bytes_after": self.journal.size_bytes(),
        }
        self.journal.append("compacted", **summary)
        return summary

    def _recover(self) -> None:
        """Repair the journal, replay it, and requeue unfinished work."""
        torn = self.journal.repair()
        events, _ = self.journal.replay()
        jobs, service_events = replay_jobs(events)
        compacted = self._maybe_compact(events, jobs)
        if compacted is not None:
            events, _ = self.journal.replay()
            jobs, service_events = replay_jobs(events)
        requeued, resumed = [], []
        with self._cv:
            self._jobs = jobs
            for record in jobs.values():
                if record.idempotency_key:
                    self._keys[record.idempotency_key] = record.job_id
                try:
                    self._next_id = max(self._next_id, int(record.job_id[1:]) + 1)
                except ValueError:
                    pass
            for record in sorted(jobs.values(), key=lambda r: r.submitted_seq):
                if record.terminal:
                    continue
                if record.state == "submitted":
                    # Crash landed between the submit ack and the
                    # admitted record; finish the admission now.
                    self._transition_locked(record.job_id, "admitted")
                if record.state in ("running", "checkpointed"):
                    self._resume.add(record.job_id)
                    resumed.append(record.job_id)
                else:
                    requeued.append(record.job_id)
                self._pending.append(record.job_id)
        self._recovered = {
            "torn_bytes_repaired": torn,
            "events_replayed": len(events),
            "service_events": len(service_events),
            "requeued": requeued,
            "resumed": resumed,
            "compacted": compacted,
        }
        if requeued or resumed or torn:
            self.journal.append(
                "recovered",
                requeued=requeued or None,
                resumed=resumed or None,
                torn_bytes=torn or None,
            )
        self._log(
            f"recovered: {len(events)} events, {len(requeued)} requeued, "
            f"{len(resumed)} resumed, {torn} torn bytes repaired"
            + (
                f", compacted {compacted['events_before']}→"
                f"{compacted['events_after']} events"
                if compacted
                else ""
            )
        )

    def start(self) -> "SortService":
        self._acquire_lock()
        self._recover()
        self.socket_path.unlink(missing_ok=True)
        self._server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._server.bind(str(self.socket_path))
        self._server.listen(64)
        acceptor = threading.Thread(
            target=self._accept_loop, name="service-accept", daemon=True
        )
        acceptor.start()
        self._threads.append(acceptor)
        for i in range(self.workers):
            worker = threading.Thread(
                target=self._worker_loop, name=f"service-exec-{i}", daemon=True
            )
            worker.start()
            self._threads.append(worker)
        self._log(f"serving on {self.socket_path} (pid {os.getpid()})")
        return self

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT → graceful drain then stop (main thread only)."""

        def _handle(signum, frame):
            self._log(f"signal {signum}: draining")
            threading.Thread(
                target=self._drain_and_stop, name="service-drain", daemon=True
            ).start()

        signal.signal(signal.SIGTERM, _handle)
        signal.signal(signal.SIGINT, _handle)

    def _drain_and_stop(self) -> None:
        try:
            self.drain()
        finally:
            self.stop()

    def stop(self) -> None:
        """Tear the daemon down (no drain: callers wanting a graceful
        exit call :meth:`drain` first). Joins every service thread."""
        with self._cv:
            self._stopping = True
            self._cv.notify_all()
        if self._server is not None:
            # close() alone does not wake a thread blocked in accept()
            # on Linux; shutdown() does (accept raises EINVAL).
            try:
                self._server.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._server.close()
            except OSError:
                pass
            self._server = None
        with self._conn_lock:
            conns = list(self._conns)
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        for thread in self._threads:
            thread.join(timeout=30)
        self._threads = []
        self.socket_path.unlink(missing_ok=True)
        self.journal.close()
        if self._lock_fh is not None:
            self._lock_fh.close()
            self._lock_fh = None
        self.stopped.set()

    # -- journal-backed transitions --------------------------------------

    def _transition_locked(self, job_id: str, kind: str, **fields) -> JobRecord:
        """Append one event and fold it into the in-memory mirror.
        Caller holds ``self._cv`` (it is re-entrant); the append's fsync
        happens under the lock so mirror order equals journal order."""
        seq = self.journal.append(kind, job=job_id, **fields)
        event = {"seq": seq, "kind": kind, "job": job_id}
        event.update(fields)
        record = apply_event(self._jobs, event)
        self._cv.notify_all()
        return record

    def _transition(self, job_id: str, kind: str, **fields) -> JobRecord:
        with self._cv:
            return self._transition_locked(job_id, kind, **fields)

    def _policy(self, tenant: str) -> TenantPolicy:
        return self.tenants.get(tenant, self.default_policy)

    # -- protocol ops ----------------------------------------------------

    def submit(self, spec: dict, tenant: str = "default",
               key: str | None = None) -> dict:
        spec = protocol.validate_spec(spec)
        with self._cv:
            if key is not None and key in self._keys:
                record = self._jobs[self._keys[key]]
                return protocol.ok(
                    job=record.job_id, state=record.state, duplicate=True
                )
            if self._draining or self._stopping:
                return protocol.error(
                    "AdmissionRejected", "service is draining"
                )
            policy = self._policy(tenant)
            queued = sum(
                1 for job_id in self._pending
                if self._jobs[job_id].tenant == tenant
            )
            if queued >= policy.max_queued:
                # Shed, not journaled: a shed creates no durable job, so
                # a later retry (same key) gets a fresh chance.
                return protocol.error(
                    "AdmissionRejected",
                    f"tenant {tenant!r} queue full "
                    f"({queued} of {policy.max_queued})",
                )
            job_id = f"j{self._next_id:06d}"
            self._next_id += 1
            self._transition_locked(
                job_id, "submitted", tenant=tenant, spec=spec, key=key
            )
            if key is not None:
                self._keys[key] = job_id
            self._transition_locked(job_id, "admitted")
            self._pending.append(job_id)
            self._cv.notify_all()
            return protocol.ok(job=job_id, state="admitted", duplicate=False)

    def _record(self, job_id: str) -> JobRecord:
        record = self._jobs.get(job_id)
        if record is None:
            raise JobNotFound(job_id)
        return record

    def status(self, job_id: str) -> dict:
        with self._cv:
            record = self._record(job_id)
            out = record.public()
            if job_id in self._pending:
                out["queue_position"] = self._pending.index(job_id)
            return protocol.ok(**out)

    def result(self, job_id: str) -> dict:
        with self._cv:
            record = self._record(job_id)
            if not record.terminal:
                return protocol.error(
                    "JobPending",
                    f"job {job_id} is {record.state}, not finished",
                )
            return protocol.ok(**record.public())

    def cancel(self, job_id: str, reason: str = "cancelled by client") -> dict:
        with self._cv:
            record = self._record(job_id)
            if record.terminal:
                return protocol.ok(job=job_id, state=record.state)
            if job_id in self._pending:
                self._pending.remove(job_id)
                self._resume.discard(job_id)
                record = self._transition_locked(
                    job_id, "cancelled", reason=reason
                )
                return protocol.ok(job=job_id, state=record.state)
            token = self._tokens.get(job_id)
            if token is not None:
                token.cancel(reason)
            # The executor journals the terminal state when the ranks
            # unwind; until then the job is honestly still running.
            return protocol.ok(job=job_id, state=record.state, cancelling=True)

    def health(self) -> dict:
        with self._cv:
            by_state: dict[str, int] = {}
            for record in self._jobs.values():
                by_state[record.state] = by_state.get(record.state, 0) + 1
            return protocol.ok(
                pid=os.getpid(),
                uptime_s=round(time.monotonic() - self._started_at, 3),
                draining=self._draining,
                jobs=by_state,
                pending=len(self._pending),
                running=sorted(self._running),
                governor=self.governor.snapshot(),
                tenant_running=dict(self._tenant_running),
                journal={
                    "path": str(self.journal.path),
                    "bytes": self.journal.size_bytes(),
                },
                recovered=self._recovered,
            )

    def drain(self, deadline_s: float | None = None) -> dict:
        """Stop admission and new starts; finish in-flight jobs under
        ``deadline_s``; cancel-interrupt the rest (their checkpoints
        stay valid and their journal state stays resumable); journal
        the drain. Idempotent; returns the drain summary."""
        deadline_s = self.drain_timeout_s if deadline_s is None else deadline_s
        with self._cv:
            already = self._draining
            self._draining = True
            self._cv.notify_all()
        deadline = time.monotonic() + deadline_s
        while time.monotonic() < deadline:
            with self._cv:
                if not self._running:
                    break
            time.sleep(0.05)
        interrupted = []
        with self._cv:
            for job_id in sorted(self._running):
                token = self._tokens.get(job_id)
                if token is not None:
                    token.drain_interrupt = True
                    token.cancel("service drain deadline")
                    interrupted.append(job_id)
        # Give interrupted ranks one unwind window to reach their
        # executors (which leave the journal state resumable).
        grace = time.monotonic() + 10.0
        while time.monotonic() < grace:
            with self._cv:
                if not self._running:
                    break
            time.sleep(0.05)
        with self._cv:
            finished = not self._running
            pending = list(self._pending)
        summary = {
            "drained_clean": finished and not interrupted,
            "interrupted": interrupted,
            "still_pending": pending,
            "deadline_s": deadline_s,
        }
        if not already:
            self.journal.append("drain", **summary)
            self._log(
                f"drained ({'clean' if summary['drained_clean'] else 'deadline'}): "
                f"{len(interrupted)} interrupted, {len(pending)} left queued"
            )
        return protocol.ok(**summary)

    def handle_request(self, request: dict) -> dict:
        op = request.get("op")
        try:
            if op == "submit":
                return self.submit(
                    request.get("spec", {}),
                    tenant=request.get("tenant", "default"),
                    key=request.get("key"),
                )
            if op == "status":
                return self.status(request.get("job", ""))
            if op == "result":
                return self.result(request.get("job", ""))
            if op == "cancel":
                return self.cancel(
                    request.get("job", ""),
                    reason=request.get("reason", "cancelled by client"),
                )
            if op == "health":
                return self.health()
            if op == "drain":
                return self.drain(request.get("deadline_s"))
            return protocol.error("ServiceError", f"unknown op {op!r}")
        except ReproError as exc:
            return protocol.error(exc)

    # -- socket plumbing -------------------------------------------------

    def _accept_loop(self) -> None:
        server = self._server
        while True:
            try:
                conn, _ = server.accept()
            except OSError:
                return  # socket closed: stopping
            with self._conn_lock:
                if self._stopping:
                    conn.close()
                    return
                self._conns.add(conn)
            handler = threading.Thread(
                target=self._serve_conn, args=(conn,),
                name="service-conn", daemon=True,
            )
            handler.start()

    def _serve_conn(self, conn: socket.socket) -> None:
        try:
            fh = conn.makefile("rb")
            while True:
                try:
                    request = protocol.recv_message(fh)
                except (ServiceError, OSError):
                    break  # framing violation or dead peer: drop
                if request is None:
                    break
                try:
                    protocol.send_message(conn, self.handle_request(request))
                except OSError:
                    break
        finally:
            with self._conn_lock:
                self._conns.discard(conn)
            try:
                conn.close()
            except OSError:
                pass

    # -- the scheduler and executors --------------------------------------

    def _pick_locked(self) -> str | None:
        """The next job an executor may claim: highest tenant priority,
        FIFO within it, tenants under their max_running, never while
        draining."""
        if self._draining:
            return None
        best = None
        best_rank = None
        for job_id in self._pending:
            record = self._jobs[job_id]
            policy = self._policy(record.tenant)
            if self._tenant_running.get(record.tenant, 0) >= policy.max_running:
                continue
            rank = (-policy.priority, record.submitted_seq)
            if best_rank is None or rank < best_rank:
                best, best_rank = job_id, rank
        return best

    def _worker_loop(self) -> None:
        while True:
            with self._cv:
                job_id = None
                while not self._stopping:
                    job_id = self._pick_locked()
                    if job_id is not None:
                        break
                    self._cv.wait(0.2)
                if job_id is None:
                    return
                self._pending.remove(job_id)
                resume = job_id in self._resume
                self._resume.discard(job_id)
                record = self._jobs[job_id]
                tenant = record.tenant
                self._tenant_running[tenant] = (
                    self._tenant_running.get(tenant, 0) + 1
                )
                self._running.add(job_id)
                token = _ProgressToken(
                    lambda idx, jid=job_id: self._transition(
                        jid, "checkpointed", **{"pass": idx}
                    )
                )
                self._tokens[job_id] = token
            try:
                self._execute(job_id, token, resume)
            finally:
                with self._cv:
                    self._running.discard(job_id)
                    self._tokens.pop(job_id, None)
                    count = self._tenant_running.get(tenant, 1) - 1
                    if count:
                        self._tenant_running[tenant] = count
                    else:
                        self._tenant_running.pop(tenant, None)
                    self._cv.notify_all()

    def job_dir(self, job_id: str) -> Path:
        return self.root / "jobs" / job_id

    def _execute(self, job_id: str, token: _ProgressToken, resume: bool) -> None:
        from repro.oocs.api import job_demands, job_from_spec, run_job
        from repro.oocs.report import output_digest, result_summary
        from repro.records.generators import generate

        record = self._jobs[job_id]
        spec = record.spec
        self._transition(job_id, "running")
        self._log(
            f"{job_id}: running ({record.tenant}, {spec['algorithm']}, "
            f"n={spec['records']}{', resume' if resume else ''})"
        )
        jobdir = self.job_dir(job_id)
        workdir = jobdir / "work"
        ckptdir = jobdir / "ckpt"
        workdir.mkdir(parents=True, exist_ok=True)
        ticket = None
        try:
            program, job = job_from_spec(
                spec,
                cancel=token,
                restart_policy=self.restart_policy,
                checkpoint_dir=ckptdir,
                resume=resume,
            )
            records = generate(
                spec["workload"], job.fmt, job.n, seed=spec["seed"]
            )
            mem, scratch = job_demands(program, job)
            policy = self._policy(record.tenant)
            ticket = self.governor.admit(
                mem_bytes=mem, scratch_bytes=scratch,
                priority=policy.priority, cancel=token,
            )
            result = run_job(
                program, job, records, workdir=workdir, verify=spec["verify"]
            )
            digest = output_digest(result)
            summary = result_summary(
                result, verified=spec["verify"], digest=digest
            )
            summary.setdefault("governor", {}).update(ticket.snapshot())
            summary["workdir"] = str(workdir)
            self._transition(job_id, "done", result=summary)
            self._log(f"{job_id}: done (digest {digest[:12]}…)")
        except Cancellation as exc:
            if token.drain_interrupt:
                # Drain interrupt: no terminal event — the journal keeps
                # the job running/checkpointed, and the next start
                # resumes it from its surviving checkpoint.
                self._log(f"{job_id}: interrupted by drain ({exc})")
            else:
                self._transition(job_id, "cancelled", reason=str(exc))
                self._log(f"{job_id}: cancelled ({exc})")
        except Exception as exc:  # structured: every failure is journaled
            self._transition(
                job_id, "failed",
                error={"type": type(exc).__name__, "message": str(exc)[:500]},
            )
            self._log(f"{job_id}: failed ({type(exc).__name__}: {exc})")
        finally:
            if ticket is not None:
                ticket.release()
