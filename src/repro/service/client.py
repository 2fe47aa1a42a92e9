"""The service client: timeouts, exponential-backoff reconnect, and
idempotent retry.

The protocol is request/response over a local socket, and every op is
idempotent (``submit`` carries an idempotency key, ``cancel``/``drain``
are level-triggered, reads are pure), so the client's retry policy is
simple and safe: on any transport failure — refused connection while
the daemon restarts, a connection the daemon's death severed mid-reply,
a timeout — drop the connection, back off exponentially, reconnect, and
resend the same request. A ``submit`` retried across a daemon crash
either finds its journaled job (``duplicate: true``) or creates it
fresh; either way exactly one job exists.
"""

from __future__ import annotations

import socket
import time
import uuid
from pathlib import Path

from repro.errors import JobNotFound, ServiceError
from repro.service import protocol

#: Error types the daemon reports that map onto local exception classes.
_ERROR_CLASSES = {"JobNotFound": JobNotFound}


class ServiceClient:
    """One connection (lazily opened, transparently reopened) to a
    :class:`~repro.service.daemon.SortService` daemon."""

    def __init__(
        self,
        socket_path: str | Path,
        connect_timeout_s: float = 5.0,
        request_timeout_s: float = 120.0,
        retries: int = 5,
        backoff_s: float = 0.1,
        backoff_max_s: float = 2.0,
    ) -> None:
        self.socket_path = str(socket_path)
        self.connect_timeout_s = connect_timeout_s
        self.request_timeout_s = request_timeout_s
        self.retries = retries
        self.backoff_s = backoff_s
        self.backoff_max_s = backoff_max_s
        self._sock: socket.socket | None = None
        self._fh = None

    # -- transport -------------------------------------------------------

    def _connect(self) -> None:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(self.connect_timeout_s)
        try:
            sock.connect(self.socket_path)
        except OSError:
            sock.close()
            raise
        sock.settimeout(self.request_timeout_s)
        self._sock = sock
        self._fh = sock.makefile("rb")

    def close(self) -> None:
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:
                pass
            self._fh = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _request(self, message: dict, timeout_s: float | None = None) -> dict:
        """Send one request, retrying over reconnects; raises
        :class:`~repro.errors.ServiceError` (or a mapped subclass) on a
        structured error response or after retries are exhausted."""
        last: Exception | None = None
        delay = self.backoff_s
        for attempt in range(self.retries + 1):
            if attempt:
                time.sleep(delay)
                delay = min(delay * 2, self.backoff_max_s)
            try:
                if self._sock is None:
                    self._connect()
                if timeout_s is not None:
                    self._sock.settimeout(timeout_s)
                try:
                    protocol.send_message(self._sock, message)
                    response = protocol.recv_message(self._fh)
                finally:
                    if timeout_s is not None and self._sock is not None:
                        self._sock.settimeout(self.request_timeout_s)
                if response is None:  # daemon closed the connection
                    raise ConnectionError("connection closed by daemon")
            except (OSError, ConnectionError) as exc:
                self.close()
                last = exc
                continue
            return self._check(response)
        raise ServiceError(
            f"service at {self.socket_path} unreachable after "
            f"{self.retries + 1} attempts: {last}"
        ) from last

    @staticmethod
    def _check(response: dict) -> dict:
        if response.get("ok"):
            return response
        err = response.get("error") or {}
        type_name = err.get("type", "ServiceError")
        message = err.get("message", "")
        cls = _ERROR_CLASSES.get(type_name)
        if cls is JobNotFound:
            # message is "unknown job 'jNNNNNN'" — recover the id.
            raise JobNotFound(message.split()[-1].strip("'\""))
        raise ServiceError(f"{type_name}: {message}")

    # -- ops -------------------------------------------------------------

    def submit(self, spec: dict | None = None, tenant: str = "default",
               key: str | None = None, **spec_fields) -> dict:
        """Submit a job; returns ``{"job": id, "state": ..., "duplicate":
        ...}``. An idempotency key is generated when not supplied, so
        the *transport* retries inside this call can never double-submit
        — pass an explicit ``key`` to extend that guarantee across your
        own retries."""
        spec = dict(spec or {})
        spec.update(spec_fields)
        if key is None:
            key = uuid.uuid4().hex
        return self._request(
            {"op": "submit", "spec": spec, "tenant": tenant, "key": key}
        )

    def status(self, job_id: str) -> dict:
        return self._request({"op": "status", "job": job_id})

    def result(self, job_id: str) -> dict:
        return self._request({"op": "result", "job": job_id})

    def cancel(self, job_id: str, reason: str = "cancelled by client") -> dict:
        return self._request({"op": "cancel", "job": job_id, "reason": reason})

    def health(self) -> dict:
        return self._request({"op": "health"})

    def drain(self, deadline_s: float | None = None,
              timeout_s: float | None = None) -> dict:
        """Ask the daemon to drain. The response only arrives once the
        drain completes, so the read timeout must cover the deadline."""
        if timeout_s is None:
            timeout_s = (deadline_s or 30.0) + 30.0
        return self._request(
            {"op": "drain", "deadline_s": deadline_s}, timeout_s=timeout_s
        )

    def wait(self, job_id: str, timeout_s: float = 300.0,
             poll_s: float = 0.1) -> dict:
        """Poll until ``job_id`` reaches a terminal state; returns its
        final record (the ``result`` response). Raises
        :class:`~repro.errors.ServiceError` on timeout."""
        deadline = time.monotonic() + timeout_s
        while True:
            status = self.status(job_id)
            if status["state"] in ("done", "failed", "cancelled"):
                return self.result(job_id)
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"job {job_id} still {status['state']} after {timeout_s}s"
                )
            time.sleep(poll_s)
