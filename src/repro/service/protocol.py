"""The JSON-lines protocol on the daemon's local socket.

One connection carries any number of request/response pairs; each is a
single newline-terminated JSON object. Requests name an ``op`` —
``submit`` / ``status`` / ``cancel`` / ``result`` / ``health`` /
``drain`` — plus op-specific fields; responses are ``{"ok": true, ...}``
or ``{"ok": false, "error": {"type": ..., "message": ...}}``. Everything
is idempotent by construction: ``submit`` dedupes on its idempotency
key, ``cancel``/``drain`` are level-triggered, and the reads are pure —
which is what lets the client retry any request after a reconnect
without double-effects.

Job specs are the ``sort`` CLI's specs (the service runs exactly the
sorts the CLI runs): :func:`validate_spec` normalizes a request's spec
against :data:`~repro.oocs.api.SPEC_FIELDS` and rejects unknown fields,
illegal values and shapes the algorithm refuses *before* anything is
journaled.
"""

from __future__ import annotations

import json
import socket

from repro.errors import ServiceError

#: Ops the daemon serves.
OPS = ("submit", "status", "cancel", "result", "health", "drain")

#: Maximum accepted request line (a spec is a few hundred bytes; a
#: megabyte means a confused or hostile peer).
MAX_LINE_BYTES = 1 << 20


def validate_spec(spec: dict) -> dict:
    """Normalize a submitted job spec; raises
    :class:`~repro.errors.ServiceError` on a field
    :data:`~repro.oocs.api.SPEC_FIELDS` does not declare, a value of
    another type than the field's default or outside its legal values,
    or a shape the algorithm refuses — the same check the ``sort`` CLI
    makes, through :func:`~repro.oocs.api.job_from_spec`, before a
    journal record exists."""
    from repro.errors import ConfigError, DimensionError
    from repro.oocs.api import SPEC_FIELDS, job_from_spec

    if not isinstance(spec, dict):
        raise ServiceError(f"job spec must be an object, got {type(spec).__name__}")
    unknown = set(spec) - set(SPEC_FIELDS)
    if unknown:
        raise ServiceError(f"unknown job-spec field(s): {sorted(unknown)}")
    out = {name: field.default for name, field in SPEC_FIELDS.items()}
    out.update(spec)
    for name, (default, legal, _help) in SPEC_FIELDS.items():
        value = out[name]
        if type(value) is not type(default):
            raise ServiceError(
                f"spec field {name!r} must be of type {type(default).__name__}"
            )
        if isinstance(legal, tuple) and value not in legal:
            raise ServiceError(
                f"unknown {name} {value!r}; expected one of {sorted(legal)}"
            )
        if isinstance(legal, int) and value < legal:
            raise ServiceError(f"spec field {name!r} must be >= {legal}")
    try:
        job_from_spec(out)
    except (ConfigError, DimensionError) as exc:
        raise ServiceError(
            f"{out['algorithm']} cannot run records={out['records']}, "
            f"buffer={out['buffer']}, processors={out['processors']}: {exc}"
        ) from exc
    return out


# -- framing ---------------------------------------------------------------


def send_message(sock: socket.socket, message: dict) -> None:
    """Write one JSON line (the whole message or an exception)."""
    data = json.dumps(message, separators=(",", ":"), sort_keys=True) + "\n"
    sock.sendall(data.encode())


def recv_message(fh) -> dict | None:
    """Read one JSON line from a socket makefile; None on EOF.

    Raises :class:`~repro.errors.ServiceError` on an over-long or
    unparsable line — the connection is then dropped (a framing error
    leaves no way to find the next message boundary safely).
    """
    line = fh.readline(MAX_LINE_BYTES + 1)
    if not line:
        return None
    if len(line) > MAX_LINE_BYTES:
        raise ServiceError(f"protocol line exceeds {MAX_LINE_BYTES} bytes")
    try:
        message = json.loads(line)
    except ValueError as exc:
        raise ServiceError(f"unparsable protocol line: {exc}") from exc
    if not isinstance(message, dict):
        raise ServiceError("protocol messages must be JSON objects")
    return message


def ok(**fields) -> dict:
    out = {"ok": True}
    out.update(fields)
    return out


def error(exc_or_type, message: str | None = None) -> dict:
    """A structured error response; accepts an exception or a type name."""
    if isinstance(exc_or_type, BaseException):
        type_name = type(exc_or_type).__name__
        message = str(exc_or_type)
    else:
        type_name = str(exc_or_type)
    return {"ok": False, "error": {"type": type_name, "message": message or ""}}
