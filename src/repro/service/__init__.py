"""Sort-as-a-service: a crash-safe, long-running daemon over the
out-of-core sorts.

Every robustness layer below this one hardens a single
:func:`~repro.oocs.api.sort_out_of_core` call; this package hardens the
*service process* around many of them — the deployment-engineering half
of external sorting Rahn–Sanders argue is where such systems are won:

* :mod:`repro.service.journal` — :class:`JobJournal`, the fsync'd,
  append-only, torn-write-tolerant write-ahead log of job state
  transitions. Every change of a job's life is durable before it is
  acknowledged, so a ``kill -9`` of the daemon loses nothing.
* :mod:`repro.service.jobs` — the job state machine
  (``submitted → admitted → running → checkpointed* → done | failed |
  cancelled``) and its replay, including idempotency-key dedup so a
  retried submission can never create a second job.
* :mod:`repro.service.protocol` — the JSON-lines request/response
  protocol on the daemon's local socket (``submit`` / ``status`` /
  ``cancel`` / ``result`` / ``health`` / ``drain``) and job-spec
  validation.
* :mod:`repro.service.daemon` — :class:`SortService`, the daemon:
  per-tenant quotas and priorities mapped onto the
  :class:`~repro.governor.JobGovernor` queue, recovery-on-restart
  (replay the journal, requeue queued jobs, resume crashed ones from
  their pass-boundary checkpoints), and graceful drain on SIGTERM.
* :mod:`repro.service.client` — :class:`ServiceClient`, the client
  library: connect/request timeouts, exponential-backoff reconnect,
  and safe idempotent retry.
"""

from repro.service.client import ServiceClient
from repro.service.daemon import SortService, TenantPolicy
from repro.service.jobs import JOB_STATES, TERMINAL_STATES, JobRecord, replay_jobs
from repro.service.journal import JobJournal
from repro.service.protocol import validate_spec

__all__ = [
    "JOB_STATES",
    "JobJournal",
    "JobRecord",
    "ServiceClient",
    "SortService",
    "TERMINAL_STATES",
    "TenantPolicy",
    "replay_jobs",
    "validate_spec",
]
