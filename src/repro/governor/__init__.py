"""Resource governance: cooperative cancellation, scratch reclaim,
admission.

The runtime-management half of robustness (Rahn–Sanders–Singler's point
that engineering external sorts is dominated by resource management):

* :mod:`repro.governor.cancel` — :class:`CancelToken`, the cooperative
  cancellation/deadline switch observed at every blocking seam;
* :mod:`repro.governor.runtime` — :class:`RunGovernor`, one run's
  scratch accounting and its disk-full reclaim;
* :mod:`repro.governor.admission` — :class:`JobGovernor`, the
  admission gate shared by concurrent jobs (quotas, bounded FIFO
  queueing, queue timeouts, structured shedding).

A run's memory is not governed at runtime: the run reserves its declared
buffers in the buffer pool before any rank starts, a memory budget
(:meth:`~repro.membuf.BufferPool.set_budget`) is a ceiling on those
reservations, and every pass runs at the job's pipeline depth.
"""

from repro.governor.admission import (
    ADMISSION_KEYS,
    AdmissionTicket,
    JobGovernor,
)
from repro.governor.cancel import CancelToken, maybe_sleep
from repro.governor.runtime import RunGovernor, attach_governor

__all__ = [
    "ADMISSION_KEYS",
    "AdmissionTicket",
    "CancelToken",
    "JobGovernor",
    "RunGovernor",
    "attach_governor",
    "maybe_sleep",
]
