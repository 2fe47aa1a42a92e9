"""Resource governance: cooperative cancellation, budgets, admission.

The runtime-management half of robustness (Rahn–Sanders–Singler's point
that engineering external sorts is dominated by resource management):

* :mod:`repro.governor.cancel` — :class:`CancelToken`, the cooperative
  cancellation/deadline switch observed at every blocking seam;
* :mod:`repro.governor.runtime` — :class:`RunGovernor`, one run's
  scratch accounting, disk-full degradation ladder, and adaptive
  pipeline-depth downshift under buffer-pool backpressure;
* :mod:`repro.governor.admission` — :class:`JobGovernor`, the
  admission gate shared by concurrent jobs (quotas, bounded FIFO
  queueing, queue timeouts, structured shedding).
"""

from repro.governor.admission import (
    ADMISSION_KEYS,
    AdmissionTicket,
    JobGovernor,
)
from repro.governor.cancel import CancelToken, maybe_sleep
from repro.governor.runtime import (
    PRESSURE_STALLS,
    RunGovernor,
    attach_governor,
)

__all__ = [
    "ADMISSION_KEYS",
    "AdmissionTicket",
    "CancelToken",
    "JobGovernor",
    "PRESSURE_STALLS",
    "RunGovernor",
    "attach_governor",
    "maybe_sleep",
]
