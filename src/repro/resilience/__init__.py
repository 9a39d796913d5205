"""Resilience layer: deadlines, retry policies, breakers, recovery.

Three small modules, each owning one failure domain of the serving stack
(a dead lane worker is re-spawned by its own lane, see
:mod:`repro.parallel.lanes`):

* :mod:`repro.resilience.policy` — :class:`Deadline` budgets (minted at
  network ingress, propagated into worker batch payloads) and
  :class:`RetryPolicy` (capped exponential backoff with seeded,
  deterministic jitter) shared by client reconnects and server
  redispatch.
* :mod:`repro.resilience.breaker` — closed/open/half-open circuit
  breakers with failure-rate windows, one per tenant.
* :mod:`repro.resilience.recovery` — whole-server crash-restart:
  persist tenant serving state under ``--state-dir`` with the store
  layer's crash-atomic discipline, verify + replay + rebuild on restart.
"""

from repro.resilience.breaker import BreakerConfig, CircuitBreaker
from repro.resilience.policy import Deadline, RetryPolicy
from repro.resilience.recovery import (
    HostState,
    RecoveredTenant,
    doctor_report,
    recover_host,
)

__all__ = [
    "BreakerConfig",
    "CircuitBreaker",
    "Deadline",
    "HostState",
    "RecoveredTenant",
    "RetryPolicy",
    "doctor_report",
    "recover_host",
]
