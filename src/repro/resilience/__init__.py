"""Policy-driven fault tolerance around the backend dispatch seam.

LAPACK90's contract (§4 of the paper) is that a driver either computes
or *says why it could not* through ``INFO`` — it never silently
corrupts.  This package extends that contract from numerical failures
to *infrastructure* failures: a crashing accelerated kernel, a hung
substrate, a backend that went bad mid-process.

Four cooperating mechanisms, all scoped to the ``(backend, routine)``
dispatch seam in :mod:`repro.backends.kernels`:

* **Retry with escalation** (:mod:`.dispatch`) — transient kernel
  failures retry in place (array arguments snapshotted and restored),
  then escalate accelerated→reference.  Contract verdicts
  (``LinAlgError``) are never retried.
* **Circuit breakers** (:mod:`.breaker`) — consecutive failures of a
  pair trip it open; dispatch then routes to reference until a
  cooldown-gated half-open probe succeeds.
* **Deadlines** (:mod:`.deadlines`) — ``repro.deadline(seconds)``
  scopes a wall-clock budget, checked at driver entry and between
  expert-driver stages; exceeding it raises
  :class:`~repro.errors.DeadlineExceeded` carrying the partial ``Info``.
* **Health** (:mod:`.health`) — ``repro.healthcheck()`` runs a real
  solve per registered backend and reports breaker states.

Every attempt is visible on the driver's ``Info`` handle
(``info.attempts`` / ``info.breaker``); the chaos harness in
:mod:`repro.faults` exercises all of it deterministically.  lalint rule
LA023 pins the package's shared registries behind
:data:`repro._sync.STATE_LOCK` and their owner modules.
"""

from __future__ import annotations

from .breaker import breaker_state, reset_breakers, states as breaker_states
from .config import (ResiliencePolicy, get_resilience, resilience_policy,
                     set_resilience)
from .deadlines import deadline, remaining
from .dispatch import reset_open_warnings
from .health import healthcheck

__all__ = [
    "ResiliencePolicy",
    "get_resilience",
    "set_resilience",
    "resilience_policy",
    "deadline",
    "remaining",
    "healthcheck",
    "breaker_state",
    "breaker_states",
    "reset_breakers",
    "reset_open_warnings",
]
