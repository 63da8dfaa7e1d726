"""The resilient dispatch seam: retries, escalation, breakers, chaos.

:func:`call` is what :class:`repro.backends.kernels.KernelProxy`
delegates to.  The registry's ``resolve`` and ``get_backend_name`` are
passed *in* as parameters rather than imported, so this package never
imports :mod:`repro.backends` at module level (the backends package
imports :mod:`repro.faults` and the drivers import the backends — a
top-level import here would close a cycle).

While no chaos is armed and no breaker is tracking, :func:`call`
resolves the kernel once and calls it directly when the reference
backend is selected or when the kernel is declared *transactional*: a
function attribute ``transactional = True`` promising that it raises
only before its first write to any operand (every accelerated adapter
is; see :mod:`repro.backends.accelerated`).  That path adds two flag
reads, one name compare and one attribute read over the pre-resilience
seam: no snapshot, no policy read, no breaker bookkeeping.  A
transactional kernel that fails anyway has left its operands pristine,
so its failure enters the ladder below as attempt #1 already failed,
with the same call-log record and breaker failure, and the ladder
snapshots only then.  Everything else — foreign backends, reference
fallbacks under a non-reference selection, armed chaos, tracked
breakers — goes through :func:`_resilient_call` from the start:

1. **Classify.**  ``LinAlgError`` is a contract *verdict* (singular
   matrix, failed convergence): never retried, counts as breaker
   success, re-raised as-is.  ``KeyboardInterrupt``/``SystemExit``
   always propagate.  Anything else is a *transient kernel failure*.
2. **Retry.**  Transient failures retry the same kernel up to the
   policy's ``retries`` budget.  Because kernels mutate their array
   arguments in place, the arrays are snapshotted before the first
   attempt the ladder makes itself and restored before every
   re-attempt.
3. **Escalate.**  When a non-reference rung exhausts its budget, the
   call escalates to the reference substrate (the accelerated→reference
   ladder; the drivers' own simple→expert ladder sits above this seam).
4. **Break.**  Consecutive transient failures trip the pair's circuit
   breaker (:mod:`repro.resilience.breaker`); an open breaker routes
   straight to reference with a rate-limited
   :class:`~repro.errors.BackendFallbackWarning`.
5. **Record.**  Failures, escalations, and breaker transitions land on
   the driver's open call-log frame, surfacing as ``info.attempts`` /
   ``info.breaker``.  Clean first-attempt successes record nothing.
"""

from __future__ import annotations

import warnings

import numpy as np

from .. import faults
from ..errors import BackendFallbackWarning, LinAlgError
from . import breaker, calllog
from .config import get_resilience
from .ratelimit import RateLimiter

__all__ = ["call", "snapshot_set", "exempt_kernels",
           "reset_open_warnings"]

_OPEN_WARNINGS = RateLimiter()

#: Lazily-built set of kernel names whose driver specs opt out of the
#: retry/escalation ladder (e.g. kernels consuming stateful RNGs, where
#: a re-attempt would observe different inputs).
_EXEMPT: frozenset | None = None


def exempt_kernels() -> frozenset:
    """Kernel names whose specs opt out of retry/escalation."""
    global _EXEMPT
    # Deliberately lock-free: importing SPECS under STATE_LOCK could
    # deadlock against the import lock at first use; the computed set is
    # deterministic, so racing initialisations agree.
    if _EXEMPT is None:  # laflow: benign-race — idempotent lazy init; racing builders compute identical sets
        from ..specs import SPECS
        _EXEMPT = frozenset(  # laflow: benign-race — idempotent lazy init; racing builders compute identical sets
            spec.kernel for spec in SPECS.values()
            if spec.breaker_exempt and spec.kernel is not None)
    return _EXEMPT  # laflow: benign-race — frozenset snapshot, immutable once built


def reset_open_warnings() -> None:
    """Forget breaker-open warning history (tests)."""
    _OPEN_WARNINGS.reset()


def call(routine, dtype, args, kwargs, resolve, get_backend_name):
    """Dispatch one kernel call through the resilience ladder."""
    selected = get_backend_name()
    kernel = resolve(routine, dtype)
    armed = faults.CHAOS_ACTIVE or breaker.TRACKING  # laflow: benign-race — fast-path gates; a stale False serves the call as if it began before chaos/tracking was armed, a stale True only takes the full ladder
    if not armed and selected == "reference":
        return kernel(*args, **kwargs)
    if armed or not getattr(kernel, "transactional", False):
        return _resilient_call(routine, dtype, args, kwargs, resolve,
                               selected, kernel)
    try:
        return kernel(*args, **kwargs)
    except (LinAlgError, KeyboardInterrupt, SystemExit):
        raise
    except Exception as exc:
        failed = exc
    # The operands are pristine: replay the failure as the ladder's
    # attempt #1 rather than as a fresh start (outside the handler, so
    # whatever the ladder raises is not chained to this failure).
    return _resilient_call(routine, dtype, args, kwargs, resolve,
                           selected, kernel, failed=failed)


def snapshot_set(args, kwargs) -> list:
    """The operands the retry machinery snapshots and restores: every
    ndarray among the positional and keyword arguments, in call order.

    This is the resilience layer's mutation contract — a kernel operand
    that is written in place but is *not* in this set cannot be rolled
    back before a re-attempt.  lalint's LA019 verifies the driver side
    of that contract statically against the spec effect signatures.
    """
    return [value for value in list(args) + list(kwargs.values())
            if isinstance(value, np.ndarray)]


def _snapshot(args, kwargs):
    return [(value, value.copy()) for value in snapshot_set(args, kwargs)]


def _restore(saved):
    for arr, snap in saved:
        arr[...] = snap


def _warn_open(serving, routine, window):
    emit, suppressed = _OPEN_WARNINGS.tick((serving, routine),
                                           window=window)
    if not emit:
        return
    message = ("circuit breaker open for backend {!r} routine {!r}; "
               "routing to the reference kernel".format(serving, routine))
    if suppressed:
        message += (" ({} identical warnings suppressed in the last "
                    "window)".format(suppressed))
    warnings.warn(message, BackendFallbackWarning, stacklevel=5)


def _resilient_call(routine, dtype, args, kwargs, resolve, selected,
                    primary, failed=None):
    """The full ladder for one crossing.  ``primary`` is the kernel
    :func:`call` resolved; ``failed`` is the exception a transactional
    ``primary`` already raised on attempt #1 with no breaker tracking,
    so that attempt is recorded here rather than made again."""
    policy = get_resilience()
    if failed is not None:
        # Transactional kernels are never the reference kernel.
        serving, reference = selected, None
    else:
        reference = primary if selected == "reference" \
            else resolve(routine, dtype, backend="reference")
        serving = "reference" if primary is reference else selected

    events: list[str] = []
    disposition = "closed"
    if serving != "reference" and failed is None:
        disposition = breaker.admit(serving, routine)
        if disposition == "open":
            events.append("open:{}:{}".format(serving, routine))
            _warn_open(serving, routine, policy.warning_window)
        elif disposition == "probe":
            events.append("probe:{}:{}".format(serving, routine))

    if disposition == "open" or serving == "reference":
        rungs = [("reference", reference)]
    else:
        rungs = [(serving, primary), ("reference", reference)]

    exempt = routine in exempt_kernels()
    retries = 0 if exempt else policy.retries
    if exempt:
        rungs = rungs[:1]

    saved = _snapshot(args, kwargs) \
        if (retries or len(rungs) > 1) and not exempt else []

    noteworthy = bool(events)
    failures = 0
    attempt = 0
    last_exc: BaseException | None = None
    for rung_backend, kernel in rungs:
        if kernel is None:
            kernel = resolve(routine, dtype, backend="reference")
        for _ in range(retries + 1):
            attempt += 1
            if failed is not None:
                last_exc, failed = failed, None
            else:
                if attempt > 1:
                    _restore(saved)
                try:
                    fault = faults.chaos_fault(routine, rung_backend) \
                        if faults.CHAOS_ACTIVE else None  # laflow: benign-race — hot-path gate; chaos_fault re-checks the table under the lock
                    if fault is not None:
                        raise fault
                    result = kernel(*args, **kwargs)
                except LinAlgError:
                    # Contract verdict: the kernel worked, the input was
                    # the problem.  Counts as breaker success; never
                    # retried.
                    if not exempt:
                        note = breaker.record_success(rung_backend, routine)
                        if note:
                            events.append("closed:{}:{}".format(
                                rung_backend, routine))
                            noteworthy = True
                    if noteworthy or failures:
                        calllog.record("{}:{}#{}:verdict".format(
                            rung_backend, routine, attempt))
                        for event in events:
                            calllog.note(event)
                    raise
                except (KeyboardInterrupt, SystemExit):
                    raise
                except Exception as exc:
                    last_exc = exc
                else:
                    if not exempt:
                        note = breaker.record_success(rung_backend, routine)
                        if note:
                            events.append("closed:{}:{}".format(
                                rung_backend, routine))
                            noteworthy = True
                    if noteworthy or failures:
                        calllog.record("{}:{}#{}".format(
                            rung_backend, routine, attempt))
                        for event in events:
                            calllog.note(event)
                    return result
            failures += 1
            calllog.record("{}:{}#{}:error={}".format(
                rung_backend, routine, attempt, type(last_exc).__name__))
            if not exempt:
                note = breaker.record_failure(rung_backend, routine)
                if note:
                    events.append("{}:{}:{}".format(
                        note, rung_backend, routine))

    # Every rung exhausted: surface the breaker notes, then let the last
    # transient failure propagate to the caller.
    for event in events:
        calllog.note(event)
    raise last_exc
