"""Per-``(backend, routine)`` circuit breakers over the dispatch seam.

A breaker guards one ``(backend, routine)`` pair.  It is *closed* (calls
flow) until :attr:`~repro.resilience.config.ResiliencePolicy.breaker_threshold`
consecutive kernel failures trip it *open*: dispatch then routes the
routine to the reference substrate without attempting the backend at
all.  After ``breaker_cooldown`` seconds the breaker turns *half-open*
and admits exactly one recovery probe; a probe that succeeds closes the
breaker (the entry is deleted — the registry only ever holds unhealthy
pairs), a probe that fails re-opens it and restarts the cooldown.

Contract verdicts (``LinAlgError`` — singular matrix, failed
convergence) are *successes* here: the kernel did its job; the input was
the problem.  Only genuine kernel failures (anything else raised) count
against a pair.

All registry mutations hold :data:`repro._sync.STATE_LOCK`; lalint rule
LA023 enforces that and forbids foreign modules from importing or
writing ``_BREAKERS`` (or reading it without a justified pragma).  ``TRACKING`` is the lock-free fast gate
(mirroring ``faults.ACTIVE``): dispatch skips the breaker branch
entirely while it is False.
"""

from __future__ import annotations

import time

from .._sync import STATE_LOCK
from .config import get_resilience

__all__ = ["admit", "record_failure", "record_success", "breaker_state",
           "states", "reset_breakers"]

#: Fast-path flag: True only while at least one pair is being tracked.
TRACKING = False

# key -> {"failures": int, "open_since": float|None, "probing": bool,
#         "probe_at": float}; a pair absent from the table is healthy.
_BREAKERS: dict[tuple[str, str], dict] = {}


def _sync() -> None:
    global TRACKING
    TRACKING = bool(_BREAKERS)


def admit(backend: str, routine: str) -> str:
    """Gate one dispatch attempt for ``(backend, routine)``.

    Returns the call's breaker disposition: ``"closed"`` (untracked or
    still under threshold — call normally), ``"probe"`` (half-open; this
    call is the single recovery probe), or ``"open"`` (do not call the
    backend; route to reference).
    """
    if not TRACKING:  # laflow: benign-race — hot-path gate; an untracked pair is healthy by definition
        return "closed"
    key = (backend, routine)
    now = time.monotonic()
    with STATE_LOCK:
        entry = _BREAKERS.get(key)
        if entry is None or entry["open_since"] is None:
            return "closed"
        if entry["probing"]:
            return "open"
        if now - entry["open_since"] >= get_resilience().breaker_cooldown:
            entry["probing"] = True
            entry["probe_at"] = now
            return "probe"
        return "open"


def record_failure(backend: str, routine: str) -> str | None:
    """Count one genuine kernel failure against ``(backend, routine)``.

    Returns a transition note for the call log — ``"open"`` when this
    failure trips the breaker (or fails a recovery probe, re-opening
    it) — or ``None`` when the pair is still closed.
    """
    key = (backend, routine)
    now = time.monotonic()
    with STATE_LOCK:
        entry = _BREAKERS.get(key)
        if entry is None:
            entry = _BREAKERS[key] = {"failures": 0, "open_since": None,  # laflow: atomic-split — each transition is atomic; admit→record deliberately brackets the unlocked kernel call
                                      "probing": False, "probe_at": 0.0}
            _sync()
        if entry["probing"]:
            # Failed recovery probe: re-open and restart the cooldown.
            entry["probing"] = False
            entry["open_since"] = now
            return "open"
        entry["failures"] += 1
        if entry["open_since"] is None \
                and entry["failures"] >= get_resilience().breaker_threshold:
            entry["open_since"] = now
            return "open"
        return None


def record_success(backend: str, routine: str) -> str | None:
    """Count one successful kernel call (or contract verdict) for
    ``(backend, routine)``.

    A healthy pair stays untracked (free).  A tracked pair is deleted —
    whether it was merely accumulating failures or completing a recovery
    probe — so the registry only ever holds unhealthy pairs.  Returns
    ``"closed"`` when this success closed a probing breaker (worth a
    call-log note), else ``None``.
    """
    if not TRACKING:  # laflow: benign-race — hot-path gate; a pair going untracked mid-call just skips one bookkeeping pop
        return None
    key = (backend, routine)
    with STATE_LOCK:
        entry = _BREAKERS.pop(key, None)  # laflow: atomic-split — each transition is atomic; admit→record deliberately brackets the unlocked kernel call
        _sync()
        if entry is not None and entry["probing"]:
            return "closed"
        return None


def breaker_state(backend: str, routine: str) -> str:
    """The pair's current state: ``"closed"``, ``"open"``, or
    ``"half-open"`` (cooldown elapsed or probe in flight)."""
    if not TRACKING:  # laflow: benign-race — hot-path gate; an untracked pair reports closed correctly
        return "closed"
    now = time.monotonic()
    with STATE_LOCK:
        entry = _BREAKERS.get((backend, routine))
        if entry is None or entry["open_since"] is None:
            return "closed"
        if entry["probing"] \
                or now - entry["open_since"] >= get_resilience().breaker_cooldown:
            return "half-open"
        return "open"


def states() -> dict[str, str]:
    """Snapshot of every tracked pair, ``"backend:routine" -> state``
    (pairs still closed but accumulating failures report ``"closed"``)."""
    out: dict[str, str] = {}
    if not TRACKING:  # laflow: benign-race — snapshot API; an empty report for a just-tracked pair is a valid snapshot
        return out
    with STATE_LOCK:
        keys = list(_BREAKERS)
    for backend, routine in keys:
        out[f"{backend}:{routine}"] = breaker_state(backend, routine)
    return out


def reset_breakers() -> None:
    """Forget all breaker state (tests and operator resets)."""
    with STATE_LOCK:
        _BREAKERS.clear()
        _sync()
