"""The process-global resilience policy (retries, breaker, windows).

One user-facing knob set, mirroring :mod:`repro.policy`: a mutable
process-global :class:`ResiliencePolicy` behind
:func:`get_resilience`/:func:`set_resilience`, with
:func:`resilience_policy` scoping a change to a ``with`` block.  Every
mutation holds :data:`repro._sync.STATE_LOCK`; lalint rule LA023
enforces that discipline (and forbids foreign modules from importing
or writing ``_RESILIENCE``).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

from .._sync import STATE_LOCK

__all__ = ["ResiliencePolicy", "get_resilience", "set_resilience",
           "resilience_policy"]


@dataclass
class ResiliencePolicy:
    """The resilience knobs.

    ``retries`` — same-kernel retry budget per rung for transient
    (non-``LinAlgError``) kernel failures; ``breaker_threshold`` —
    consecutive failures of a ``(backend, routine)`` pair that trip its
    circuit breaker open; ``breaker_cooldown`` — seconds an open breaker
    waits before admitting a half-open recovery probe;
    ``warning_window`` — seconds between repeated
    ``BackendFallbackWarning`` announcements for one key (the
    rate-limited aggregation window).
    """

    retries: int = 1
    breaker_threshold: int = 3
    breaker_cooldown: float = 30.0
    warning_window: float = 60.0


_RESILIENCE = ResiliencePolicy()


def get_resilience() -> ResiliencePolicy:
    """The live process-global resilience policy object."""
    return _RESILIENCE  # laflow: benign-race — stable object identity; knob reads are word-sized and tear-free


def set_resilience(retries: int | None = None,
                   breaker_threshold: int | None = None,
                   breaker_cooldown: float | None = None,
                   warning_window: float | None = None) -> ResiliencePolicy:
    """Mutate the process-global policy; ``None`` leaves a knob alone."""
    if retries is not None and retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries!r}")
    if breaker_threshold is not None and breaker_threshold < 1:
        raise ValueError(f"breaker_threshold must be >= 1, "
                         f"got {breaker_threshold!r}")
    if breaker_cooldown is not None and breaker_cooldown < 0:
        raise ValueError(f"breaker_cooldown must be >= 0, "
                         f"got {breaker_cooldown!r}")
    if warning_window is not None and warning_window < 0:
        raise ValueError(f"warning_window must be >= 0, "
                         f"got {warning_window!r}")
    with STATE_LOCK:
        if retries is not None:
            _RESILIENCE.retries = int(retries)
        if breaker_threshold is not None:
            _RESILIENCE.breaker_threshold = int(breaker_threshold)
        if breaker_cooldown is not None:
            _RESILIENCE.breaker_cooldown = float(breaker_cooldown)
        if warning_window is not None:
            _RESILIENCE.warning_window = float(warning_window)
        return _RESILIENCE


@contextmanager
def resilience_policy(retries: int | None = None,
                      breaker_threshold: int | None = None,
                      breaker_cooldown: float | None = None,
                      warning_window: float | None = None):
    """Scope a resilience-policy change to a ``with`` block::

        with resilience_policy(retries=0, breaker_threshold=2):
            la_gesv(a, b)
    """
    with STATE_LOCK:
        old = (_RESILIENCE.retries, _RESILIENCE.breaker_threshold,
               _RESILIENCE.breaker_cooldown, _RESILIENCE.warning_window)
        set_resilience(retries, breaker_threshold, breaker_cooldown,
                       warning_window)
    try:
        yield _RESILIENCE
    finally:
        set_resilience(retries=old[0], breaker_threshold=old[1],
                       breaker_cooldown=old[2], warning_window=old[3])
