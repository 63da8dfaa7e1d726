"""Per-driver-call attempt telemetry (thread-local frames).

The dispatch seam (:mod:`repro.resilience.dispatch`) runs per *kernel*
call, but the ``attempts``/``breaker`` fields live on the *driver's*
:class:`repro.errors.Info` handle.  This module bridges the two layers
without plumbing the handle through every kernel signature: the driver
entry gate (:func:`repro.core.auxmod.driver_guard`) pushes a frame, the
seam records events into the innermost frame, and the driver's reporting
shim (``_report``/``_record_fallback``/``_finish``) drains the frame
into the caller's ``Info`` on the way out.

Frames are purely thread-local telemetry — there is no cross-thread
state here, so (unlike the breaker/deadline registries LA023 polices)
no lock is taken on the per-call hot path.  Kernel calls made outside a
driver frame (the F77 layer, direct proxy use) are simply not recorded.
"""

from __future__ import annotations

import threading

__all__ = ["push", "record", "note", "drain", "drain_into", "depth"]

_FRAMES = threading.local()


def _stack() -> list:
    stack = getattr(_FRAMES, "stack", None)
    if stack is None:
        stack = _FRAMES.stack = []
    return stack


def push() -> None:
    """Open a telemetry frame for the driver call being entered.

    Bounded as a leak backstop: a kernel exception that escapes a driver
    without reaching its reporting shim strands a frame, so the stack is
    capped rather than allowed to grow without limit.
    """
    stack = _stack()
    if len(stack) > 64:
        del stack[0]
    stack.append({"attempts": [], "breaker": []})


def record(attempt: str) -> None:
    """Append one kernel-attempt record to the innermost frame."""
    stack = _stack()
    if stack:
        stack[-1]["attempts"].append(attempt)


def note(event: str) -> None:
    """Append one breaker-transition note to the innermost frame."""
    stack = _stack()
    if stack:
        stack[-1]["breaker"].append(event)


def drain() -> dict | None:
    """Pop and return the innermost frame (``None`` when no frame is
    open — reporting shims reached without a guard, e.g. on a
    validation-failure exit)."""
    stack = _stack()
    return stack.pop() if stack else None


def drain_into(info) -> None:
    """Pop the innermost frame and attach its non-empty telemetry to the
    caller's ``Info`` handle (a no-op handle-wise when ``info`` is
    ``None``, but the frame is still consumed)."""
    frame = drain()
    if frame is None or info is None:
        return
    if frame["attempts"]:
        info.attempts = tuple(frame["attempts"])
    if frame["breaker"]:
        info.breaker = ";".join(frame["breaker"])


def depth() -> int:
    """Open-frame count for the current thread (test hook)."""
    return len(_stack())
