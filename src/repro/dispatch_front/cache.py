"""Operand-tied Cholesky memo for the dispatch front door.

Only verdicts that save a factorization are kept: for an ``spd``/``hpd``
operand, the probe's :class:`~repro.dispatch_front.probe.Structure`
with its trial-Cholesky factor, the backend that computed it, a
private copy of the operand and a weak reference to it.  A lookup hits
only for the same live array under the same backend, with the same
dtype and ``np.array_equal(a, copy)`` — an exact O(n²) check against
the O(n³) factorization it saves.  Any in-place edit therefore misses
and re-probes, and correctness never depends on :func:`invalidate`,
which only frees memory early.  NumPy arrays accept weak references;
the reference's callback drops the entry when the operand is
collected, so a recycled ``id()`` never meets a dead operand's entry.

Every other verdict is re-probed on each call: that costs one O(n²)
sweep, the same order as the exact check that would validate it.  (An
operand written by another thread *while* a solve reads it is a data
race, as it is for every driver.)  All memo state is guarded by the
process-wide ``STATE_LOCK``, except in the collection callback
:func:`_forget`, which must not take locks.
"""

from __future__ import annotations

import weakref
from functools import partial

import numpy as np

from .._sync import STATE_LOCK
from ..backends import get_backend_name

__all__ = ["lookup", "store", "invalidate", "clear", "stats",
           "reset_stats", "MAX_ENTRIES"]

#: Hard cap on live entries; storing past it evicts the oldest entry
#: (insertion order), bounding the retained copies and factors.
MAX_ENTRIES = 256

_ENTRIES: dict = {}  # id(a) -> (weakref to a, backend, copy of a, Structure)
_STATS = {"hits": 0, "misses": 0, "invalidated": 0}


def _forget(key, ref):
    """Weakref callback: the operand was collected, so is its entry.

    Lock-free on purpose: a collection can run this in any thread while
    it holds any lock, and taking ``STATE_LOCK`` there could deadlock.
    No lock is needed: ``key`` cannot name another array until the
    dying operand's memory is freed, after this returns."""
    if _ENTRIES.get(key, (None,))[0] is ref:  # laflow: benign-race — finalizer; the dying operand's id is not reusable until this returns
        _ENTRIES.pop(key, None)  # laflow: benign-race — finalizer; the dying operand's id is not reusable until this returns


def lookup(a):
    """The remembered :class:`~repro.dispatch_front.probe.Structure`
    for ``a``, or ``None`` unless ``a`` still holds exactly the values
    its factor was computed from, under the same backend."""
    key = id(a)
    with STATE_LOCK:
        entry = _ENTRIES.get(key)  # laflow: atomic-split — the exact check reads the array outside the lock; the drop region re-checks `is entry` first
        if entry is None:
            _STATS["misses"] += 1
            return None
    ref, backend, copy, structure = entry
    # Compared outside the lock: the copy is private and never written.
    if ref() is a and backend == get_backend_name() \
            and a.dtype == copy.dtype and np.array_equal(a, copy):
        with STATE_LOCK:
            _STATS["hits"] += 1
        return structure
    with STATE_LOCK:
        if _ENTRIES.get(key) is entry:
            del _ENTRIES[key]
            _STATS["invalidated"] += 1
        _STATS["misses"] += 1
    return None


def store(a, structure):
    """Remember ``structure`` for ``a`` when it carries a factor to
    reuse (an ``spd``/``hpd`` verdict); returns ``structure``."""
    if structure.cholesky is None:
        return structure
    key = id(a)
    entry = (weakref.ref(a, partial(_forget, key)),
             get_backend_name(), a.copy(), structure)
    with STATE_LOCK:
        _ENTRIES.pop(key, None)
        # list() snapshots the keys in one step: the lock-free _forget
        # may drop an entry from another thread at any bytecode.
        excess = len(_ENTRIES) + 1 - MAX_ENTRIES
        for oldest in list(_ENTRIES)[:max(0, excess)]:
            _ENTRIES.pop(oldest, None)
        _ENTRIES[key] = entry
    return structure


def invalidate(a=None) -> int:
    """Drop the entry for ``a`` (or every entry when ``a`` is None) to
    free its copy and factor; returns how many entries were dropped."""
    with STATE_LOCK:
        if a is None:
            dropped = len(_ENTRIES)
            _ENTRIES.clear()
        else:
            dropped = 1 if _ENTRIES.pop(id(a), None) is not None else 0
        _STATS["invalidated"] += dropped
    return dropped


def clear() -> int:
    """Alias for ``invalidate()`` with no argument."""
    return invalidate()


def stats() -> dict:
    """Snapshot: ``{"entries", "hits", "misses", "invalidated"}`` —
    merged into ``healthcheck()``'s report."""
    with STATE_LOCK:
        snapshot = dict(_STATS)
        snapshot["entries"] = len(_ENTRIES)
    return snapshot


def reset_stats():
    """Zero the counters — test scaffolding."""
    with STATE_LOCK:
        _STATS.update(hits=0, misses=0, invalidated=0)
