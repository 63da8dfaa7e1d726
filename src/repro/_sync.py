"""Shared synchronisation for the process-global configuration state.

The package keeps three pieces of process-global state: the exception
policy (:mod:`repro.policy`), the selected backend
(:mod:`repro.backends`) and the blocking parameters
(:mod:`repro.config`).  The "millions of users" deployment target means
these knobs get flipped from many threads while drivers are solving, so
every mutation goes through one shared re-entrant lock.

An :class:`~threading.RLock` (not a plain Lock) because the setters
nest: ``exception_policy`` restores via ``set_policy`` while already
holding the lock, and ``use_backend`` enters ``set_backend`` twice.

lalint enforces the discipline statically (LA023–LA026): outside its
owner module the state may not be imported or written — callers go
through the designated setters — and the laflow concurrency pass
(:mod:`repro.analysis.flow.locks`) tracks this lock as part of the
abstract environment: reads as well as writes of every name in the
``guarded_by`` registry must be proved to hold it on all paths inside
the owner, interprocedurally; check-then-act sequences may not
straddle two lock regions; and the static acquisition graph over this
and every other lock in the tree must stay acyclic (re-entrant
self-nesting of this RLock is modelled and allowed).  Deliberate lock-free reads carry
a justified ``laflow: benign-race`` comment at the access site and the
annotation itself is verified load-bearing.  DESIGN.md §15 has the
model; the Users' Guide "Concurrency contract" section has the rules.
"""

from __future__ import annotations

import threading

__all__ = ["STATE_LOCK"]

STATE_LOCK = threading.RLock()
