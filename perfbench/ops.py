"""How one operation of the stream reaches the library, and the same
inputs sent straight to the raw kernel (paper Fig. 3).

``call_public`` goes through the public API only.  ``raw_call`` is the
baseline the overhead ratio divides by: ``scipy.linalg.lapack``
``d*`` routines on the accelerated backend and the ``repro.lapack77``
function on the reference backend.  Both receive their own copies of
the operands, so neither sees the other's in-place output.
"""

from __future__ import annotations

import time

import numpy as np

__all__ = ["prepare", "call_public", "timed_call", "raw_args", "raw_call",
           "invalidate", "cache_counts", "kernel_flops"]


def prepare(op, a, b):
    """The arrays the public call receives: the drivers overwrite their
    operands, so they get copies; the front door never writes them and
    must see the caller's own array (its cache is keyed by identity)."""
    if op.kind == "solve":
        return a, b.copy()
    return a.copy(), b.copy()


def call_public(repro, op, a, b):
    """Run ``op`` through the public API on ``a``/``b`` (already
    prepared); returns ``(value, a_after, info)``."""
    kind = op.kind
    if kind == "batch_gesv":
        info = repro.BatchInfo()
        return repro.batch_gesv(a, b, info=info), a, info
    info = repro.Info()
    if kind == "la_gesv":
        return repro.la_gesv(a, b, info=info), a, info
    if kind == "la_posv":
        return repro.la_posv(a, b, info=info), a, info
    if kind == "la_sysv":
        return repro.la_sysv(a, b, info=info), a, info
    if kind == "la_syev":
        return repro.la_syev(a, jobz="V", info=info), a, info
    if kind == "solve":
        return repro.solve(a, b, info=info), a, info
    raise ValueError(f"unknown operation kind {kind!r}")


def timed_call(repro, op, a, b):
    """``(seconds, result)`` of one public call on prepared copies;
    ``result`` is :func:`call_public`'s value or the exception raised
    (judged by :func:`checks.check`)."""
    pa, pb = prepare(op, a, b)
    start = time.perf_counter()
    try:
        result = call_public(repro, op, pa, pb)
    except Exception as exc:
        result = exc
    return time.perf_counter() - start, result


def invalidate(repro, a=None):
    """Drop ``a``'s structure-cache entry (every entry when ``a`` is
    None); a no-op for a library without the cache."""
    fn = getattr(repro, "invalidate_structure_cache", None)
    if fn is not None:
        fn() if a is None else fn(a)


def cache_counts(repro):
    """``(hits, misses)`` of the front door's structure cache so far."""
    fn = getattr(repro, "structure_cache_stats", None)
    if fn is None:
        return 0, 0
    s = fn()
    return s["hits"], s["misses"]


def _raw_routine(op):
    """The LAPACK routine that solves ``op`` from scratch."""
    if op.kind in ("la_gesv", "batch_gesv"):
        return "gesv"
    if op.kind in ("la_posv", "la_sysv", "la_syev"):
        return op.kind[3:]
    return {"general": "gesv", "spd": "posv", "symmetric": "sysv",
            "tridiagonal": "gtsv", "triangular": "trtrs"}[op.structure]


def raw_args(op, a, b):
    """Fresh argument copies for :func:`raw_call` (made outside any
    timed region)."""
    routine = _raw_routine(op)
    if routine == "gtsv":
        return (np.diagonal(a, -1).copy(), np.diagonal(a).copy(),
                np.diagonal(a, 1).copy(), b.copy())
    return a.copy(), b.copy()


def raw_call(backend, op, args):
    """The raw kernel on ``args`` from :func:`raw_args`."""
    routine = _raw_routine(op)
    if op.kind == "batch_gesv":
        a, b = args
        for k in range(len(a)):
            _raw_one(backend, routine, (a[k], b[k]))
        return
    _raw_one(backend, routine, args)


def _raw_one(backend, routine, args):
    if backend == "reference":
        from repro import lapack77
        if routine == "syev":
            lapack77.syev(args[0], "V", "U")
        elif routine == "gtsv":
            dl, d, du, b = args
            lapack77.gtsv(dl, d, du, b[:, None])
        else:
            a, b = args
            getattr(lapack77, routine)(a, b[:, None])
        return
    from scipy.linalg import lapack
    if routine == "syev":
        lapack.dsyev(args[0], compute_v=1)
    elif routine == "gtsv":
        dl, d, du, b = args
        lapack.dgtsv(dl, d, du, b[:, None])
    else:
        a, b = args
        getattr(lapack, "d" + routine)(a, b[:, None])


def kernel_flops(routine, args, kwargs) -> float:
    """Computed flop count of one kernel crossing (the usual LAPACK
    operation counts; labelled as computed, not measured)."""
    arrays = [v for v in list(args) + list(kwargs.values())
              if isinstance(v, np.ndarray)]
    if not arrays:
        return 0.0
    a = arrays[0]
    if routine.endswith("_stack"):
        base = routine[:-len("_stack")]
        per = [(a[k],) + tuple(x[k] for x in arrays[1:])
               for k in range(a.shape[0])]
        return sum(kernel_flops(base, p, {}) for p in per)
    n = a.shape[-1]
    nrhs = 1
    if len(arrays) > 1:
        rhs = arrays[-1]
        nrhs = rhs.shape[1] if rhs.ndim == 2 else 1
    if routine == "gtsv":
        n = arrays[1].shape[0]
        return 8.0 * n * nrhs
    counts = {
        "gesv": 2 / 3 * n ** 3 + 2 * n * n * nrhs,
        "posv": n ** 3 / 3 + 2 * n * n * nrhs,
        "sysv": n ** 3 / 3 + 2 * n * n * nrhs,
        "potrf": n ** 3 / 3,
        "potrs": 2.0 * n * n * nrhs,
        "trtrs": 1.0 * n * n * nrhs,
    }
    if routine in ("syev", "heev"):
        jobz = args[1] if len(args) > 1 else kwargs.get("jobz", "N")
        return (9.0 if str(jobz).upper() == "V" else 4 / 3) * n ** 3
    return float(counts.get(routine, 0.0))
