"""Output checks: the paper's Section 6 scaled residuals and the
``Info`` codes each driver's spec promises.

Ratios use the LAPACK test-suite conventions (``xGET02``, ``xSYT21``):
1-norms and ``eps = DLAMCH('E') = 2**-53``.  A ratio above
:data:`THRESHOLD` fails the operation, as in the paper.
"""

from __future__ import annotations

import numpy as np

__all__ = ["EPS", "THRESHOLD", "solve_ratio", "eigen_ratio", "Outcome",
           "check"]

EPS = np.finfo(np.float64).eps / 2
THRESHOLD = 10.0


def _norm1(m):
    """Matrix 1-norm (max column sum); the vector 1-norm for 1-D input."""
    m = np.abs(m)
    return float(m.sum(axis=0).max()) if m.ndim == 2 else float(m.sum())


def solve_ratio(a, x, b) -> float:
    """``‖b − A x‖ / (‖A‖·‖x‖·n·eps)`` as A is at call time; the
    worst problem of a ``(batch, n, n)`` stack."""
    if a.ndim == 3:
        return max((solve_ratio(a[k], x[k], b[k]) for k in range(len(a))),
                   default=0.0)
    n = a.shape[0]
    denom = _norm1(a) * _norm1(x) * n * EPS
    resid = _norm1(b - a @ x)
    if denom == 0.0:
        return 0.0 if resid == 0.0 else np.inf
    return resid / denom


def eigen_ratio(a, w, v) -> float:
    """The worse of ``‖A V − V Λ‖ / (‖A‖·n·eps)`` and the orthogonality
    ratio ``‖I − Vᵀ V‖ / (n·eps)`` (without it a zero ``V`` passes)."""
    n = a.shape[0]
    anorm = max(_norm1(a), np.finfo(np.float64).tiny)
    resid = _norm1(a @ v - v * w) / (anorm * n * EPS)
    orth = _norm1(np.eye(n) - v.T @ v) / (n * EPS)
    return max(resid, orth)


class Outcome:
    """The verdict on one operation: its residual ratio (``nan`` when
    no ratio applies) and, when it failed, why."""

    __slots__ = ("ratio", "reason")

    def __init__(self, ratio=float("nan"), reason=None):
        self.ratio = ratio
        self.reason = reason

    @property
    def failed(self) -> bool:
        return self.reason is not None


def _codes(info):
    """Per-problem codes of an ``Info`` or ``BatchInfo`` handle."""
    problems = getattr(info, "problems", None)
    if problems is None:
        return [info.value]
    return [p.value for p in problems] + [info.value]


def check(op, a0, b0, result) -> Outcome:
    """Judge one public call.

    ``a0``/``b0`` are the operands as they were at call time, ``result``
    is ``(value, a_after, info)`` from :func:`ops.call_public` or the
    exception the call raised.
    """
    if isinstance(result, BaseException):
        return Outcome(reason=f"raised {type(result).__name__}: {result}")
    value, a_after, info = result
    codes = _codes(info)
    if op.singular:
        # LA_GESV's spec: INFO = i > 0 means U(i,i) is exactly zero.
        k = codes[0]
        if k <= 0 or a_after[k - 1, k - 1] != 0.0:
            return Outcome(reason=f"singular operand: info={k}, expected "
                           "i > 0 with U(i,i) == 0")
        return Outcome()
    if any(codes):
        return Outcome(reason=f"info={codes}, expected 0")
    if op.kind == "la_syev":
        ratio = eigen_ratio(a0, value, a_after)
    else:
        ratio = solve_ratio(a0, value, b0)
    if not ratio <= THRESHOLD:
        return Outcome(ratio, f"residual ratio {ratio:.3g} > {THRESHOLD:g}")
    return Outcome(ratio)
