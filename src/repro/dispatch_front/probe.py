"""Structure probing: which matrix class is this, cheaply and exactly.

:func:`probe` classifies a square operand into one of the
:data:`repro.specs.routing.STRUCTURES` labels.  Every test is *exact*
(bitwise equality, exact zeros): the front door guarantees the routed
driver returns bit-identical results to calling it directly, and an
almost-symmetric matrix handed to ``la_sysv`` (which reads one triangle)
would silently solve a different system.  Near-misses therefore probe as
``general`` — the adversarial suite in ``tests/dispatch`` pins this.

Positive definiteness is established by a *trial Cholesky*: a ``potrf``
kernel call (through the full backend/resilience dispatch seam) on a
copy of the operand.  On success the factor travels with the probe
result: the front door solves with it directly, and the Cholesky memo
(:mod:`~repro.dispatch_front.cache`) keeps it for repeat solves against
the same, unchanged array.

Band widths are extracted vectorized (one ``nonzero`` sweep); a matrix
only probes as ``banded`` when band storage actually pays,
``2·kl + ku + 1 < n`` — so bandwidth ``n−1`` routes as ``general``.

Two exact O(1) exits spare a dense general operand both full passes.
Both corners ``a[n-1, 0]`` and ``a[0, n-1]`` nonzero means
``kl = ku = n-1`` with no sweep; a corner pair that differs
(conjugated, for the Hermitian test) refutes symmetry before
``array_equal`` runs.  Either exit reaches the verdict the full pass
would (NaN corners included: NaN is nonzero and unequal to itself).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..specs.routing import STRUCTURES

__all__ = ["Structure", "probe", "probe_stack", "bandwidths"]

#: Smallest order that takes the corner exits: an empty operand has no
#: corners, and up to n = 2 the full pass costs no more than the exits.
_CORNER_MIN_N = 3


@dataclass
class Structure:
    """One probe verdict.

    ``label`` is the routing-table key; ``kl``/``ku`` the extracted
    band widths (dense fallback: ``n-1``); ``uplo`` the triangle a
    triangular/Cholesky route should reference; ``cholesky`` the
    retained trial-``potrf`` factor for ``spd``/``hpd`` (the caller's
    array is never touched); ``probe_cost`` the wall-clock seconds the
    probe took.
    """

    label: str
    kl: int = 0
    ku: int = 0
    uplo: str = "U"
    symmetric: bool = False
    hermitian: bool = False
    cholesky: np.ndarray | None = field(default=None, repr=False)
    probe_cost: float = 0.0

    def __post_init__(self):
        if self.label not in STRUCTURES:
            raise ValueError(f"unknown structure label {self.label!r}")


def bandwidths(a):
    """Exact ``(kl, ku)`` of a 2-D matrix from one nonzero sweep."""
    rows, cols = np.nonzero(a)
    if rows.size == 0:
        return 0, 0
    offsets = cols - rows
    return int(max(0, -offsets.min())), int(max(0, offsets.max()))


def _mirrored(a, conj, corners):
    """Bitwise ``a == a.T`` (``a == a^H`` when ``conj``); with
    ``corners`` a mismatched corner pair refutes it in O(1)."""
    if corners:
        hi = a[0, -1]
        if a[-1, 0] != (np.conj(hi) if conj else hi):
            return False
    return np.array_equal(a, a.conj().T if conj else a.T)


def _trial_cholesky(a, uplo="U"):
    """``potrf`` on a copy through the dispatch seam; ``None`` unless
    positive definite.  The probe pre-filters on a strictly positive
    real diagonal so obviously indefinite operands skip the kernel."""
    diag = np.diagonal(a)
    if np.iscomplexobj(diag):
        if (diag.imag != 0).any():
            return None
        diag = diag.real
    if not (diag > 0).all():
        return None
    from ..backends.kernels import potrf
    factor = a.copy()
    if int(potrf(factor, uplo)) != 0:
        return None
    return factor


def probe(a) -> Structure:
    """Classify one 2-D operand; non-square probes as ``general``.

    The ``symmetric``/``hermitian`` flags are recorded for *every*
    square operand, including ones whose routing label is a band shape:
    the solve route for a symmetric tridiagonal matrix is still
    ``la_gtsv``, but the eig front door uses the flags to stay on the
    symmetric eigensolver.
    """
    start = time.perf_counter()
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return Structure("general",
                         probe_cost=time.perf_counter() - start)
    n = a.shape[0]
    corners = n >= _CORNER_MIN_N
    if corners and a[-1, 0] != 0 and a[0, -1] != 0:
        kl = ku = n - 1
    else:
        kl, ku = bandwidths(a)
    iscomplex = np.iscomplexobj(a)
    symmetric = _mirrored(a, False, corners)
    hermitian = _mirrored(a, True, corners) if iscomplex else symmetric
    label, uplo, factor = "general", "U", None
    if kl == 0 and ku == 0:
        label = "diagonal"
    elif ku == 0:
        label, uplo = "triangular", "L"
    elif kl == 0:
        label = "triangular"
    elif kl <= 1 and ku <= 1:
        label = "tridiagonal"
    elif 2 * kl + ku + 1 < n:
        label = "banded"
    elif hermitian:
        factor = _trial_cholesky(a)
        if factor is not None:
            label = "hpd" if iscomplex else "spd"
        else:
            label = "hermitian" if iscomplex else "symmetric"
    elif symmetric:
        label = "symmetric"          # complex symmetric, non-Hermitian
    return Structure(label, kl=kl, ku=ku, uplo=uplo,
                     symmetric=symmetric, hermitian=hermitian,
                     cholesky=factor,
                     probe_cost=time.perf_counter() - start)


def probe_stack(a) -> Structure:
    """Classify a ``(batch, n, n)`` stack for the ``batch_*`` routes.

    Stacked structure checks are vectorized over the whole stack;
    definiteness is probed on a representative slice (the first), since
    a stack route cannot reuse per-problem factors anyway — a later
    slice that turns out indefinite reports through ``BatchInfo``
    exactly as a direct ``batch_posv`` call would.  Only the structures
    with batched drivers are distinguished (``spd``/``hpd``,
    ``symmetric``, ``hermitian``, ``general``): there is no batched
    band or tridiagonal solver to route to.
    """
    start = time.perf_counter()
    if a.ndim != 3 or a.shape[1] != a.shape[2] or a.shape[0] == 0:
        return Structure("general",
                         probe_cost=time.perf_counter() - start)
    iscomplex = np.iscomplexobj(a)
    swapped = a.transpose(0, 2, 1)
    symmetric = np.array_equal(a, swapped)
    hermitian = np.array_equal(a, swapped.conj()) if iscomplex \
        else symmetric
    label = "general"
    if hermitian:
        label = "hermitian" if iscomplex else "symmetric"
        if _trial_cholesky(a[0]) is not None:
            label = "hpd" if iscomplex else "spd"
    elif symmetric:
        label = "symmetric"
    return Structure(label, kl=max(0, a.shape[1] - 1),
                     ku=max(0, a.shape[1] - 1),
                     symmetric=symmetric, hermitian=hermitian,
                     probe_cost=time.perf_counter() - start)
