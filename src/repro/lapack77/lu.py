"""LU factorization family: ``xGETRF/xGETRS/xGESV/xGETRI`` plus condition
estimation (``xGECON``), iterative refinement (``xGERFS``) and
equilibration (``xGEEQU``/``xLAQGE``).

This is the substrate under the paper's running example ``LA_GESV`` and
under the expert driver ``LA_GESVX``.  The blocked right-looking ``getrf``
realizes the Level-3-BLAS reorganization the paper's §1.1 describes: panel
factorizations (``getf2``) plus ``trsm``/``gemm`` trailing updates.
"""

from __future__ import annotations

import numpy as np

from ..config import ilaenv
from ..errors import xerbla
from ..faults import pivot_fault
from ..blas.level3 import trsm
from .lacon import lacon
from .lautil import laswp
from .machine import lamch

__all__ = ["getf2", "getrf", "getrs", "gesv", "getri", "gecon", "gerfs",
           "geequ", "laqge"]


def getf2(a: np.ndarray, ipiv: np.ndarray | None = None):
    """Unblocked LU with partial pivoting of an m×n matrix (in place).

    Returns ``(ipiv, info)`` — 0-based pivot indices and the LAPACK info
    code (``info = i+1 > 0`` means ``U[i, i]`` is exactly zero).
    """
    m, n = a.shape
    k = min(m, n)
    if ipiv is None:
        ipiv = np.zeros(k, dtype=np.int64)
    info = 0
    for j in range(k):
        if pivot_fault("getf2", j):
            a[j:, j] = 0
        col = a[j:, j]
        p = j + int(np.argmax(np.abs(col.real) + np.abs(col.imag)
                              if np.iscomplexobj(col) else np.abs(col)))
        ipiv[j] = p
        if a[p, j] != 0:
            if p != j:
                a[[j, p], :] = a[[p, j], :]
            if j < m - 1:
                a[j + 1:, j] /= a[j, j]
                if j < n - 1:
                    a[j + 1:, j + 1:] -= np.outer(a[j + 1:, j], a[j, j + 1:])
        elif info == 0:
            info = j + 1
    return ipiv, info


def getrf(a: np.ndarray):
    """Blocked LU factorization with partial pivoting, ``A = P L U``
    (in place).

    Returns ``(ipiv, info)``.  The paper's ``LA_GETRF`` sits directly on
    this routine.
    """
    m, n = a.shape
    k = min(m, n)
    ipiv = np.zeros(k, dtype=np.int64)
    nb = ilaenv(1, "getrf")
    if nb <= 1 or nb >= k:
        return getf2(a, ipiv)
    info = 0
    for j in range(0, k, nb):
        jb = min(nb, k - j)
        # Factor the current panel.
        panel = a[j:, j:j + jb]
        piv, pinfo = getf2(panel)
        if pinfo != 0 and info == 0:
            info = pinfo + j
        ipiv[j:j + jb] = piv + j
        # Apply interchanges to the columns outside the panel.
        if j > 0:
            laswp(a[j:, :j], piv)
        if j + jb < n:
            laswp(a[j:, j + jb:], piv)
        if j + jb < n:
            # U12 := L11^{-1} A12  (unit lower triangular solve)
            trsm(1, a[j:j + jb, j:j + jb], a[j:j + jb, j + jb:],
                 side="L", uplo="L", transa="N", diag="U")
            if j + jb < m:
                # Trailing update A22 -= L21 U12
                a[j + jb:, j + jb:] -= a[j + jb:, j:j + jb] @ a[j:j + jb, j + jb:]
    return ipiv, info


def getrs(a: np.ndarray, ipiv: np.ndarray, b: np.ndarray,
          trans: str = "N") -> int:
    """Solve ``op(A) X = B`` from the ``getrf`` factors (B in place).

    ``trans``: 'N' (A), 'T' (Aᵀ) or 'C' (Aᴴ).  Returns ``info`` (always 0;
    argument errors raise).
    """
    t = trans.upper()
    if t not in ("N", "T", "C"):
        xerbla("GETRS", 1, f"trans={trans!r}")
    n = a.shape[0]
    if a.shape[1] != n:
        xerbla("GETRS", 2, "matrix must be square")
    if b.shape[0] != n:
        xerbla("GETRS", 3, "dimension mismatch between A and B")
    bmat = b if b.ndim == 2 else b[:, None]
    if t == "N":
        laswp(bmat, ipiv)
        trsm(1, a, bmat, side="L", uplo="L", transa="N", diag="U")
        trsm(1, a, bmat, side="L", uplo="U", transa="N", diag="N")
    else:
        trsm(1, a, bmat, side="L", uplo="U", transa=t, diag="N")
        trsm(1, a, bmat, side="L", uplo="L", transa=t, diag="U")
        laswp(bmat, ipiv, forward=False)
    return 0


def gesv(a: np.ndarray, b: np.ndarray):
    """Solve ``A X = B`` by LU with partial pivoting (``xGESV``).

    ``a`` is overwritten by its LU factors, ``b`` by the solution.
    Returns ``(ipiv, info)``; a positive ``info`` leaves ``b`` unsolved,
    matching LAPACK.
    """
    n = a.shape[0]
    if a.shape[1] != n:
        xerbla("GESV", 1, "matrix must be square")
    if b.shape[0] != n:
        xerbla("GESV", 2, "dimension mismatch between A and B")
    ipiv, info = getrf(a)
    if info == 0:
        getrs(a, ipiv, b)
    return ipiv, info


def getri(a: np.ndarray, ipiv: np.ndarray, lwork: int | None = None) -> int:
    """Compute ``A⁻¹`` from the ``getrf`` factors (in place).

    ``lwork`` mirrors LAPACK's workspace length: when it allows fewer than
    ``n·nb`` elements the routine degrades to column-at-a-time updates
    (the behaviour the paper's LA_GETRI listing preserves with its -200
    warning path).  Returns ``info`` (``i+1`` if ``U[i, i] == 0``).
    """
    n = a.shape[0]
    if a.shape[1] != n:
        xerbla("GETRI", 1, "matrix must be square")
    if len(ipiv) < n:
        xerbla("GETRI", 2, "pivot vector too short")
    if n == 0:
        return 0
    diag = a.diagonal()
    zeros = np.where(diag == 0)[0]
    if zeros.size:
        return int(zeros[0]) + 1
    # Invert U in place.
    from .triangular import trti2
    trti2(a, uplo="U", diag="N")
    nb = ilaenv(1, "getri")
    if lwork is not None and lwork < n * nb:
        nb = max(1, (lwork or n) // max(n, 1))
    # Solve inv(A) L = inv(U) for inv(A), sweeping blocks right to left.
    nb = max(1, min(nb, n))
    j = ((n - 1) // nb) * nb
    while j >= 0:
        jb = min(nb, n - j)
        # Copy the strictly-lower part of columns j..j+jb-1 (the L block),
        # then zero it in A.
        work = np.zeros((n, jb), dtype=a.dtype)
        for jj in range(jb):
            col = j + jj
            if col + 1 < n:
                work[col + 1:, jj] = a[col + 1:, col]
                a[col + 1:, col] = 0
        # Update with the columns to the right, then the in-block part.
        if j + jb < n:
            a[:, j:j + jb] -= a[:, j + jb:] @ work[j + jb:, :]
        # In-block: solve A(:, j:j+jb) := A(:, j:j+jb) inv(L_block)
        trsm(1, work[j:j + jb, :], a[:, j:j + jb],
             side="R", uplo="L", transa="N", diag="U")
        j -= nb
    # Apply column interchanges: columns j and ipiv[j], last to first.
    for j in range(n - 1, -1, -1):
        p = ipiv[j]
        if p != j:
            a[:, [j, p]] = a[:, [p, j]]
    return 0


def gecon(a: np.ndarray, anorm: float, norm: str = "1"):
    """Estimate the reciprocal condition number from ``getrf`` factors.

    Returns ``(rcond, info)``.  ``norm`` ∈ {'1', 'O', 'I'}.
    """
    n = a.shape[0]
    if norm.upper() not in ("1", "O", "I"):
        xerbla("GECON", 1, f"norm={norm!r}")
    if n == 0:
        return 1.0, 0
    if anorm == 0:
        return 0.0, 0
    # Solves use only the L and U factors; permutations do not change the
    # 1-/inf-norm being estimated (LAPACK's xGECON does the same).
    onenorm = norm.upper() in ("1", "O")

    def solve(x):
        y = x.copy()
        trsm(1, a, y[:, None], side="L", uplo="L", transa="N", diag="U")
        trsm(1, a, y[:, None], side="L", uplo="U", transa="N", diag="N")
        return y

    def solve_h(x):
        y = x.copy()
        trsm(1, a, y[:, None], side="L", uplo="U", transa="C", diag="N")
        trsm(1, a, y[:, None], side="L", uplo="L", transa="C", diag="U")
        return y

    if onenorm:
        est = lacon(n, solve, solve_h, dtype=a.dtype)
    else:
        # inf-norm of inv(A) = 1-norm of inv(A)ᴴ
        est = lacon(n, solve_h, solve, dtype=a.dtype)
    if est == 0:
        return 0.0, 0
    return 1.0 / (est * anorm), 0


def gerfs(a: np.ndarray, af: np.ndarray, ipiv: np.ndarray, b: np.ndarray,
          x: np.ndarray, trans: str = "N", itmax: int = 5):
    """Iterative refinement with forward/backward error bounds (``xGERFS``).

    ``a`` is the original matrix, ``af``/``ipiv`` its ``getrf`` factors,
    ``b`` the right-hand sides and ``x`` the current solution (refined in
    place).  Returns ``(ferr, berr, info)`` — per-column forward error
    estimates and componentwise backward errors.
    """
    t = trans.upper()
    if t not in ("N", "T", "C"):
        xerbla("GERFS", 6, f"trans={trans!r}")
    n = a.shape[0]
    bmat = b if b.ndim == 2 else b[:, None]
    xmat = x if x.ndim == 2 else x[:, None]
    nrhs = bmat.shape[1]
    ferr = np.zeros(nrhs)
    berr = np.zeros(nrhs)
    if n == 0 or nrhs == 0:
        return ferr, berr, 0
    eps = lamch("E", a.dtype)
    safmin = lamch("S", a.dtype)
    safe1 = (n + 1) * safmin
    safe2 = safe1 / eps
    op = {"N": a, "T": a.T, "C": np.conj(a.T)}[t]
    absop = np.abs(op)
    for j in range(nrhs):
        count = 1
        lstres = 3.0
        while True:
            # Residual in the working precision.
            r = bmat[:, j] - op @ xmat[:, j]
            denom = absop @ np.abs(xmat[:, j]) + np.abs(bmat[:, j])
            num = np.abs(r)
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(denom > safe2, num / denom,
                                  (num + safe1) / (denom + safe1))
            berr[j] = float(np.max(ratios))
            if berr[j] > eps and berr[j] <= 0.5 * lstres and count <= itmax:
                dx = r.copy()
                getrs(af, ipiv, dx, trans=t)
                xmat[:, j] += dx
                lstres = berr[j]
                count += 1
            else:
                break
        # Forward error bound:
        #   ferr = norm(inv(op(A)) * f) / norm(x), f = |r| + nz*eps*(|A||x|+|b|)
        r = bmat[:, j] - op @ xmat[:, j]
        nz = n + 1
        f = np.abs(r) + nz * eps * (absop @ np.abs(xmat[:, j])
                                    + np.abs(bmat[:, j]))
        f = np.where(f > safe2, f, f + safe1)

        # Estimate norm(inv(op(A)) · diag(f)) with lacon.  f is real, so the
        # adjoint is diag(f) · inv(op(A))ᴴ.
        def mv(v):
            w = f * v
            getrs(af, ipiv, w, trans=t)
            return w

        def rmv(v):
            if t == "T" and np.iscomplexobj(v):
                # op(A)ᴴ = conj(A):  solve conj(A) w = v via conjugation.
                w = np.conj(v)
                getrs(af, ipiv, w, trans="N")
                w = np.conj(w)
            else:
                w = v.copy()
                getrs(af, ipiv, w, trans={"N": "C", "T": "N", "C": "N"}[t])
            return f * w

        est = lacon(n, mv, rmv, dtype=a.dtype)
        xnorm = float(np.max(np.abs(xmat[:, j]))) if n else 0.0
        ferr[j] = est / xnorm if xnorm > 0 else est
    return ferr, berr, 0


def geequ(a: np.ndarray):
    """Row/column equilibration scalings (``xGEEQU``).

    Returns ``(r, c, rowcnd, colcnd, amax, info)``.  ``info = i+1`` flags a
    zero row ``i``; ``info = m+j+1`` flags a zero column ``j``.
    """
    m, n = a.shape
    r = np.zeros(m)
    c = np.zeros(n)
    if m == 0 or n == 0:
        return r, c, 1.0, 1.0, 0.0, 0
    smlnum = lamch("S", a.dtype)
    bignum = 1.0 / smlnum
    absa = np.abs(a.real) + np.abs(a.imag) if np.iscomplexobj(a) else np.abs(a)
    rowmax = absa.max(axis=1)
    amax = float(rowmax.max())
    zero_rows = np.where(rowmax == 0)[0]
    if zero_rows.size:
        return r, c, 0.0, 0.0, amax, int(zero_rows[0]) + 1
    r = 1.0 / np.clip(rowmax, smlnum, bignum)
    rcmin, rcmax = float(rowmax.min()), float(rowmax.max())
    rowcnd = max(rcmin, smlnum) / min(rcmax, bignum)
    colmax = (absa * r[:, None]).max(axis=0)
    zero_cols = np.where(colmax == 0)[0]
    if zero_cols.size:
        return r, c, rowcnd, 0.0, amax, m + int(zero_cols[0]) + 1
    c = 1.0 / np.clip(colmax, smlnum, bignum)
    ccmin, ccmax = float(colmax.min()), float(colmax.max())
    colcnd = max(ccmin, smlnum) / min(ccmax, bignum)
    return r, c, rowcnd, colcnd, amax, 0


def laqge(a: np.ndarray, r: np.ndarray, c: np.ndarray, rowcnd: float,
          colcnd: float, amax: float) -> str:
    """Apply equilibration if worthwhile (``xLAQGE``).

    Scales A in place and returns ``equed`` ∈ {'N','R','C','B'} describing
    which scalings were applied, using LAPACK's thresholds (0.1 for the
    condition ratios, small/large checks on ``amax``).
    """
    thresh = 0.1
    small = lamch("S", a.dtype) / lamch("P", a.dtype)
    large = 1.0 / small
    row = not (rowcnd >= thresh and small <= amax <= large)
    col = not (colcnd >= thresh)
    if row and col:
        a *= np.outer(r, c)
        return "B"
    if row:
        a *= r[:, None]
        return "R"
    if col:
        a *= c[None, :]
        return "C"
    return "N"
