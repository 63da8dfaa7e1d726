"""Symmetric/Hermitian indefinite solvers: Bunch–Kaufman diagonal pivoting
(``xSYTRF/xSYTRS/xSYSV`` and ``xHETRF/xHETRS/xHESV``) with condition
estimation (``xSYCON/xHECON``) and refinement (``xSYRFS/xHERFS``).

Substrate for the paper's ``LA_SYSV``/``LA_HESV`` drivers and their expert
variants.  The factorization is ``A = U D Uᵀ`` (or ``Uᴴ`` for Hermitian)
with D block diagonal (1×1 and 2×2 blocks) chosen by the Bunch–Kaufman
criterion with ``alpha = (1+√17)/8``.

Pivot encoding matches LAPACK (0-based): ``ipiv[k] >= 0`` marks a 1×1 block
with rows/columns ``k`` and ``ipiv[k]`` interchanged; a 2×2 block stores
``ipiv[k] = ipiv[k∓1] = -(p+1)`` where ``p`` is the interchanged index.
"""

from __future__ import annotations

import numpy as np

from ..blas.level3 import trsm
from ..errors import xerbla
from .lacon import lacon
from .lautil import _put_triangle, _sym_full, lanhe, lansy, laswp
from .machine import lamch

__all__ = ["sytf2", "sytrf", "sytrs", "sysv", "sycon", "syrfs",
           "hetf2", "hetrf", "hetrs", "hesv", "hecon", "herfs"]

_ALPHA = (1.0 + np.sqrt(17.0)) / 8.0


def _cabs1(z):
    return np.abs(z.real) + np.abs(z.imag) if np.iscomplexobj(z) else np.abs(z)


def _sytf2_upper(a: np.ndarray, ipiv: np.ndarray, hermitian: bool) -> int:
    # ``a`` is the C-contiguous full working copy from ``sytf2``: pivots
    # and interchanges read and write only the upper triangle, the
    # updates cover whole leading blocks, the lower triangle is scratch.
    n = a.shape[0]
    diag = a.reshape(-1)[:: n + 1]
    info = 0
    k = n - 1
    while k >= 0:
        kstep = 1
        absakk = abs(a[k, k].real) if hermitian else _cabs1(a[k, k])
        if k > 0:
            col = a[:k, k]
            imax = int(np.argmax(_cabs1(col)))
            colmax = float(_cabs1(col[imax]))
        else:
            imax, colmax = 0, 0.0
        if max(absakk, colmax) == 0.0:
            if info == 0:
                info = k + 1
            kp = k
            if hermitian:
                a[k, k] = a[k, k].real
        else:
            if absakk >= _ALPHA * colmax:
                kp = k
            else:
                rowmax = float(np.max(_cabs1(a[imax, imax + 1: k + 1])))
                if imax > 0:
                    rowmax = max(rowmax,
                                 float(np.max(_cabs1(a[:imax, imax]))))
                dmag = abs(a[imax, imax].real) if hermitian \
                    else _cabs1(a[imax, imax])
                if absakk >= _ALPHA * colmax * (colmax / rowmax):
                    kp = k
                elif dmag >= _ALPHA * rowmax:
                    kp = imax
                else:
                    kp = imax
                    kstep = 2
            kk = k - kstep + 1
            if kp != kk:
                # Interchange rows/columns kk and kp of the leading block.
                tmp = a[:kp, kk].copy()
                a[:kp, kk] = a[:kp, kp]
                a[:kp, kp] = tmp
                seg = a[kp + 1: kk, kk].copy()
                if hermitian:
                    a[kp + 1: kk, kk] = np.conj(a[kp, kp + 1: kk])
                    a[kp, kp + 1: kk] = np.conj(seg)
                    a[kp, kk] = np.conj(a[kp, kk])
                    dkk, dkp = a[kk, kk].real, a[kp, kp].real
                    a[kk, kk], a[kp, kp] = dkp, dkk
                else:
                    a[kp + 1: kk, kk] = a[kp, kp + 1: kk]
                    a[kp, kp + 1: kk] = seg
                    a[kk, kk], a[kp, kp] = a[kp, kp], a[kk, kk]
                if kstep == 2:
                    a[kk, k], a[kp, k] = a[kp, k], a[kk, k]
            elif hermitian:
                a[kk, kk] = a[kk, kk].real
                if kstep == 2:
                    a[k, k] = a[k, k].real
            if kstep == 1:
                # 1x1 pivot: rank-1 update of the leading (k)x(k) block.
                if k > 0:
                    x = a[:k, k]
                    if hermitian:
                        r1 = 1.0 / a[k, k].real
                        a[:k, :k] -= np.outer(x, r1 * np.conj(x))
                        diag[:k] = diag[:k].real
                    else:
                        r1 = 1.0 / a[k, k]
                        a[:k, :k] -= np.outer(x, r1 * x)
                    x *= r1
            else:
                # 2x2 pivot in columns (k-1, k): rank-2 update of the
                # leading (k-1)x(k-1) block.
                if k > 1:
                    cols = a[:k - 1, k - 1: k + 1]
                    colkm1, colk = cols[:, 0], cols[:, 1]
                    if hermitian:
                        dd = float(np.hypot(a[k - 1, k].real,
                                            a[k - 1, k].imag))
                        d22 = a[k - 1, k - 1].real / dd
                        d11 = a[k, k].real / dd
                        tt = 1.0 / (d11 * d22 - 1.0)
                        d12 = a[k - 1, k] / dd
                        dsc = tt / dd
                        wkm1 = dsc * (d11 * colkm1 - colk * np.conj(d12))
                        wk = dsc * (d22 * colk - colkm1 * d12)
                        a[:k - 1, :k - 1] -= cols @ np.conj(
                            np.stack((wkm1, wk)))
                        diag[:k - 1] = diag[:k - 1].real
                    else:
                        d12 = a[k - 1, k]
                        d22 = a[k - 1, k - 1] / d12
                        d11 = a[k, k] / d12
                        tt = 1.0 / (d11 * d22 - 1.0)
                        d12 = tt / d12
                        wkm1 = d12 * (d11 * colkm1 - colk)
                        wk = d12 * (d22 * colk - colkm1)
                        a[:k - 1, :k - 1] -= cols @ np.stack((wkm1, wk))
                    colk[:] = wk
                    colkm1[:] = wkm1
        if kstep == 1:
            ipiv[k] = kp
        else:
            ipiv[k] = -(kp + 1)
            ipiv[k - 1] = -(kp + 1)
        k -= kstep
    return info


def _sytf2_lower(a: np.ndarray, ipiv: np.ndarray, hermitian: bool) -> int:
    # Mirror image of ``_sytf2_upper``: the upper triangle is scratch.
    n = a.shape[0]
    diag = a.reshape(-1)[:: n + 1]
    info = 0
    k = 0
    while k < n:
        kstep = 1
        absakk = abs(a[k, k].real) if hermitian else _cabs1(a[k, k])
        if k < n - 1:
            col = a[k + 1:, k]
            imax = k + 1 + int(np.argmax(_cabs1(col)))
            colmax = float(_cabs1(a[imax, k]))
        else:
            imax, colmax = k, 0.0
        if max(absakk, colmax) == 0.0:
            if info == 0:
                info = k + 1
            kp = k
            if hermitian:
                a[k, k] = a[k, k].real
        else:
            if absakk >= _ALPHA * colmax:
                kp = k
            else:
                rowmax = float(np.max(_cabs1(a[imax, k:imax]))) \
                    if imax > k else 0.0
                if imax < n - 1:
                    rowmax = max(rowmax,
                                 float(np.max(_cabs1(a[imax + 1:, imax]))))
                dmag = abs(a[imax, imax].real) if hermitian \
                    else _cabs1(a[imax, imax])
                if absakk >= _ALPHA * colmax * (colmax / rowmax):
                    kp = k
                elif dmag >= _ALPHA * rowmax:
                    kp = imax
                else:
                    kp = imax
                    kstep = 2
            kk = k + kstep - 1
            if kp != kk:
                if kp < n - 1:
                    tmp = a[kp + 1:, kk].copy()
                    a[kp + 1:, kk] = a[kp + 1:, kp]
                    a[kp + 1:, kp] = tmp
                seg = a[kk + 1: kp, kk].copy()
                if hermitian:
                    a[kk + 1: kp, kk] = np.conj(a[kp, kk + 1: kp])
                    a[kp, kk + 1: kp] = np.conj(seg)
                    a[kp, kk] = np.conj(a[kp, kk])
                    dkk, dkp = a[kk, kk].real, a[kp, kp].real
                    a[kk, kk], a[kp, kp] = dkp, dkk
                else:
                    a[kk + 1: kp, kk] = a[kp, kk + 1: kp]
                    a[kp, kk + 1: kp] = seg
                    a[kk, kk], a[kp, kp] = a[kp, kp], a[kk, kk]
                if kstep == 2:
                    a[kk, k], a[kp, k] = a[kp, k], a[kk, k]
            elif hermitian:
                a[kk, kk] = a[kk, kk].real
                if kstep == 2:
                    a[k, k] = a[k, k].real
            if kstep == 1:
                # 1x1 pivot: rank-1 update of the trailing block.
                if k < n - 1:
                    x = a[k + 1:, k]
                    if hermitian:
                        r1 = 1.0 / a[k, k].real
                        a[k + 1:, k + 1:] -= np.outer(x, r1 * np.conj(x))
                        diag[k + 1:] = diag[k + 1:].real
                    else:
                        r1 = 1.0 / a[k, k]
                        a[k + 1:, k + 1:] -= np.outer(x, r1 * x)
                    x *= r1
            else:
                # 2x2 pivot in columns (k, k+1): rank-2 update of the
                # trailing block.
                if k < n - 2:
                    cols = a[k + 2:, k: k + 2]
                    colk, colkp1 = cols[:, 0], cols[:, 1]
                    if hermitian:
                        dd = float(np.hypot(a[k + 1, k].real,
                                            a[k + 1, k].imag))
                        d11 = a[k + 1, k + 1].real / dd
                        d22 = a[k, k].real / dd
                        tt = 1.0 / (d11 * d22 - 1.0)
                        d21 = a[k + 1, k] / dd
                        dsc = tt / dd
                        wk = dsc * (d11 * colk - colkp1 * d21)
                        wkp1 = dsc * (d22 * colkp1 - colk * np.conj(d21))
                        a[k + 2:, k + 2:] -= cols @ np.conj(
                            np.stack((wk, wkp1)))
                        diag[k + 2:] = diag[k + 2:].real
                    else:
                        d21 = a[k + 1, k]
                        d11 = a[k + 1, k + 1] / d21
                        d22 = a[k, k] / d21
                        tt = 1.0 / (d11 * d22 - 1.0)
                        d21 = tt / d21
                        wk = d21 * (d11 * colk - colkp1)
                        wkp1 = d21 * (d22 * colkp1 - colk)
                        a[k + 2:, k + 2:] -= cols @ np.stack((wk, wkp1))
                    colk[:] = wk
                    colkp1[:] = wkp1
        if kstep == 1:
            ipiv[k] = kp
        else:
            ipiv[k] = -(kp + 1)
            ipiv[k + 1] = -(kp + 1)
        k += kstep
    return info


def sytf2(a: np.ndarray, uplo: str = "U", hermitian: bool = False):
    """Unblocked Bunch–Kaufman factorization (in place).

    Only the ``uplo`` triangle of ``a`` is read, and only it is
    overwritten (with the factor and D); the opposite strict triangle is
    left exactly as the caller had it.  Each 1×1 or 2×2 update is one
    broadcast subtract over the whole contiguous trailing block of a
    full symmetric working copy, built once, whose opposite triangle is
    scratch.  Returns ``(ipiv, info)``.
    """
    if uplo.upper() not in ("U", "L"):
        xerbla("SYTF2", 1, f"uplo={uplo!r}")
    n = a.shape[0]
    if a.shape[1] != n:
        xerbla("SYTF2", 2, "matrix must be square")
    ipiv = np.zeros(n, dtype=np.int64)
    work = _sym_full(a, uplo, hermitian)
    if uplo.upper() == "U":
        info = _sytf2_upper(work, ipiv, hermitian)
    else:
        info = _sytf2_lower(work, ipiv, hermitian)
    _put_triangle(a, work, uplo)
    return ipiv, info


def sytrf(a: np.ndarray, uplo: str = "U"):
    """Bunch–Kaufman factorization of a symmetric matrix, ``A = U D Uᵀ``.

    Runs the unblocked kernel :func:`sytf2` (``xSYTF2``): the same
    pivot rule and interchanges as LAPACK's, with each step's update
    vectorized over the whole trailing block.  LAPACK's blocked
    ``xLASYF`` path, which it takes from n = 64 on, is not reproduced;
    it reorders the update arithmetic, so its factors agree with these
    only up to rounding.  Returns ``(ipiv, info)``.
    """
    return sytf2(a, uplo, hermitian=False)


def hetf2(a: np.ndarray, uplo: str = "U"):
    """Unblocked Hermitian Bunch–Kaufman factorization (``xHETF2``)."""
    return sytf2(a, uplo, hermitian=True)


def hetrf(a: np.ndarray, uplo: str = "U"):
    """Bunch–Kaufman factorization of a Hermitian matrix, ``A = U D Uᴴ``.

    Runs the unblocked kernel :func:`sytf2` (``xHETF2``) in its
    Hermitian flavour; as for :func:`sytrf`, LAPACK's blocked
    ``xLAHEF`` path is not reproduced.  Returns ``(ipiv, info)``.
    """
    return sytf2(a, uplo, hermitian=True)


def _bk_blocks(ipiv: np.ndarray, upper: bool):
    """Walk Bunch–Kaufman pivots in the order the factorization made
    them (upper: from the last row up; lower: from the first row down).

    Returns the 1×1 block indices, the first index of each 2×2 block,
    and the interchanges ``(r, p, c)``: rows r and p were swapped at the
    block ending at column c − 1 (upper) or starting at column c
    (lower), so the factor columns computed before it are those from c
    on (upper) or before c (lower).
    """
    piv = ipiv.tolist()
    n = len(piv)
    ones, pairs, swaps = [], [], []
    k = n - 1 if upper else 0
    while 0 <= k < n:
        if piv[k] >= 0:
            ones.append(k)
            r, p, c = k, piv[k], k + 1 if upper else k
            k += -1 if upper else 1
        elif upper:
            pairs.append(k - 1)
            r, p, c = k - 1, -piv[k] - 1, k + 1
            k -= 2
        else:
            pairs.append(k)
            r, p, c = k + 1, -piv[k] - 1, k
            k += 2
        if p != r:
            swaps.append((r, p, c))
    return ones, pairs, swaps


def sytrs(a: np.ndarray, ipiv: np.ndarray, b: np.ndarray, uplo: str = "U",
          hermitian: bool = False) -> int:
    """Solve from the Bunch–Kaufman factors (B in place), as LAPACK's
    ``?sytrs2`` does.

    On a working copy of the factor, ``?syconv`` zeroes the 2×2 blocks'
    off-diagonals and carries every interchange into the factor columns
    computed before it, which leaves one unit triangular U (or L) with
    ``A = P·U·D·Uᵀ·Pᵀ`` (``Uᴴ`` when ``hermitian``).  Then
    ``B := P·U⁻ᵀ·D⁻¹·U⁻¹·Pᵀ·B``: one gather for each permutation, two
    unit :func:`trsm` solves, and one vectorised solve with all 1×1 and
    2×2 blocks of D.  ``a`` is only read.
    """
    n = a.shape[0]
    bmat = b if b.ndim == 2 else b[:, None]
    if bmat.shape[0] != n:
        xerbla("SYTRS", 4, "dimension mismatch")
    if n == 0:
        return 0
    upper = uplo.upper() == "U"
    ones, pairs, swaps = _bk_blocks(ipiv, upper)
    # ?syconv on the working copy.
    w = a.copy()
    f = np.asarray(pairs, dtype=np.intp)
    g = f + 1
    off = (f, g) if upper else (g, f)
    e = w[off]
    w[off] = 0
    for r, p, c in swaps:
        cols = slice(c, n) if upper else slice(0, c)
        row = w[r, cols].copy()
        w[r, cols] = w[p, cols]
        w[p, cols] = row
    sw = list(range(n))
    for r, p, _ in swaps:
        sw[r] = p
    laswp(bmat, sw, forward=not upper)
    trsm(1, w, bmat, side="L", uplo=uplo, transa="N", diag="U")
    # D⁻¹: the 1×1 blocks, then every 2×2 block [[d_f, ε], [ε*, d_g]]
    # (ε* = conj(ε) when hermitian) scaled by its off-diagonal.
    o = np.asarray(ones, dtype=np.intp)
    d = a[o, o]
    bmat[o] /= (d.real if hermitian else d)[:, None]
    if f.size:
        ec = np.conj(e) if hermitian else e
        ef, eg = (e, ec) if upper else (ec, e)
        af = a[f, f] / ef
        ag = a[g, g] / eg
        denom = (af * ag - 1.0)[:, None]
        bf = bmat[f] / ef[:, None]
        bg = bmat[g] / eg[:, None]
        bmat[f] = (ag[:, None] * bf - bg) / denom
        bmat[g] = (af[:, None] * bg - bf) / denom
    trsm(1, w, bmat, side="L", uplo=uplo,
         transa="C" if hermitian else "T", diag="U")
    laswp(bmat, sw, forward=upper)
    return 0


def hetrs(a, ipiv, b, uplo="U"):
    """Hermitian variant of :func:`sytrs`."""
    return sytrs(a, ipiv, b, uplo=uplo, hermitian=True)


def sysv(a: np.ndarray, b: np.ndarray, uplo: str = "U"):
    """Solve a symmetric indefinite system (``xSYSV``).

    Returns ``(ipiv, info)``.
    """
    ipiv, info = sytrf(a, uplo)
    if info == 0:
        sytrs(a, ipiv, b, uplo)
    return ipiv, info


def hesv(a: np.ndarray, b: np.ndarray, uplo: str = "U"):
    """Solve a Hermitian indefinite system (``xHESV``).

    Returns ``(ipiv, info)``.
    """
    ipiv, info = hetrf(a, uplo)
    if info == 0:
        hetrs(a, ipiv, b, uplo)
    return ipiv, info


def _indef_con(a, ipiv, anorm, uplo, hermitian):
    n = a.shape[0]
    if n == 0:
        return 1.0, 0
    if anorm == 0:
        return 0.0, 0

    def solve(x):
        y = x.copy()
        sytrs(a, ipiv, y, uplo=uplo, hermitian=hermitian)
        return y

    if hermitian or not np.iscomplexobj(a):
        # inv(A) Hermitian ⇒ matvec == rmatvec.
        est = lacon(n, solve, solve, dtype=a.dtype)
    else:
        # Complex symmetric: inv(A)ᴴ = conj(inv(A)).
        def solve_h(x):
            y = np.conj(x)
            sytrs(a, ipiv, y, uplo=uplo, hermitian=False)
            return np.conj(y)

        est = lacon(n, solve, solve_h, dtype=a.dtype)
    return (1.0 / (est * anorm) if est else 0.0), 0


def sycon(a, ipiv, anorm, uplo="U"):
    """Reciprocal condition estimate from ``sytrf`` factors."""
    return _indef_con(a, ipiv, anorm, uplo, hermitian=False)


def hecon(a, ipiv, anorm, uplo="U"):
    """Reciprocal condition estimate from ``hetrf`` factors."""
    return _indef_con(a, ipiv, anorm, uplo, hermitian=True)


def _indef_rfs(a, af, ipiv, b, x, uplo, hermitian, itmax=5):
    n = a.shape[0]
    full = _sym_full(a, uplo, hermitian)
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
    absa = np.abs(full)
    for j in range(nrhs):
        count, lstres = 1, 3.0
        while True:
            r = bmat[:, j] - full @ xmat[:, j]
            denom = absa @ np.abs(xmat[:, j]) + np.abs(bmat[:, j])
            num = np.abs(r)
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(denom > safe2, num / denom,
                                  (num + safe1) / (denom + safe1))
            berr[j] = float(np.max(ratios))
            if berr[j] > eps and berr[j] <= 0.5 * lstres and count <= itmax:
                dx = r.copy()
                sytrs(af, ipiv, dx, uplo=uplo, hermitian=hermitian)
                xmat[:, j] += dx
                lstres = berr[j]
                count += 1
            else:
                break
        r = bmat[:, j] - full @ xmat[:, j]
        f = np.abs(r) + (n + 1) * eps * (absa @ np.abs(xmat[:, j])
                                         + np.abs(bmat[:, j]))
        f = np.where(f > safe2, f, f + safe1)

        def mv(v):
            w = f * v
            sytrs(af, ipiv, w, uplo=uplo, hermitian=hermitian)
            return w

        def rmv(v):
            if hermitian or not np.iscomplexobj(a):
                return mv(v)
            w = np.conj(v)
            sytrs(af, ipiv, w, uplo=uplo, hermitian=False)
            return f * np.conj(w)

        est = lacon(n, mv, rmv, dtype=a.dtype)
        xnorm = float(np.max(np.abs(xmat[:, j])))
        ferr[j] = est / xnorm if xnorm > 0 else est
    return ferr, berr, 0


def syrfs(a, af, ipiv, b, x, uplo="U", itmax=5):
    """Refinement + error bounds for symmetric indefinite systems."""
    return _indef_rfs(a, af, ipiv, b, x, uplo, hermitian=False, itmax=itmax)


def herfs(a, af, ipiv, b, x, uplo="U", itmax=5):
    """Refinement + error bounds for Hermitian indefinite systems."""
    return _indef_rfs(a, af, ipiv, b, x, uplo, hermitian=True, itmax=itmax)
