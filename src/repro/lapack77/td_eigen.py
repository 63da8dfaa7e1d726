"""Symmetric/Hermitian tridiagonal eigen-machinery.

* ``sytrd``/``hetrd`` — Householder tridiagonalization ``QᴴAQ = T``,
* ``orgtr``/``ungtr`` — accumulate the transformation Q,
* ``steqr`` — implicit-shift QL iteration (eigenvalues ± eigenvectors),
* ``sterf`` — eigenvalues only,
* ``laev2`` — the 2×2 closed form,
* ``stebz`` — bisection (by value range or index range),
* ``stein`` — inverse iteration for selected eigenvectors,
* ``stedc`` — Cuppen divide-and-conquer with Gu–Eisenstat (Löwner)
  weight correction for orthogonal eigenvectors.

Substrate for the paper's ``LA_SYEV/LA_SYEVD/LA_SYEVX`` families (and the
packed/band variants, which reduce to this dense path — DESIGN.md §7).
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import xerbla
from .householder import larf_left, larfg
from .lautil import _put_triangle, _sym_full
from .machine import lamch

__all__ = ["sytd2", "sytrd", "hetrd", "orgtr", "ungtr",
           "steqr", "sterf", "laev2", "stebz", "stein", "stedc"]


def sytd2(a: np.ndarray, uplo: str = "L", hermitian: bool | None = None):
    """Unblocked tridiagonal reduction (in place).

    Returns ``(d, e, tau)``: the tridiagonal diagonals (real) and the
    reflector scalars.  The reflector vectors overwrite the ``uplo``
    triangle of ``a``; the opposite strict triangle is left untouched.

    The reduction runs on one full symmetric/Hermitian working copy:
    ``x = tau·(W v)`` is a plain matvec on the active block and the
    rank-2 update covers the whole block.  Mirrored entries subtract the
    same two products, so W stays exactly symmetric/Hermitian.
    """
    n = a.shape[0]
    if hermitian is None:
        hermitian = np.iscomplexobj(a)
    up = uplo.upper() == "U"
    rdtype = np.float32 if a.dtype in (np.float32, np.complex64) \
        else np.float64
    d = np.zeros(n, dtype=rdtype)
    e = np.zeros(max(n - 1, 0), dtype=rdtype)
    tau = np.zeros(max(n - 1, 0), dtype=a.dtype)
    conj = np.conj if hermitian else (lambda z: z)
    w = _sym_full(a, uplo, hermitian)
    for i in (range(n - 2, -1, -1) if up else range(n - 1)):
        if up:
            # Annihilate W[0:i, i+1] leaving e[i] at W[i, i+1]; the
            # active block is W[0:i+1, 0:i+1].
            top, col, blk = (i, i + 1), w[: i + 1, i + 1], w[: i + 1, : i + 1]
            beta, taui = larfg(w[top], col[:i])
        else:
            # Annihilate W[i+2:, i] leaving e[i] at W[i+1, i].
            top, col, blk = (i + 1, i), w[i + 1:, i], w[i + 1:, i + 1:]
            beta, taui = larfg(w[top], col[1:])
        e[i] = beta.real if hermitian else beta
        if taui != 0:
            w[top] = 1
            x = taui * (blk @ col)
            alpha = -0.5 * taui * np.dot(conj(x), col)
            upd = np.outer(col, conj(x + alpha * col))
            blk -= upd + conj(upd.T)
        w[top] = e[i]
        tau[i] = taui
    d[:] = w.diagonal().real if hermitian else w.diagonal()
    _put_triangle(a, w, uplo)
    return d, e, tau


def sytrd(a: np.ndarray, uplo: str = "L"):
    """Tridiagonal reduction of a real symmetric matrix (``xSYTRD``).

    Returns ``(d, e, tau)``.
    """
    if uplo.upper() not in ("U", "L"):
        xerbla("SYTRD", 1, f"uplo={uplo!r}")
    return sytd2(a, uplo, hermitian=False)


def hetrd(a: np.ndarray, uplo: str = "L"):
    """Tridiagonal reduction of a complex Hermitian matrix (``xHETRD``).

    Returns ``(d, e, tau)`` with real ``d``/``e``.
    """
    if uplo.upper() not in ("U", "L"):
        xerbla("HETRD", 1, f"uplo={uplo!r}")
    return sytd2(a, uplo, hermitian=True)


def orgtr(a: np.ndarray, tau: np.ndarray, uplo: str = "L") -> np.ndarray:
    """Generate the unitary Q of the tridiagonal reduction (in place).

    Returns ``a`` containing Q.
    """
    n = a.shape[0]
    up = uplo.upper() == "U"
    q = np.eye(n, dtype=a.dtype)
    if up:
        # Q = H(n-2) ... H(1) H(0); H(i) has v in A[0:i, i+1] with v[i] = 1.
        for i in range(n - 1):
            if tau[i] == 0:
                continue
            v = np.zeros(i + 1, dtype=a.dtype)
            v[:i] = a[:i, i + 1]
            v[i] = 1
            larf_left(v, tau[i], q[: i + 1, :])
    else:
        for i in range(n - 2, -1, -1):
            if tau[i] == 0:
                continue
            v = np.zeros(n - i - 1, dtype=a.dtype)
            v[0] = 1
            v[1:] = a[i + 2:, i]
            larf_left(v, tau[i], q[i + 1:, :])
    a[...] = q
    return a


def ungtr(a, tau, uplo="L"):
    """Complex alias of :func:`orgtr`."""
    return orgtr(a, tau, uplo)


def laev2(a: float, b: float, c: float):
    """Eigendecomposition of the symmetric 2×2 ``[[a, b], [b, c]]``.

    Returns ``(rt1, rt2, cs1, sn1)`` with ``rt1 ≥ rt2`` and the rotation
    ``[cs1, sn1]`` giving the eigenvector of ``rt1``.
    """
    sm = a + c
    df = a - c
    adf = abs(df)
    tb = b + b
    ab = abs(tb)
    if adf > ab:
        rt = adf * np.sqrt(1.0 + (ab / adf) ** 2)
    elif adf < ab:
        rt = ab * np.sqrt(1.0 + (adf / ab) ** 2)
    else:
        rt = ab * np.sqrt(2.0)
    if sm < 0:
        rt1 = 0.5 * (sm - rt)
        sgn1 = -1
        rt2 = (a / rt1) * c - (b / rt1) * b
    elif sm > 0:
        rt1 = 0.5 * (sm + rt)
        sgn1 = 1
        rt2 = (a / rt1) * c - (b / rt1) * b
    else:
        rt1 = 0.5 * rt
        rt2 = -0.5 * rt
        sgn1 = 1
    # Eigenvector.
    if df >= 0:
        cs = df + rt
        sgn2 = 1
    else:
        cs = df - rt
        sgn2 = -1
    acs = abs(cs)
    if acs > ab:
        ct = -tb / cs
        sn1 = 1.0 / np.sqrt(1.0 + ct * ct)
        cs1 = ct * sn1
    else:
        if ab == 0:
            cs1, sn1 = 1.0, 0.0
        else:
            tn = -cs / tb
            cs1 = 1.0 / np.sqrt(1.0 + tn * tn)
            sn1 = tn * cs1
    if sgn1 == sgn2:
        cs1, sn1 = -sn1, cs1
    return rt1, rt2, cs1, sn1


def steqr(d: np.ndarray, e: np.ndarray, z: np.ndarray | None = None,
          compz: str = "N", maxiter_factor: int = 30):
    """Implicit-shift QL iteration for a symmetric tridiagonal matrix.

    ``compz``: 'N' eigenvalues only; 'V' accumulate into the supplied ``z``
    (which must contain the reducing transformation Q); 'I' initialize
    ``z`` to the identity (eigenvectors of T itself).

    On success the eigenvalues overwrite ``d`` in ascending order and the
    columns of ``z`` are the matching eigenvectors.  Returns ``info``
    (> 0: off-diagonal ``e[info-1]`` failed to converge).

    The scalar recurrence runs on Python floats (double precision for
    every dtype).  Each sweep's rotations are recorded and then applied,
    in the same order, to contiguous row pairs of ``Zᵀ`` as one 2×2
    product each, in ``z``'s dtype.
    """
    c = compz.upper()
    if c not in ("N", "V", "I"):
        xerbla("STEQR", 1, f"compz={compz!r}")
    n = d.shape[0]
    want_z = c in ("V", "I")
    if want_z:
        if z is None:
            raise ValueError("compz='V'/'I' requires z")
        if c == "I":
            z[...] = 0
            z[np.arange(n), np.arange(n)] = 1
    if n <= 1:
        return 0
    eps = float(lamch("E", d.dtype))
    dl = d.tolist()
    el = e[: n - 1].tolist() + [0.0]
    if want_z:
        # Zᵀ, its row pairs (i, i+1) as views, and preallocated buffers
        # for one sweep's 2×2 rotations and one rotated row pair.
        zt = np.ascontiguousarray(z.T)
        rows = [zt[i: i + 2] for i in range(n - 1)]
        rot = np.empty((n - 1, 2, 2), dtype=z.dtype)
        rots = list(rot)
        pair = np.empty((2, zt.shape[1]), dtype=z.dtype)
    info = 0
    nmax_iter = maxiter_factor * n
    total_iter = 0
    for l in range(n):
        while True:
            # Look for a negligible off-diagonal element.
            m = l
            while m < n - 1:
                if abs(el[m]) <= eps * (abs(dl[m]) + abs(dl[m + 1])):
                    break
                m += 1
            if m == l:
                break
            total_iter += 1
            if total_iter > nmax_iter:
                # Report the first non-converged off-diagonal.
                info = l + 1
                break
            # Wilkinson shift.
            g = (dl[l + 1] - dl[l]) / (2.0 * el[l])
            r = math.hypot(g, 1.0)
            g = dl[m] - dl[l] + el[l] / (g + (r if g >= 0 else -r))
            s = 1.0
            cth = 1.0
            p = 0.0
            sweep = []
            for i in range(m - 1, l - 1, -1):
                f = s * el[i]
                b = cth * el[i]
                r = math.hypot(f, g)
                el[i + 1] = r
                if r == 0.0:
                    dl[i + 1] -= p
                    el[m] = 0.0
                    break
                s = f / r
                cth = g / r
                g = dl[i + 1] - p
                r = (dl[i] - g) * s + 2.0 * cth * b
                p = s * r
                dl[i + 1] = g + p
                g = cth * r - b
                sweep.append((cth, s))
            else:
                dl[l] -= p
                el[l] = g
                el[m] = 0.0
            if want_z and sweep:
                # Rotation j acts on rows (m-1-j, m-j) of Zᵀ:
                # [r_i; r_i+1] <- [[c, -s], [s, c]] [r_i; r_i+1].
                cs = np.array(sweep)
                k = cs.shape[0]
                rot[:k, 0, 0] = rot[:k, 1, 1] = cs[:, 0]
                rot[:k, 1, 0] = cs[:, 1]
                rot[:k, 0, 1] = -cs[:, 1]
                for j in range(k):
                    rows_j = rows[m - 1 - j]
                    np.dot(rots[j], rows_j, out=pair)
                    np.copyto(rows_j, pair)
        if info:
            break
    d[:] = dl
    if info:
        if want_z:
            z[...] = zt.T
        return info
    # Sort ascending (and permute z).
    order = np.argsort(d, kind="stable")
    d[:] = d[order]
    e[:] = 0
    if want_z:
        z[...] = zt[order].T
    return 0


def sterf(d: np.ndarray, e: np.ndarray, maxiter_factor: int = 30) -> int:
    """Eigenvalues of a symmetric tridiagonal matrix (no vectors)."""
    return steqr(d, e, None, compz="N", maxiter_factor=maxiter_factor)


def _sturm_count(d: np.ndarray, e2: np.ndarray, x: float,
                 pivmin: float) -> int:
    """Number of eigenvalues of T strictly less than x (Sturm sequence)."""
    count = 0
    q = d[0] - x
    if q < 0:
        count += 1
    for i in range(1, d.shape[0]):
        if q == 0:
            q = -pivmin
        q = d[i] - x - e2[i - 1] / q
        if q < 0:
            count += 1
    return count


def stebz(d: np.ndarray, e: np.ndarray, vl: float | None = None,
          vu: float | None = None, il: int | None = None,
          iu: int | None = None, abstol: float = 0.0):
    """Bisection eigenvalue computation (``xSTEBZ``).

    Select by value range ``(vl, vu]`` or 0-based index range
    ``[il, iu]``; with neither, all eigenvalues are computed.
    Returns ``(w, m, info)``: eigenvalues ascending and their count.
    """
    n = d.shape[0]
    if n == 0:
        return np.zeros(0), 0, 0
    e2 = np.zeros(max(n - 1, 0))
    e2[:] = np.asarray(e[: n - 1], dtype=np.float64) ** 2
    eps = lamch("E", np.float64)
    safemin = lamch("S", np.float64)
    pivmin = max(safemin, safemin * float(np.max(e2, initial=0.0)))
    # Gershgorin bounds.
    radius = np.zeros(n)
    absd = np.abs(np.asarray(e, dtype=np.float64))
    if n > 1:
        radius[0] = absd[0]
        radius[-1] = absd[n - 2]
        radius[1: n - 1] = absd[: n - 2] + absd[1: n - 1]
    gl = float(np.min(d - radius)) - 2 * pivmin - 1e-12
    gu = float(np.max(d + radius)) + 2 * pivmin + 1e-12
    if abstol <= 0:
        abstol = eps * max(abs(gl), abs(gu))

    def count(x):
        return _sturm_count(np.asarray(d, dtype=np.float64), e2, x, pivmin)

    if il is not None or iu is not None:
        il = 0 if il is None else il
        iu = n - 1 if iu is None else iu
        if not (0 <= il <= iu < n):
            xerbla("STEBZ", 4, "index range out of bounds")
        idx = range(il, iu + 1)
    else:
        lo = gl if vl is None else vl
        hi = gu if vu is None else vu
        n_lo = count(lo)
        n_hi = count(hi)
        idx = range(n_lo, n_hi)
    ws = []
    for k in idx:
        # Bisect for the (k+1)-th smallest eigenvalue.
        a_, b_ = gl, gu
        while b_ - a_ > abstol + 4 * eps * max(abs(a_), abs(b_)):
            mid = 0.5 * (a_ + b_)
            if count(mid) > k:
                b_ = mid
            else:
                a_ = mid
        ws.append(0.5 * (a_ + b_))
    w = np.array(ws)
    return w, len(ws), 0


def stein(d: np.ndarray, e: np.ndarray, w: np.ndarray,
          max_its: int = 5, rng=None):
    """Inverse iteration for selected eigenvectors of a symmetric
    tridiagonal matrix (``xSTEIN``).

    ``w`` holds the (ascending) eigenvalues to invert against.  Returns
    ``(z, info)`` — the n×m eigenvector matrix; ``info`` counts vectors
    that failed to converge.
    """
    from .tridiag import gttrf, gttrs
    n = d.shape[0]
    m = w.shape[0]
    z = np.zeros((n, m))
    if rng is None:
        rng = np.random.default_rng(1998)
    eps = lamch("E", np.float64)
    norm_t = float(np.max(np.abs(d)) + 2 * np.max(np.abs(e), initial=0.0))
    failed = 0
    prev_in_cluster = []
    for j in range(m):
        # Cluster detection: orthogonalize against close-by eigenvectors.
        if j > 0 and abs(w[j] - w[j - 1]) <= 1e-3 * max(norm_t, 1e-30) * 1e-4 \
                + 10 * eps * abs(w[j]):
            prev_in_cluster.append(j - 1)
        else:
            prev_in_cluster = []
        # Perturb the shift slightly to keep the factorization regular.
        shift = w[j] + eps * norm_t * (1 + j % 3)
        dl = np.asarray(e, dtype=np.float64).copy()
        du = np.asarray(e, dtype=np.float64).copy()
        dd = np.asarray(d, dtype=np.float64) - shift
        du2, ipiv, _ = gttrf(dl, dd, du)
        x = rng.standard_normal(n)
        x /= np.linalg.norm(x)
        ok = False
        for _ in range(max_its):
            gttrs(dl, dd, du, du2, ipiv, x)
            for p in prev_in_cluster:
                x -= np.dot(z[:, p], x) * z[:, p]
            nrm = np.linalg.norm(x)
            if nrm == 0:
                x = rng.standard_normal(n)
                nrm = np.linalg.norm(x)
            grow = nrm
            x /= nrm
            if grow > 1.0 / (np.sqrt(eps) * max(abs(shift), 1.0) + 1e-300):
                ok = True
                break
        else:
            ok = True  # accept after max_its (LAPACK flags via info)
        # Final cluster re-orthogonalization.
        for p in prev_in_cluster:
            x -= np.dot(z[:, p], x) * z[:, p]
        nrm = np.linalg.norm(x)
        if nrm > 0:
            x /= nrm
        else:
            failed += 1
        # Fix the sign: largest component positive (determinism).
        k = int(np.argmax(np.abs(x)))
        if x[k] < 0:
            x = -x
        z[:, j] = x
    return z, failed


# ---------------------------------------------------------------------------
# Divide and conquer (Cuppen + Gu–Eisenstat weights)
# ---------------------------------------------------------------------------

_DC_MIN = 32  # below this, fall back to steqr (LAPACK's SMLSIZ analogue)


def _secular_roots(dk: np.ndarray, z2: np.ndarray, rho: float):
    """Roots of the secular equation ``1 + rho Σ z²ₖ/(dₖ − λ) = 0``.

    Solved in *gap coordinates*: each root λ_i ∈ (d_i, d_{i+1}) is written
    as ``d_anchor + t`` with the anchor chosen as the nearer pole, and the
    bisection runs on ``t``.  This keeps ``d_k − λ_i`` accurate even for
    tightly clustered poles, which is what preserves eigenvector
    orthogonality (the same reason LAPACK's ``xLAED4`` solves for the gap).

    Returns ``(lam, anchor, off)`` with ``lam = dk[anchor] + off``.
    """
    k = dk.shape[0]
    lam = np.empty(k)
    anchor = np.empty(k, dtype=np.int64)
    off = np.empty(k)
    eps = np.finfo(np.float64).eps
    sum_z2 = float(np.sum(z2))
    for i in range(k):
        if i < k - 1:
            delta = dk[i + 1] - dk[i]
            midt = 0.5 * delta
            if midt == 0.0:
                anchor[i] = i
                off[i] = 0.0
                lam[i] = dk[i]
                continue
            diffs_i = dk - dk[i]
            fmid = 1.0 + rho * float(np.sum(z2 / (diffs_i - midt)))
            if fmid >= 0:
                anc, a_, b_ = i, 0.0, midt
            else:
                anc, a_, b_ = i + 1, -midt, 0.0
        else:
            anc = k - 1
            a_, b_ = 0.0, rho * sum_z2 + eps * max(abs(dk[-1]), rho * sum_z2,
                                                   1.0)
        diffs = dk - dk[anc]
        for _ in range(160):
            t = 0.5 * (a_ + b_)
            if t == a_ or t == b_:
                break
            val = 1.0 + rho * float(np.sum(z2 / (diffs - t)))
            if val < 0:
                a_ = t
            else:
                b_ = t
        t = 0.5 * (a_ + b_)
        anchor[i] = anc
        off[i] = t
        lam[i] = dk[anc] + t
    return lam, anchor, off


def _stedc_rec(d: np.ndarray, e: np.ndarray):
    """Recursive divide and conquer; returns ``(w, q)``."""
    n = d.shape[0]
    if n <= _DC_MIN:
        w = d.copy()
        ee = e.copy()
        q = np.empty((n, n))
        info = steqr(w, ee, q, compz="I")
        if info != 0:
            raise RuntimeError("steqr failed inside stedc")
        return w, q
    m = n // 2
    rho = float(e[m - 1])
    d1 = d[:m].copy()
    d2 = d[m:].copy()
    d1[-1] -= abs(rho)
    d2[0] -= abs(rho)
    w1, q1 = _stedc_rec(d1, e[: m - 1])
    w2, q2 = _stedc_rec(d2, e[m:])
    # Coupling: T = diag(T1′, T2′) + |rho| u uᵀ with u = [sign(rho)·e_m; e_1],
    # so in eigencoordinates z = [sign(rho)·(last row of Q1), first row of Q2].
    return _dc_merge_signed(w1, q1, w2, q2, rho)


def _dc_merge_signed(d1, q1, d2, q2, rho):
    """Wrapper handling the sign of the coupling element: the parent is
    ``diag(D1, D2) + |rho| z zᵀ`` with ``z = [sign(rho)·Q1ᵀe_last, Q2ᵀe_0]``."""
    n1 = d1.shape[0]
    sign = 1.0 if rho >= 0 else -1.0
    # Implement by temporarily scaling the last-row contribution.
    z = np.concatenate([sign * q1[-1, :], q2[0, :]])
    dall = np.concatenate([d1, d2])
    n = dall.shape[0]
    qall = np.zeros((n, n))
    qall[:n1, :n1] = q1
    qall[n1:, n1:] = q2
    return _merge_core(dall, z, qall, abs(rho))


def _merge_core(dall: np.ndarray, z: np.ndarray, qall: np.ndarray,
                rho: float):
    """Core rank-one-update eigensolver: ``diag(dall) + rho z zᵀ``
    (rho ≥ 0), with deflation and Löwner-corrected weights."""
    n = dall.shape[0]
    znorm = float(np.linalg.norm(z))
    if znorm == 0 or rho == 0:
        order = np.argsort(dall, kind="stable")
        return dall[order], qall[:, order]
    z = z / znorm
    rho_eff = rho * znorm * znorm
    order = np.argsort(dall, kind="stable")
    dall = dall[order]
    z = z[order]
    qall = qall[:, order]
    eps = np.finfo(np.float64).eps
    scale = max(float(np.max(np.abs(dall))), rho_eff, 1e-30)
    tol = 8.0 * eps * scale
    keep = rho_eff * np.abs(z) > tol
    idx_keep = [i for i in range(n) if keep[i]]
    i = 0
    while i < len(idx_keep) - 1:
        a_i, b_i = idx_keep[i], idx_keep[i + 1]
        if abs(dall[b_i] - dall[a_i]) <= tol:
            r = float(np.hypot(z[a_i], z[b_i]))
            if r > 0:
                c_ = z[b_i] / r
                s_ = z[a_i] / r
                z[b_i] = r
                z[a_i] = 0.0
                col_a = qall[:, a_i].copy()
                qall[:, a_i] = c_ * col_a - s_ * qall[:, b_i]
                qall[:, b_i] = s_ * col_a + c_ * qall[:, b_i]
            idx_keep.pop(i)
        else:
            i += 1
    keep = np.zeros(n, dtype=bool)
    keep[idx_keep] = True
    kidx = np.where(keep)[0]
    didx = np.where(~keep)[0]
    k = kidx.shape[0]
    d_out = np.empty(n)
    q_out = np.empty((n, n))
    d_out[k:] = dall[didx]
    q_out[:, k:] = qall[:, didx]
    if k > 0:
        dk = dall[kidx].astype(np.float64)
        zk = z[kidx].astype(np.float64)
        z2 = zk * zk
        lam, anchor, off = _secular_roots(dk, z2, rho_eff)
        # d_j − λ_i computed through the anchor so clustered poles keep
        # full relative accuracy: (d_j − d_anchor(i)) − off_i.
        denoms = (dk[:, None] - dk[anchor][None, :]) - off[None, :]
        # Gu–Eisenstat (Löwner) weights from the computed roots.
        zg = np.empty(k)
        for i in range(k):
            # |ẑ_i|² = Π_j (λ_j − d_i) / (rho Π_{j≠i} (d_j − d_i))
            num = -denoms[i, :]                     # λ_j − d_i
            p = 1.0
            for j in range(k):
                p *= num[j]
                if j != i:
                    p /= (dk[j] - dk[i])
            p /= rho_eff
            zg[i] = np.sqrt(max(p, 0.0)) * (1.0 if zk[i] >= 0 else -1.0)
        vecs = np.empty((k, k))
        for i in range(k):
            denom = denoms[:, i]
            denom = np.where(denom == 0, eps * scale, denom)
            col = zg / denom
            nrm = np.linalg.norm(col)
            if nrm == 0:
                col = np.zeros(k)
                col[i] = 1.0
                nrm = 1.0
            vecs[:, i] = col / nrm
        d_out[:k] = lam
        q_out[:, :k] = qall[:, kidx] @ vecs
    order = np.argsort(d_out, kind="stable")
    return d_out[order], q_out[:, order]


def stedc(d: np.ndarray, e: np.ndarray, z: np.ndarray | None = None,
          compz: str = "I"):
    """Divide-and-conquer eigensolver for symmetric tridiagonal matrices
    (``xSTEDC``).

    ``compz='N'`` eigenvalues only (delegates to :func:`sterf`);
    ``'I'`` eigenvectors of T; ``'V'`` back-transform with the supplied
    ``z`` (the reduction's Q), i.e. ``z := z @ Q_T``.

    Eigenvalues overwrite ``d`` (ascending).  Returns ``info``.
    """
    c = compz.upper()
    if c not in ("N", "V", "I"):
        xerbla("STEDC", 1, f"compz={compz!r}")
    n = d.shape[0]
    if c == "N":
        return sterf(d, e)
    if z is None:
        raise ValueError("compz='V'/'I' requires z")
    if n == 0:
        return 0
    try:
        w, q = _stedc_rec(np.asarray(d, dtype=np.float64),
                          np.asarray(e, dtype=np.float64))
    except RuntimeError:
        return 1
    d[:] = w
    if c == "I":
        z[...] = q
    else:
        z[...] = z @ q
    return 0
