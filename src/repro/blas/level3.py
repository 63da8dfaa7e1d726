"""Level-3 BLAS: O(n³) matrix-matrix kernels.

These are the kernels whose "coarse granularity … promotes high efficiency"
(paper §1.1).  NumPy's ``@`` (vendor GEMM underneath) plays the role the
manufacturer-tuned BLAS plays for FORTRAN LAPACK; the other kernels are
built on top of it.  ``trmm`` is one product with the masked triangle.
``trsm`` is Level-3 in step count as well as in flops: it inverts all
32×32 diagonal blocks of the triangle at once, one stacked ``@`` pair
per doubling level as in ReLAPACK's recursive ``trtri``, then takes n/32
block steps of one small ``@`` and one GEMM update each.  Every block
result is refined once and checked against the residual bound column
substitution guarantees; substitution itself runs when the check fails
and for n < 16.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

__all__ = ["gemm", "symm", "hemm", "syrk", "herk", "syr2k", "her2k",
           "trmm", "trsm"]


def _op(a: np.ndarray, trans: str) -> np.ndarray:
    t = trans.upper()
    if t == "N":
        return a
    if t == "T":
        return a.T
    if t == "C":
        return np.conj(a.T)
    raise ValueError(f"illegal trans option {trans!r}")


def gemm(alpha, a: np.ndarray, b: np.ndarray, beta, c: np.ndarray,
         transa: str = "N", transb: str = "N") -> np.ndarray:
    """``C := alpha*op(A)*op(B) + beta*C`` (in place). Returns ``C``."""
    prod = _op(a, transa) @ _op(b, transb)
    if beta == 0:
        c[...] = alpha * prod
    else:
        c *= beta
        c += alpha * prod
    return c


def _sym_full(a: np.ndarray, uplo: str, hermitian: bool) -> np.ndarray:
    if uplo.upper() == "U":
        full = np.triu(a) + (np.conj(np.triu(a, 1)).T if hermitian
                             else np.triu(a, 1).T)
    else:
        full = np.tril(a) + (np.conj(np.tril(a, -1)).T if hermitian
                             else np.tril(a, -1).T)
    if hermitian:
        np.fill_diagonal(full, full.diagonal().real)
    return full


def symm(alpha, a: np.ndarray, b: np.ndarray, beta, c: np.ndarray,
         side: str = "L", uplo: str = "U") -> np.ndarray:
    """``C := alpha*A*B + beta*C`` (side='L') with A symmetric, only the
    ``uplo`` triangle referenced."""
    full = _sym_full(a, uplo, False)
    prod = full @ b if side.upper() == "L" else b @ full
    if beta == 0:
        c[...] = alpha * prod
    else:
        c *= beta
        c += alpha * prod
    return c


def hemm(alpha, a, b, beta, c, side="L", uplo="U"):
    """Hermitian variant of :func:`symm`."""
    full = _sym_full(a, uplo, True)
    prod = full @ b if side.upper() == "L" else b @ full
    if beta == 0:
        c[...] = alpha * prod
    else:
        c *= beta
        c += alpha * prod
    return c


def _rank_k_store(c: np.ndarray, upd: np.ndarray, beta, uplo: str,
                  real_diag: bool) -> np.ndarray:
    if uplo.upper() == "U":
        idx = np.triu_indices_from(c)
    else:
        idx = np.tril_indices_from(c)
    if beta == 0:
        c[idx] = upd[idx]
    else:
        c[idx] = beta * c[idx] + upd[idx]
    if real_diag:
        d = c.diagonal().real.copy()
        np.fill_diagonal(c, d)
    return c


def syrk(alpha, a: np.ndarray, beta, c: np.ndarray, uplo: str = "U",
         trans: str = "N") -> np.ndarray:
    """Symmetric rank-k update: ``C := alpha*A*Aᵀ + beta*C`` (trans='N') or
    ``alpha*Aᵀ*A + beta*C`` (trans='T'); only the ``uplo`` triangle of C is
    updated."""
    if trans.upper() == "N":
        upd = alpha * (a @ a.T)
    else:
        upd = alpha * (a.T @ a)
    return _rank_k_store(c, upd, beta, uplo, False)


def herk(alpha, a: np.ndarray, beta, c: np.ndarray, uplo: str = "U",
         trans: str = "N") -> np.ndarray:
    """Hermitian rank-k update (alpha, beta real)."""
    if trans.upper() == "N":
        upd = alpha * (a @ np.conj(a.T))
    else:
        upd = alpha * (np.conj(a.T) @ a)
    return _rank_k_store(c, upd, beta, uplo, True)


def syr2k(alpha, a, b, beta, c, uplo="U", trans="N"):
    """Symmetric rank-2k update."""
    if trans.upper() == "N":
        upd = alpha * (a @ b.T)
        upd = upd + upd.T
    else:
        upd = alpha * (a.T @ b)
        upd = upd + upd.T
    return _rank_k_store(c, upd, beta, uplo, False)


def her2k(alpha, a, b, beta, c, uplo="U", trans="N"):
    """Hermitian rank-2k update (beta real)."""
    if trans.upper() == "N":
        upd = alpha * (a @ np.conj(b.T))
        upd = upd + np.conj(upd.T)
    else:
        upd = alpha * (np.conj(a.T) @ b)
        upd = upd + np.conj(upd.T)
    return _rank_k_store(c, upd, beta, uplo, True)


def _tri(a: np.ndarray, uplo: str, diag: str) -> np.ndarray:
    t = np.triu(a) if uplo.upper() == "U" else np.tril(a)
    if diag.upper() == "U":
        np.fill_diagonal(t, 1)
    return t


def trmm(alpha, a: np.ndarray, b: np.ndarray, side: str = "L",
         uplo: str = "U", transa: str = "N", diag: str = "N") -> np.ndarray:
    """Triangular matrix-matrix product ``B := alpha*op(A)*B`` (side='L')
    or ``alpha*B*op(A)`` (side='R'), in place."""
    t = _op(_tri(a, uplo, diag), transa)
    if side.upper() == "L":
        b[...] = alpha * (t @ b)
    else:
        b[...] = alpha * (b @ t)
    return b


#: Width of the diagonal blocks :func:`trsm` inverts: five doubling
#: levels, then n/32 block steps.
_NB = 32
#: Below this order substitution's n steps cost less than inverting.
_MIN_INV = 16
#: ``_LOWER[s]``: the lower-triangle mask of an s×s block, s = 1, 2, …, _NB.
_LOWER = {1 << k: np.tri(1 << k, dtype=bool) for k in range(_NB.bit_length())}


def _inv_diag_blocks(t: np.ndarray, lower: bool, unit: bool, s: int):
    """The s×s diagonal blocks of the ``lower`` (or upper) triangle of
    ``t`` and their inverses, as two ``(⌈n/s⌉, s, s)`` stacks (the last
    block padded by the identity).

    The inverses are built in a buffer whose rows are s(s+1) long, so
    the 2h×2h diagonal sub-blocks of every block are one reshaped view.
    The strict triangles are stored negated and the 1×1 leaves
    inverted; then each doubling level h → 2h is one stacked ``@`` pair
    over all sub-blocks of all blocks, ``W21 = W22·(−L21)·W11`` (upper:
    ``W12 = W11·(−U12)·W22``), written in place: ReLAPACK's recursive
    ``trtri`` run breadth-first.
    """
    n = t.shape[0]
    full, r = divmod(n, s)
    m = full + (r > 0)
    mask = _LOWER[s] if lower else _LOWER[s].T
    buf = np.zeros((m, s * (s + 1)), dtype=t.dtype)
    d = buf[:, :s * s].reshape(m, s, s)
    if full == 1:
        np.copyto(d[0], t[:s, :s], where=mask)
    elif full:
        rs, cs = t.strides
        blocks = as_strided(t, shape=(full, s, s),
                            strides=(s * (rs + cs), rs, cs), writeable=False)
        np.copyto(d[:full], blocks, where=mask)
    if r:
        np.copyto(d[full, :r, :r], t[full * s:, full * s:],
                  where=mask[:r, :r])
    diag = buf[:, :s * s:s + 1]
    if unit:
        diag[...] = 1
    elif r:
        diag[-1, r:] = 1
    tri = d.copy()
    np.negative(buf, out=buf)
    np.divide(-1, diag, out=diag)
    h = 1
    while h < s:
        # The 2h×2h diagonal sub-blocks, split into h×h quarters.
        x = buf.reshape(m, s // (2 * h), 2 * h * (s + 1))[..., :2 * h * s] \
            .reshape(m, s // (2 * h), 2 * h, s)
        w11, w22 = x[..., :h, :h], x[..., h:, h:2 * h]
        if lower:
            off = x[..., h:, :h]
            np.matmul(w22 @ off, w11, out=off)
        else:
            off = x[..., :h, h:2 * h]
            np.matmul(w11 @ off, w22, out=off)
        h *= 2
    return tri, d


def _update(t: np.ndarray, lower: bool, b: np.ndarray, r0: int,
            r1: int) -> None:
    """Subtract the solved rows ``r0:r1`` of B from the rows still to
    solve: one GEMM."""
    if lower:
        if r1 < t.shape[0]:
            b[r1:] -= t[r1:, r0:r1] @ b[r0:r1]
    elif r0 > 0:
        b[:r0] -= t[:r0, r0:r1] @ b[r0:r1]


def _solve_inverted(t: np.ndarray, lower: bool, unit: bool, b: np.ndarray,
                    s: int, starts: range) -> bool:
    """``B := T⁻¹B`` through the inverted diagonal blocks: per block,
    ``X_k = W_k C_k`` and one refinement step ``X_k += W_k (C_k − T_kk X_k)``
    for the right-hand side C_k the block sees.

    Returns whether X is finite and every block within the residual
    bound substitution guarantees, column by column
    ``‖C_k − T_kk X_k‖₁ ≤ s·eps·‖|T_kk| |X_k|‖₁``.  False leaves B
    scrambled.
    """
    tri, w = _inv_diag_blocks(t, lower, unit, s)
    dt = np.result_type(w.dtype, b.dtype)
    c = np.zeros((len(w), s, b.shape[1]), dtype=dt)
    x = np.empty_like(c)
    for r0 in starts:
        k, r1 = r0 // s, min(r0 + s, t.shape[0])
        ck, xk, wk = c[k], x[k], w[k]
        ck[:r1 - r0] = b[r0:r1]
        np.matmul(wk, ck, out=xk)
        xk += wk @ (ck - tri[k] @ xk)
        b[r0:r1] = xk[:r1 - r0]
        _update(t, lower, b, r0, r1)
    absx = np.abs(x)
    resid = np.abs(c - tri @ x).sum(axis=1)
    bound = np.abs(tri).sum(axis=1)[:, None] @ absx
    bound *= s * np.finfo(dt).eps
    return bool((resid <= bound[:, 0]).all() and np.isfinite(absx).all())


def _sweep(t: np.ndarray, lower: bool, unit: bool, b: np.ndarray) -> None:
    """Column-sweep substitution ``B := T⁻¹B``, one row of B per step."""
    n = t.shape[0]
    for j in (range(n) if lower else range(n - 1, -1, -1)):
        if not unit:
            b[j] = b[j] / t[j, j]
        if lower:
            if j < n - 1:
                b[j + 1:] -= np.outer(t[j + 1:, j], b[j])
        elif j > 0:
            b[:j] -= np.outer(t[:j, j], b[j])


def _solve(t: np.ndarray, lower: bool, unit: bool, b: np.ndarray) -> None:
    """``B := T⁻¹B`` for the ``lower`` (or upper) triangle of ``t``."""
    n = t.shape[0]
    if n < _MIN_INV:
        _sweep(t, lower, unit, b)
        return
    s = min(_NB, 1 << (n - 1).bit_length())
    starts = range(0, n, s) if lower else range((n - 1) // s * s, -1, -s)
    b0 = b.copy()
    with np.errstate(all="ignore"):
        if _solve_inverted(t, lower, unit, b, s, starts):
            return
    # Overflow, a zero pivot, NaN/Inf, or a block too ill-conditioned
    # for its inverse: substitution throughout, with its warnings.
    b[...] = b0
    for r0 in starts:
        r1 = min(r0 + s, n)
        _sweep(t[r0:r1, r0:r1], lower, unit, b[r0:r1])
        _update(t, lower, b, r0, r1)


def trsm(alpha, a: np.ndarray, b: np.ndarray, side: str = "L",
         uplo: str = "U", transa: str = "N", diag: str = "N") -> np.ndarray:
    """Triangular solve with multiple right-hand sides, in place:

    * side='L': solve ``op(A) X = alpha B``  → ``B := X``
    * side='R': solve ``X op(A) = alpha B``  → ``B := X``

    Every case becomes a left solve with T = A or Aᵀ (a view; side='R'
    solves ``op(A)ᵀ Xᵀ = Bᵀ`` on ``B.T``), and ``transa='C'`` on complex
    A conjugates B around the solve instead of copying A.

    The solve inverts all 32×32 diagonal blocks of T together, one
    stacked ``@`` pair per doubling level (a T of order n < 32 is one
    block of the next power of two, ⌈log₂ n⌉ levels), then sweeps the
    n/32 blocks: ``X_k = W_k B_k`` refined once, plus one GEMM update of
    the rows still to solve.  If any block's result is not finite or
    its residual exceeds the bound substitution guarantees (overflow, a
    zero pivot, NaN/Inf, a block too ill-conditioned for its inverse),
    the whole solve is redone by column substitution, as it is for
    n < 16, where substitution's n steps are cheaper.
    """
    left = side.upper() == "L"
    ta = transa.upper()
    lower = uplo.upper() == "L"
    if ta not in ("N", "T", "C"):
        raise ValueError(f"illegal trans option {transa!r}")
    conj = ta == "C" and np.iscomplexobj(a)
    if left:
        t, lower = (a, lower) if ta == "N" else (a.T, not lower)
    else:
        t, lower = (a.T, not lower) if ta == "N" else (a, lower)
    x = b[:, None] if b.ndim == 1 else b if left else b.T
    if alpha != 1:
        b *= alpha
    if conj:
        np.conjugate(x, out=x)
    _solve(t, lower, diag.upper() == "U", x)
    if conj:
        np.conjugate(x, out=x)
    return b
