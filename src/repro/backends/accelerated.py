"""The ``accelerated`` substrate: adapters over ``scipy.linalg.lapack``.

Each adapter presents the exact Python signature, in-place semantics and
``info`` conventions of its reference twin in :mod:`repro.lapack77`, so
the :mod:`repro.core` drivers cannot tell the substrates apart:

* arrays the reference kernel overwrites (factors, solutions) are copied
  back from SciPy's returned copies;
* SciPy's LU pivots are already 0-based like ours; the Bunch–Kaufman
  ``ipiv`` from ``?sysv``/``?hesv`` is 1-based for interchanges and is
  shifted down (negative 2x2-block entries already match our encoding);
* on a positive ``info`` the right-hand side is left unsolved, matching
  LAPACK (and the reference kernels);
* argument errors raise through :func:`repro.errors.xerbla` with the
  reference kernels' positions.

Every adapter is **transactional**: it raises only before its first
write to any operand.  Arguments are checked first, SciPy works on its
own copies (``gesv_stack`` on private buffers it overwrites), and the
operands are written only after SciPy has returned; the ``*_stack``
adapters keep every slice's outputs and write the whole stack back
after the last slice.  Each adapter carries ``transactional = True``,
which lets the resilience seam (:mod:`repro.resilience.dispatch`) call
it without an up-front operand snapshot: a failed attempt leaves the
operands as the caller passed them, so the retry ladder starts only
after a failure.

Only simple dense/band/tridiagonal drivers plus the dense symmetric
eigensolvers, SVD and GELS are adapted.  The computational kernels the
expert drivers build on (``sytrf``/``sytrs``, condition estimators,
refinement loops) stay on the reference substrate — their factored forms
and ``ipiv`` encodings would otherwise mix between substrates mid-driver.

``build_accelerated_backend`` returns ``None`` when SciPy is absent; the
registry then leaves the backend unregistered and selection degrades to
``reference`` per routine.
"""

from __future__ import annotations

import numpy as np

from ..errors import xerbla

try:
    from scipy.linalg import lapack as _scipy_lapack
except Exception:  # pragma: no cover - exercised on the no-SciPy CI leg
    _scipy_lapack = None

#: NumPy dtype char -> LAPACK precision prefix.
_PREFIX = {"f": "s", "d": "d", "F": "c", "D": "z"}


def _flavor(name, dtype):
    """The typed SciPy wrapper (e.g. ``dgesv``) for ``name``/``dtype``."""
    return getattr(_scipy_lapack, _PREFIX[np.dtype(dtype).char] + name)


def _as2d(b):
    """View ``b`` as a 2-D right-hand-side block (LAPACK's NRHS shape)."""
    return b if b.ndim == 2 else b[:, None]


def _bk_ipiv(piv):
    """Map SciPy's 1-based Bunch-Kaufman interchange indices onto the
    reference kernels' 0-based encoding (negatives already agree)."""
    piv = piv.astype(np.int64)
    return np.where(piv > 0, piv - 1, piv)


def _nan_diag_info(diag):
    """LAPACK's ``DISNAN`` pivot check, which some SciPy builds omit:
    the 1-based index of the first NaN factor diagonal, or 0.  Infinite
    pivots pass (``AJJ <= 0 .OR. DISNAN(AJJ)``) and propagate."""
    bad = np.flatnonzero(np.isnan(diag))
    return int(bad[0]) + 1 if bad.size else 0


def gesv(a, b):
    n = a.shape[0]
    if a.shape[1] != n:
        xerbla("GESV", 1, "matrix must be square")
    if b.shape[0] != n:
        xerbla("GESV", 2, "dimension mismatch between A and B")
    bm = _as2d(b)
    lu, piv, x, info = _flavor("gesv", a.dtype)(a, bm)
    a[...] = lu
    if info == 0:
        bm[...] = x
    return piv.astype(np.int64), int(info)


def gesv_stack(a, b):
    """Natively batched ``gesv``: one seam crossing for a whole
    ``(batch, n, n)`` / ``(batch, n, nrhs)`` stack.

    A one-problem stack runs the scalar :func:`gesv`.  Otherwise the
    typed SciPy wrapper is resolved once and both stacks are copied once
    into private transposed buffers, so every slice is a Fortran-ordered
    view that ``?gesv`` factors and solves in place
    (``overwrite_a=1, overwrite_b=1``) with no per-slice copies.  The
    factors go back in one write and the solutions of the slices with
    ``info == 0`` in another, so a singular slice keeps its ``b``.  Each
    slice runs the very same ``?gesv`` as a scalar call, so factors,
    pivots and info codes stay bit-identical to the scalar path (the
    parity suite pins this).
    """
    n = a.shape[1]
    if a.shape[2] != n:
        xerbla("GESV_STACK", 1, "matrices must be square")
    if b.shape[1] != n:
        xerbla("GESV_STACK", 2, "dimension mismatch between A and B")
    bs = b if b.ndim == 3 else b[:, :, None]
    batch = a.shape[0]
    if batch == 1:
        piv, info = gesv(a[0], bs[0])
        return piv[None], np.array([info], dtype=np.int64)
    f = _flavor("gesv", a.dtype)
    # at[k].T is a[k] in Fortran order; iterating the transposed stacks
    # yields those views.
    at = np.ascontiguousarray(a.transpose(0, 2, 1))
    bt = np.ascontiguousarray(bs.transpose(0, 2, 1), dtype=a.dtype)
    outs = [f(ak, bk, 1, 1)      # overwrite_a=1, overwrite_b=1
            for ak, bk in zip(at.transpose(0, 2, 1), bt.transpose(0, 2, 1))]
    pivs = np.array([o[1] for o in outs], dtype=np.int64).reshape(batch, n)
    infos = np.array([o[3] for o in outs], dtype=np.int64)
    a[...] = at.transpose(0, 2, 1)
    solved = infos == 0
    bs[solved] = bt[solved].transpose(0, 2, 1)
    return pivs, infos


def getrf(a):
    lu, piv, info = _flavor("getrf", a.dtype)(a)
    a[...] = lu
    return piv.astype(np.int64), int(info)


def getrs(a, ipiv, b, trans="N"):
    t = trans.upper()
    if t not in ("N", "T", "C"):
        xerbla("GETRS", 4, f"trans={trans!r}")
    bm = _as2d(b)
    x, info = _flavor("getrs", a.dtype)(
        a, ipiv, bm, trans={"N": 0, "T": 1, "C": 2}[t])
    bm[...] = x
    return int(info)


def posv(a, b, uplo="U"):
    if uplo.upper() not in ("U", "L"):
        xerbla("POSV", 3, f"uplo={uplo!r}")
    bm = _as2d(b)
    c, x, info = _flavor("posv", a.dtype)(
        a, bm, lower=uplo.upper() == "L")
    a[...] = c
    info = int(info)
    if info == 0:
        info = _nan_diag_info(np.diagonal(c).real)
    if info == 0:
        bm[...] = x
    return info


def posv_stack(a, b, uplo="U"):
    """Natively batched ``posv``: one seam crossing per SPD stack.

    Mirrors :func:`gesv_stack` — the typed wrapper is resolved once and
    each ``(n, n)`` / ``(n, nrhs)`` slice runs the very same ``?posv``
    call as the scalar :func:`posv` adapter (including the NaN-diagonal
    pivot check and the unsolved-B-on-failure contract), so per-problem
    factors and info codes stay bit-identical to the scalar path.
    """
    n = a.shape[1]
    if a.shape[2] != n:
        xerbla("POSV_STACK", 1, "matrices must be square")
    if b.shape[1] != n:
        xerbla("POSV_STACK", 2, "dimension mismatch between A and B")
    if uplo.upper() not in ("U", "L"):
        xerbla("POSV_STACK", 3, f"uplo={uplo!r}")
    f = _flavor("posv", a.dtype)
    lower = uplo.upper() == "L"
    batch = a.shape[0]
    infos = np.empty(batch, dtype=np.int64)
    outs = []
    for k in range(batch):
        c, x, info = f(a[k], _as2d(b[k]), lower=lower)
        info = int(info)
        if info == 0:
            info = _nan_diag_info(np.diagonal(c).real)
        outs.append((c, x))
        infos[k] = info
    for k, (c, x) in enumerate(outs):
        a[k] = c
        if infos[k] == 0:
            _as2d(b[k])[...] = x
    return infos


def gels_stack(a, b, trans="N"):
    """Natively batched ``gels`` over a least-squares problem stack.

    Same hoisting as :func:`gesv_stack`: one typed-wrapper resolution
    and one trans validation for the whole ``(batch, m, n)`` stack, with
    each slice running the scalar adapter's exact ``?gels`` call
    (complex ``T`` promoted to ``C`` the same way).
    """
    t = trans.upper()
    if t not in ("N", "T", "C"):
        xerbla("GELS_STACK", 1, f"trans={trans!r}")
    if np.iscomplexobj(a) and t == "T":
        t = "C"
    m, n = a.shape[1], a.shape[2]
    if b.shape[1] < max(m, n):
        xerbla("GELS_STACK", 3, "b must have max(m, n) rows")
    f = _flavor("gels", a.dtype)
    batch = a.shape[0]
    infos = np.empty(batch, dtype=np.int64)
    outs = []
    for k in range(batch):
        lqr, x, info = f(a[k], _as2d(b[k]), trans=t)
        outs.append((lqr, x))
        infos[k] = info
    for k, (lqr, x) in enumerate(outs):
        a[k] = lqr
        _as2d(b[k])[...] = x
    return infos


def trtrs(a, b, uplo="U", trans="N", diag="N"):
    t = trans.upper()
    if uplo.upper() not in ("U", "L"):
        xerbla("TRTRS", 1, f"uplo={uplo!r}")
    if t not in ("N", "T", "C"):
        xerbla("TRTRS", 2, f"trans={trans!r}")
    if diag.upper() not in ("N", "U"):
        xerbla("TRTRS", 3, f"diag={diag!r}")
    n = a.shape[0]
    if b.shape[0] != n:
        xerbla("TRTRS", 5, "dimension mismatch")
    bm = _as2d(b)
    x, info = _flavor("trtrs", a.dtype)(
        a, bm, lower=uplo.upper() == "L",
        trans={"N": 0, "T": 1, "C": 2}[t],
        unitdiag=diag.upper() == "U")
    info = int(info)
    if info == 0:
        bm[...] = x
    return info


def potrf(a, uplo="U"):
    if uplo.upper() not in ("U", "L"):
        xerbla("POTRF", 2, f"uplo={uplo!r}")
    # clean=0: leave the unreferenced triangle untouched, like LAPACK.
    c, info = _flavor("potrf", a.dtype)(
        a, lower=uplo.upper() == "L", clean=0)
    a[...] = c
    info = int(info)
    if info == 0:
        info = _nan_diag_info(np.diagonal(c).real)
    return info


def potrs(a, b, uplo="U"):
    if uplo.upper() not in ("U", "L"):
        xerbla("POTRS", 3, f"uplo={uplo!r}")
    bm = _as2d(b)
    x, info = _flavor("potrs", a.dtype)(
        a, bm, lower=uplo.upper() == "L")
    bm[...] = x
    return int(info)


def sysv(a, b, uplo="U"):
    if uplo.upper() not in ("U", "L"):
        xerbla("SYSV", 3, f"uplo={uplo!r}")
    bm = _as2d(b)
    udut, piv, x, info = _flavor("sysv", a.dtype)(
        a, bm, lower=uplo.upper() == "L")
    a[...] = udut
    if info == 0:
        bm[...] = x
    return _bk_ipiv(piv), int(info)


def hesv(a, b, uplo="U"):
    if uplo.upper() not in ("U", "L"):
        xerbla("HESV", 3, f"uplo={uplo!r}")
    bm = _as2d(b)
    udut, piv, x, info = _flavor("hesv", a.dtype)(
        a, bm, lower=uplo.upper() == "L")
    a[...] = udut
    if info == 0:
        bm[...] = x
    return _bk_ipiv(piv), int(info)


def gtsv(dl, d, du, b):
    bm = _as2d(b)
    dl2, d2, du2, x, info = _flavor("gtsv", d.dtype)(dl, d, du, bm)
    dl[...] = dl2
    d[...] = d2
    du[...] = du2
    if info == 0:
        bm[...] = x
    return int(info)


def ptsv(d, e, b):
    bm = _as2d(b)
    # LAPACK's D is REAL even in the complex flavors.
    d_in = np.ascontiguousarray(d.real)
    d2, e2, x, info = _flavor("ptsv", e.dtype)(d_in, e, bm)
    d[...] = d2
    e[...] = e2
    if info == 0:
        bm[...] = x
    return int(info)


def gbsv(ab, kl, ku, b):
    bm = _as2d(b)
    lub, piv, x, info = _flavor("gbsv", ab.dtype)(kl, ku, ab, bm)
    ab[...] = lub
    if info == 0:
        bm[...] = x
    return piv.astype(np.int64), int(info)


def pbsv(ab, b, uplo="U"):
    if uplo.upper() not in ("U", "L"):
        xerbla("PBSV", 3, f"uplo={uplo!r}")
    bm = _as2d(b)
    c, x, info = _flavor("pbsv", ab.dtype)(
        ab, bm, lower=uplo.upper() == "L")
    ab[...] = c
    info = int(info)
    if info == 0:
        diag = c[0] if uplo.upper() == "L" else c[-1]
        info = _nan_diag_info(diag.real)
    if info == 0:
        bm[...] = x
    return info


def _dense_eig(srname, name, a, jobz, uplo):
    if jobz.upper() not in ("N", "V"):
        xerbla(srname, 1, f"jobz={jobz!r}")
    if uplo.upper() not in ("U", "L"):
        xerbla(srname, 2, f"uplo={uplo!r}")
    wantz = jobz.upper() == "V"
    w, v, info = _flavor(name, a.dtype)(
        a, compute_v=1 if wantz else 0, lower=uplo.upper() == "L")
    if wantz and info == 0:
        a[...] = v
    return w, int(info)


def syev(a, jobz="N", uplo="U"):
    return _dense_eig("SYEV", "syev", a, jobz, uplo)


def heev(a, jobz="N", uplo="U"):
    return _dense_eig("HEEV", "heev", a, jobz, uplo)


def gesvd(a, jobu="N", jobvt="N", superdiag=None):
    ju, jvt = jobu.upper(), jobvt.upper()
    if ju not in ("N", "S", "A"):
        xerbla("GESVD", 2, f"jobu={jobu!r}")
    if jvt not in ("N", "S", "A"):
        xerbla("GESVD", 3, f"jobvt={jobvt!r}")
    m, n = a.shape
    k = min(m, n)
    rdtype = np.float32 if a.dtype.char in "fF" else np.float64
    if k == 0:
        s = np.zeros(0, dtype=rdtype)
        u = np.eye(m, dtype=a.dtype) if ju == "A" else None
        vt = np.eye(n, dtype=a.dtype) if jvt == "A" else None
        info = 0
    elif ju == "N" and jvt == "N":
        _, s, _, info = _flavor("gesvd", a.dtype)(a, compute_uv=0)
        u = vt = None
    else:
        full = 1 if "A" in (ju, jvt) else 0
        u, s, vt, info = _flavor("gesvd", a.dtype)(
            a, compute_uv=1, full_matrices=full)
        u = None if ju == "N" else (u if ju == "A" else u[:, :k])
        vt = None if jvt == "N" else (vt if jvt == "A" else vt[:k, :])
    # SciPy's gesvd does not expose the bidiagonal work array; the
    # superdiagonal output is defined (all zero) only on convergence,
    # and LAPACK overwrites it before any info > 0 return anyway.
    # Written only once SciPy has returned, like every other operand.
    if superdiag is not None:
        superdiag[:] = 0
    return s, u, vt, int(info)


def gels(a, b, trans="N"):
    t = trans.upper()
    if t not in ("N", "T", "C"):
        xerbla("GELS", 1, f"trans={trans!r}")
    if np.iscomplexobj(a) and t == "T":
        t = "C"
    m, n = a.shape
    bm = _as2d(b)
    if bm.shape[0] < max(m, n):
        xerbla("GELS", 3, "b must have max(m, n) rows")
    lqr, x, info = _flavor("gels", a.dtype)(a, bm, trans=t)
    a[...] = lqr
    bm[...] = x
    return int(info)


#: routine name -> accepted NumPy dtype chars (default "fdFD").
_DTYPES = {
    "syev": "fd",
    "heev": "FD",
    "hesv": "FD",
}

_ADAPTERS = (gesv, gesv_stack, getrf, getrs, posv, posv_stack, trtrs,
             potrf, potrs, sysv, hesv, gtsv, ptsv, gbsv, pbsv, syev,
             heev, gesvd, gels, gels_stack)

for _adapter in _ADAPTERS:
    _adapter.transactional = True   # the contract in the module docstring
del _adapter


def build_accelerated_backend():
    if _scipy_lapack is None:
        return None
    from . import Backend
    table = {fn.__name__: fn for fn in _ADAPTERS}
    chars = {name: _DTYPES.get(name, "fdFD") for name in table}
    return Backend("accelerated", table, dtype_chars=chars)
