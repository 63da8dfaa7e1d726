"""Level-3 BLAS kernels vs dense NumPy oracles."""

import numpy as np
import pytest

from repro.blas import level3 as b3

from ..conftest import rand_matrix, tol_for

UPLOS = ["U", "L"]
SIDES = ["L", "R"]
DIAGS = ["N", "U"]


@pytest.mark.parametrize("transa", ["N", "T", "C"])
@pytest.mark.parametrize("transb", ["N", "T"])
def test_gemm(rng, dtype, transa, transb):
    m, n, k = 5, 4, 6
    a = rand_matrix(rng, *( (m, k) if transa == "N" else (k, m) ), dtype)
    b = rand_matrix(rng, *( (k, n) if transb == "N" else (n, k) ), dtype)
    c = rand_matrix(rng, m, n, dtype)
    opa = {"N": a, "T": a.T, "C": np.conj(a.T)}[transa]
    opb = {"N": b, "T": b.T, "C": np.conj(b.T)}[transb]
    expect = 1.5 * opa @ opb + 0.5 * c
    b3.gemm(1.5, a, b, 0.5, c, transa=transa, transb=transb)
    np.testing.assert_allclose(c, expect, rtol=tol_for(dtype, 30),
                               atol=tol_for(dtype, 30))


@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("uplo", UPLOS)
def test_symm_hemm(rng, dtype, side, uplo):
    n, m = 5, 4
    hermitian = np.dtype(dtype).kind == "c"
    s = rand_matrix(rng, n, n, dtype)
    full = s + (np.conj(s.T) if hermitian else s.T)
    if hermitian:
        np.fill_diagonal(full, full.diagonal().real)
    b = rand_matrix(rng, *((n, m) if side == "L" else (m, n)), dtype)
    c = np.zeros_like(b)
    expect = full @ b if side == "L" else b @ full
    fn = b3.hemm if hermitian else b3.symm
    fn(1.0, full, b, 0.0, c, side=side, uplo=uplo)
    np.testing.assert_allclose(c, expect, rtol=tol_for(dtype, 30),
                               atol=tol_for(dtype, 30))


@pytest.mark.parametrize("uplo", UPLOS)
@pytest.mark.parametrize("trans", ["N", "T"])
def test_syrk(rng, real_dtype, uplo, trans):
    a = rand_matrix(rng, 5, 3, real_dtype)
    c = rand_matrix(rng, *( (5, 5) if trans == "N" else (3, 3) ), real_dtype)
    c = c + c.T
    c0 = c.copy()
    upd = a @ a.T if trans == "N" else a.T @ a
    expect = 2 * upd + 0.5 * c0
    b3.syrk(2.0, a, 0.5, c, uplo=uplo, trans=trans)
    tri = (np.triu_indices_from(c) if uplo == "U"
           else np.tril_indices_from(c))
    np.testing.assert_allclose(c[tri], expect[tri],
                               rtol=tol_for(real_dtype, 30))


@pytest.mark.parametrize("uplo", UPLOS)
@pytest.mark.parametrize("trans", ["N", "C"])
def test_herk_real_diagonal(rng, complex_dtype, uplo, trans):
    a = rand_matrix(rng, 5, 3, complex_dtype)
    nn = 5 if trans == "N" else 3
    c = np.zeros((nn, nn), dtype=complex_dtype)
    tr = "N" if trans == "N" else "T"  # herk uses trans='N'/'C' semantics
    b3.herk(1.0, a, 0.0, c, uplo=uplo, trans=tr)
    upd = a @ np.conj(a.T) if trans == "N" else np.conj(a.T) @ a
    tri = (np.triu_indices(nn) if uplo == "U" else np.tril_indices(nn))
    np.testing.assert_allclose(c[tri], upd[tri],
                               rtol=tol_for(complex_dtype, 30),
                               atol=tol_for(complex_dtype, 30))
    assert np.all(c.diagonal().imag == 0)


@pytest.mark.parametrize("uplo", UPLOS)
def test_syr2k_her2k(rng, dtype, uplo):
    hermitian = np.dtype(dtype).kind == "c"
    a = rand_matrix(rng, 5, 3, dtype)
    b = rand_matrix(rng, 5, 3, dtype)
    c = np.zeros((5, 5), dtype=dtype)
    if hermitian:
        b3.her2k(1.0, a, b, 0.0, c, uplo=uplo)
        upd = a @ np.conj(b.T)
        upd = upd + np.conj(upd.T)
    else:
        b3.syr2k(1.0, a, b, 0.0, c, uplo=uplo)
        upd = a @ b.T
        upd = upd + upd.T
    tri = np.triu_indices(5) if uplo == "U" else np.tril_indices(5)
    np.testing.assert_allclose(c[tri], upd[tri], rtol=tol_for(dtype, 30),
                               atol=tol_for(dtype, 30))


@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("uplo", UPLOS)
@pytest.mark.parametrize("transa", ["N", "T", "C"])
@pytest.mark.parametrize("diag", DIAGS)
def test_trmm(rng, dtype, side, uplo, transa, diag):
    n = 5
    a = rand_matrix(rng, n, n, dtype)
    t = np.triu(a) if uplo == "U" else np.tril(a)
    if diag == "U":
        np.fill_diagonal(t, 1)
    op = {"N": t, "T": t.T, "C": np.conj(t.T)}[transa]
    b = rand_matrix(rng, n, n, dtype)
    expect = 2 * (op @ b) if side == "L" else 2 * (b @ op)
    b3.trmm(2.0, a, b, side=side, uplo=uplo, transa=transa, diag=diag)
    np.testing.assert_allclose(b, expect, rtol=tol_for(dtype, 30),
                               atol=tol_for(dtype, 30))


@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("uplo", UPLOS)
@pytest.mark.parametrize("transa", ["N", "T", "C"])
@pytest.mark.parametrize("diag", DIAGS)
def test_trsm_solves(rng, dtype, side, uplo, transa, diag):
    n, m = 6, 3
    a = rand_matrix(rng, n, n, dtype)
    a[np.diag_indices(n)] += 4
    t = np.triu(a) if uplo == "U" else np.tril(a)
    if diag == "U":
        np.fill_diagonal(t, 1)
    op = {"N": t, "T": t.T, "C": np.conj(t.T)}[transa]
    if side == "L":
        b = rand_matrix(rng, n, m, dtype)
        b0 = b.copy()
        b3.trsm(1.5, a, b, side=side, uplo=uplo, transa=transa, diag=diag)
        np.testing.assert_allclose(op @ b, 1.5 * b0,
                                   rtol=tol_for(dtype, 200),
                                   atol=tol_for(dtype, 200))
    else:
        b = rand_matrix(rng, m, n, dtype)
        b0 = b.copy()
        b3.trsm(1.5, a, b, side=side, uplo=uplo, transa=transa, diag=diag)
        np.testing.assert_allclose(b @ op, 1.5 * b0,
                                   rtol=tol_for(dtype, 200),
                                   atol=tol_for(dtype, 200))


# -- trsm across the block edges, and on hard triangles -----------------
#
# ``trsm`` inverts 32×32 diagonal blocks (a single next-power-of-two
# block below 32, substitution below 16), so the sizes below cross every
# block edge.  ``_substitution`` is the column sweep ``trsm`` ran before
# it inverted blocks; it is the reference for finiteness.

TRSM_SIZES = [1, 5, 31, 32, 33, 64, 65, 130, 256]
COMBOS = [(side, uplo, transa, diag) for side in SIDES for uplo in UPLOS
          for transa in ("N", "T", "C") for diag in DIAGS]


def _eps(dtype):
    return np.finfo(dtype).eps / 2


def _hi(dtype):
    return np.complex128 if np.dtype(dtype).kind == "c" else np.float64


def _ratio(op, x, b, dtype):
    """The Section-6 ratio ``‖b − op(A) x‖₁ / (‖op(A)‖₁ ‖x‖₁ n eps)``,
    worst column, evaluated in double precision."""
    op, x, b = (np.asarray(v, dtype=_hi(dtype)) for v in (op, x, b))
    n = op.shape[0]
    anorm = np.abs(op).sum(axis=0).max()
    resid = np.abs(b - op @ x).sum(axis=0)
    xnorm = np.abs(x).sum(axis=0)
    return float(np.max(resid / (anorm * xnorm * n * _eps(dtype))))


def _substitution(t, lower, b):
    """Column-sweep substitution on the full ``lower`` (or upper)
    triangle ``t``."""
    x = b.astype(np.result_type(t, b))
    n = t.shape[0]
    for j in (range(n) if lower else range(n - 1, -1, -1)):
        x[j] = x[j] / t[j, j]
        rest = slice(j + 1, n) if lower else slice(0, j)
        x[rest] -= np.outer(t[rest, j], x[j])
    return x


def _tri(a, uplo, diag):
    t = np.triu(a) if uplo == "U" else np.tril(a)
    if diag == "U":
        np.fill_diagonal(t, 1)
    return t


@pytest.mark.parametrize("n", TRSM_SIZES)
def test_trsm_all_options_across_block_edges(rng, dtype, n):
    m = 3
    for side, uplo, transa, diag in COMBOS:
        a = rand_matrix(rng, n, n, dtype)
        a[np.diag_indices(n)] += 4
        t = _tri(a, uplo, diag)
        op = {"N": t, "T": t.T, "C": np.conj(t.T)}[transa]
        b = rand_matrix(rng, *((n, m) if side == "L" else (m, n)), dtype)
        x = b.copy()
        b3.trsm(1.5, a, x, side=side, uplo=uplo, transa=transa, diag=diag)
        if side == "L":
            ratio = _ratio(op, x, 1.5 * b, dtype)
        else:   # X op(A) = B  <=>  op(A)ᵀ Xᵀ = Bᵀ
            ratio = _ratio(op.T, x.T, 1.5 * b.T, dtype)
        assert ratio <= 10, (side, uplo, transa, diag, ratio)


def test_trsm_real_transa_c_is_transpose(rng):
    a = rand_matrix(rng, 40, 40, np.float64) + 4 * np.eye(40)
    b = rand_matrix(rng, 40, 2, np.float64)
    xt, xc = b.copy(), b.copy()
    b3.trsm(1, a, xt, uplo="U", transa="T")
    b3.trsm(1, a, xc, uplo="U", transa="C")
    np.testing.assert_array_equal(xt, xc)


def _graded(rng, n, dtype, axis):
    span = 30 if np.finfo(dtype).eps < 1e-10 else 8
    g = np.logspace(0, span, n)
    u = np.triu(rand_matrix(rng, n, n, dtype)) + 2 * np.eye(n, dtype=dtype)
    return (g[:, None] * u if axis == "rows" else u * g[None, :]).astype(dtype)


def _ill_conditioned(rng, n, dtype):
    """The R factor of a matrix with singular values 1 … eps, so
    κ(R) ≈ 1/eps."""
    eps = np.finfo(dtype).eps
    q1 = np.linalg.qr(rng.standard_normal((n, n)))[0]
    q2 = np.linalg.qr(rng.standard_normal((n, n)))[0]
    r = np.linalg.qr(q1 @ np.diag(np.logspace(0, np.log10(eps), n)) @ q2)[1]
    if np.dtype(dtype).kind == "c":
        r = r * np.exp(1j * rng.uniform(0, 2 * np.pi, (n, n)))
    return r.astype(dtype)


def _kahan(n, theta=1.2):
    s, c = np.sin(theta), np.cos(theta)
    u = np.eye(n) - c * np.triu(np.ones((n, n)), 1)
    return (s ** np.arange(n))[:, None] * u


def _random(rng, n, dtype):
    """An unscaled random triangle: κ grows like 2ⁿ."""
    return np.triu(rand_matrix(rng, n, n, dtype))


HARD = ["graded_rows", "graded_rows_reversed", "graded_cols",
        "ill_conditioned", "kahan", "random"]


@pytest.mark.parametrize("kind", HARD)
@pytest.mark.parametrize("n", [33, 130])
def test_trtrs_hard_triangles_section6(rng, dtype, kind, n):
    from repro.lapack77 import trtrs
    if kind == "kahan":
        u = _kahan(n).astype(dtype)
    elif kind == "ill_conditioned":
        u = _ill_conditioned(rng, n, dtype)
    elif kind == "random":
        u = _random(rng, n, dtype)
    elif kind == "graded_rows_reversed":
        u = _graded(rng, n, dtype, "rows")[::-1, ::-1].T.copy()
    else:
        u = _graded(rng, n, dtype, kind.split("_")[1])
    for uplo in UPLOS:
        t = u if uplo == "U" else np.ascontiguousarray(u.T)
        for trans in ("N", "T", "C"):
            op = {"N": t, "T": t.T, "C": np.conj(t.T)}[trans]
            x_true = rand_matrix(rng, n, 2, dtype)
            for b in (rand_matrix(rng, n, 2, dtype),
                      (np.asarray(op, _hi(dtype)) @ x_true).astype(dtype)):
                x = b.copy()
                with np.errstate(all="ignore"):
                    assert trtrs(t, x, uplo=uplo, trans=trans) == 0
                    ref = _substitution(np.asarray(op),
                                        (uplo == "L") == (trans == "N"), b)
                if np.isfinite(ref).all():
                    assert np.isfinite(x).all(), (kind, uplo, trans)
                    assert _ratio(op, x, b, dtype) <= 10, (kind, uplo, trans)


@pytest.mark.parametrize("n", [64, 130, 256])
def test_getrs_potrs_section6(rng, dtype, n):
    from repro.lapack77 import getrf, getrs, potrf, potrs
    a = rand_matrix(rng, n, n, dtype)
    lu = a.copy()
    ipiv, info = getrf(lu)
    assert info == 0
    h = a @ np.conj(a.T) + n * np.eye(n, dtype=dtype)
    for trans in ("N", "T", "C"):
        op = {"N": a, "T": a.T, "C": np.conj(a.T)}[trans]
        b = rand_matrix(rng, n, 3, dtype)
        x = b.copy()
        getrs(lu, ipiv, x, trans=trans)
        assert _ratio(op, x, b, dtype) <= 10, trans
    for uplo in UPLOS:
        c = h.copy()
        assert potrf(c, uplo) == 0
        b = rand_matrix(rng, n, 3, dtype)
        x = b.copy()
        potrs(c, x, uplo)
        assert _ratio(h, x, b, dtype) <= 10, uplo


@pytest.mark.parametrize("dt", [np.float32, np.float64])
def test_trsm_within_substitution_residual_bound(dt):
    """Every column of X meets the residual bound substitution
    guarantees, ``‖b − T x‖₁ ≤ n·eps·‖|T| |x|‖₁``, also where the
    refined block inverse alone would not (unscaled random triangles
    with consistent right-hand sides: κ ≈ 2ⁿ)."""
    rng = np.random.default_rng(5)
    eps = np.finfo(dt).eps
    for _ in range(300):
        n = int(rng.choice([20, 32, 48]))
        t = np.triu(rng.standard_normal((n, n))).astype(dt)
        b = (t.astype(np.float64) @ rng.standard_normal((n, 2))).astype(dt)
        x = b.copy()
        with np.errstate(all="ignore"):
            b3.trsm(1, t, x, uplo="U")
        if not np.isfinite(x).all():
            continue
        th, xh = t.astype(np.float64), x.astype(np.float64)
        resid = np.abs(b - th @ xh).sum(axis=0)
        bound = n * eps * (np.abs(th) @ np.abs(xh)).sum(axis=0)
        assert np.all(resid <= bound), (n, resid / bound)
