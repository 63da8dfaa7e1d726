"""Bunch–Kaufman family: solve correctness, pivot structure, conditioners."""

import numpy as np
import pytest

from repro.lapack77 import (hecon, herfs, hesv, hetrf, hetrs, lanhe, lansy,
                            sycon, syrfs, sysv, sytf2, sytrf, sytrs)

from ..conftest import rand_matrix, rand_vector, tol_for

UPLOS = ["U", "L"]


def sym_indef(rng, n, dtype, hermitian):
    """Random indefinite symmetric/Hermitian matrix (mixed-sign spectrum)."""
    a = rand_matrix(rng, n, n, dtype)
    m = a + (np.conj(a.T) if hermitian else a.T)
    # Shift alternating diagonal to force indefiniteness.
    d = np.arange(n) - n / 2.0
    m[np.diag_indices(n)] += d.astype(m.dtype)
    if hermitian:
        np.fill_diagonal(m, m.diagonal().real)
    return m


@pytest.mark.parametrize("uplo", UPLOS)
@pytest.mark.parametrize("n", [1, 2, 3, 10, 31, 65, 130])
def test_sysv_real(rng, real_dtype, uplo, n):
    a0 = sym_indef(rng, n, real_dtype, hermitian=False)
    x_true = rand_vector(rng, n, real_dtype)
    b = (a0 @ x_true).astype(real_dtype)
    a = a0.copy()
    ipiv, info = sysv(a, b, uplo)
    assert info == 0
    np.testing.assert_allclose(b, x_true, rtol=tol_for(real_dtype, 1e4),
                               atol=tol_for(real_dtype, 1e4))


@pytest.mark.parametrize("uplo", UPLOS)
@pytest.mark.parametrize("n", [1, 2, 3, 10, 31, 65, 130])
def test_sysv_complex_symmetric(rng, complex_dtype, uplo, n):
    a0 = sym_indef(rng, n, complex_dtype, hermitian=False)
    x_true = rand_vector(rng, n, complex_dtype)
    b = (a0 @ x_true).astype(complex_dtype)
    a = a0.copy()
    ipiv, info = sysv(a, b, uplo)
    assert info == 0
    np.testing.assert_allclose(b, x_true, rtol=tol_for(complex_dtype, 1e4),
                               atol=tol_for(complex_dtype, 1e4))


@pytest.mark.parametrize("uplo", UPLOS)
@pytest.mark.parametrize("n", [1, 2, 3, 10, 31, 65, 130])
def test_hesv_hermitian(rng, complex_dtype, uplo, n):
    a0 = sym_indef(rng, n, complex_dtype, hermitian=True)
    x_true = rand_vector(rng, n, complex_dtype)
    b = (a0 @ x_true).astype(complex_dtype)
    a = a0.copy()
    ipiv, info = hesv(a, b, uplo)
    assert info == 0
    np.testing.assert_allclose(b, x_true, rtol=tol_for(complex_dtype, 1e4),
                               atol=tol_for(complex_dtype, 1e4))


@pytest.mark.parametrize("uplo", UPLOS)
def test_sysv_forces_2x2_pivots(rng, uplo):
    # Zero diagonal ⇒ 1x1 pivots are impossible at the start; 2x2 blocks
    # must appear (encoded as negative ipiv pairs).
    n = 8
    a0 = np.zeros((n, n))
    rng2 = np.random.default_rng(3)
    off = rng2.uniform(1, 2, (n, n))
    a0 = np.triu(off, 1)
    a0 = a0 + a0.T
    x_true = rng2.standard_normal(n)
    b = a0 @ x_true
    a = a0.copy()
    ipiv, info = sysv(a, b, uplo)
    assert info == 0
    assert np.any(ipiv < 0), "expected at least one 2x2 pivot block"
    np.testing.assert_allclose(b, x_true, rtol=1e-10, atol=1e-10)


def test_sytf2_singular_info():
    a = np.zeros((4, 4))
    ipiv, info = sytf2(a, "U")
    assert info > 0


@pytest.mark.parametrize("uplo", UPLOS)
def test_sysv_multiple_rhs(rng, uplo):
    n, nrhs = 20, 4
    a0 = sym_indef(rng, n, np.float64, hermitian=False)
    x_true = rand_matrix(rng, n, nrhs, np.float64)
    b = a0 @ x_true
    a = a0.copy()
    ipiv, info = sysv(a, b, uplo)
    assert info == 0
    np.testing.assert_allclose(b, x_true, rtol=1e-8, atol=1e-8)


@pytest.mark.parametrize("uplo", UPLOS)
def test_sycon_estimate(rng, uplo):
    n = 30
    a0 = sym_indef(rng, n, np.float64, hermitian=False)
    anorm = lansy("1", a0, uplo)
    af = a0.copy()
    ipiv, _ = sytrf(af, uplo)
    rcond, info = sycon(af, ipiv, anorm, uplo)
    true_rcond = 1.0 / np.linalg.cond(a0, 1)
    assert true_rcond / 20 <= rcond <= true_rcond * 20


@pytest.mark.parametrize("uplo", UPLOS)
def test_hecon_estimate(rng, uplo):
    n = 25
    a0 = sym_indef(rng, n, np.complex128, hermitian=True)
    anorm = lanhe("1", a0, uplo)
    af = a0.copy()
    ipiv, _ = hetrf(af, uplo)
    rcond, info = hecon(af, ipiv, anorm, uplo)
    true_rcond = 1.0 / np.linalg.cond(a0, 1)
    assert true_rcond / 20 <= rcond <= true_rcond * 20


def test_syrfs_refines(rng):
    n = 40
    a0 = sym_indef(rng, n, np.float64, hermitian=False)
    x_true = rand_vector(rng, n, np.float64)
    b = a0 @ x_true
    af = a0.copy()
    ipiv, _ = sytrf(af, "U")
    x = b.copy()
    sytrs(af, ipiv, x, "U")
    x += 1e-8
    ferr, berr, info = syrfs(a0, af, ipiv, b, x, "U")
    assert info == 0
    assert np.all(berr < 1e-12)


def test_herfs_refines(rng):
    n = 30
    a0 = sym_indef(rng, n, np.complex128, hermitian=True)
    x_true = rand_vector(rng, n, np.complex128)
    b = a0 @ x_true
    af = a0.copy()
    ipiv, _ = hetrf(af, "U")
    x = b.copy()
    hetrs(af, ipiv, x, "U")
    x += 1e-8
    ferr, berr, info = herfs(a0, af, ipiv, b, x, "U")
    assert info == 0
    assert np.all(berr < 1e-12)


@pytest.mark.parametrize("uplo", UPLOS)
@pytest.mark.parametrize("trial", range(5))
def test_sysv_random_trials(uplo, trial):
    rng = np.random.default_rng(100 + trial)
    n = int(rng.integers(2, 40))
    a = rng.standard_normal((n, n))
    a = a + a.T
    x_true = rng.standard_normal(n)
    b = a @ x_true
    af = a.copy()
    ipiv, info = sysv(af, b, uplo)
    assert info == 0
    np.testing.assert_allclose(b, x_true, rtol=1e-7, atol=1e-7)


# -- the storage contract: only the ``uplo`` triangle is read or written ----

FLAVOURS = [(np.float64, False), (np.complex128, False),
            (np.complex128, True)]


def _opposite(n, uplo):
    """Mask of the strict triangle a ``uplo`` factorization must not touch."""
    below = np.tri(n, k=-1, dtype=bool)
    return below if uplo == "U" else below.T


def _with_sentinel_opposite(rng, a0, uplo):
    """``a0`` with its opposite strict triangle replaced by unrelated
    values, so any read or write of that triangle shows."""
    a = a0.copy()
    mask = _opposite(a.shape[0], uplo)
    a[mask] = rand_matrix(rng, *a.shape, a.dtype)[mask] * 7.0
    return a, mask


@pytest.mark.parametrize("uplo", UPLOS)
@pytest.mark.parametrize("dt,hermitian", FLAVOURS,
                         ids=["real", "complex-sym", "hermitian"])
@pytest.mark.parametrize("n", [2, 9, 40, 70])
def test_factor_leaves_opposite_triangle_untouched(rng, uplo, dt, hermitian,
                                                   n):
    a0 = sym_indef(rng, n, dt, hermitian)
    a, mask = _with_sentinel_opposite(rng, a0, uplo)
    before = a[mask].tobytes()
    ref = a0.copy()
    ipiv_ref, info_ref = (hetrf if hermitian else sytrf)(ref, uplo)
    ipiv, info = (hetrf if hermitian else sytrf)(a, uplo)
    assert a[mask].tobytes() == before
    # The factors themselves do not depend on the opposite triangle.
    assert info == info_ref
    np.testing.assert_array_equal(ipiv, ipiv_ref)
    np.testing.assert_array_equal(a[~mask], ref[~mask])


@pytest.mark.parametrize("uplo", UPLOS)
@pytest.mark.parametrize("dt,hermitian", FLAVOURS,
                         ids=["real", "complex-sym", "hermitian"])
def test_solve_leaves_opposite_triangle_untouched(rng, uplo, dt, hermitian):
    n = 50
    a0 = sym_indef(rng, n, dt, hermitian)
    x_true = rand_vector(rng, n, dt)
    b = a0 @ x_true
    a, mask = _with_sentinel_opposite(rng, a0, uplo)
    before = a[mask].tobytes()
    ipiv, info = (hesv if hermitian else sysv)(a, b, uplo)
    assert info == 0
    assert a[mask].tobytes() == before
    np.testing.assert_allclose(b, x_true, rtol=1e-8, atol=1e-8)


@pytest.mark.parametrize("uplo", UPLOS)
@pytest.mark.parametrize("n", [8, 40, 63])
@pytest.mark.parametrize("dt", [np.float32, np.float64, np.complex64,
                                np.complex128])
def test_ipiv_matches_lapack_sytf2(uplo, n, dt):
    # Below n = 64 LAPACK's ?sytrf/?hetrf runs the unblocked ?sytf2/?hetf2,
    # the algorithm implemented here: same pivot rule, same interchanges.
    lapack = pytest.importorskip("scipy.linalg.lapack")
    hermitian = np.dtype(dt).kind == "c"
    factor = hetrf if hermitian else sytrf
    mismatched = []
    for seed in range(20):
        a0 = sym_indef(np.random.default_rng(seed), n, dt, hermitian)
        trf, = lapack.get_lapack_funcs(("hetrf" if hermitian else "sytrf",),
                                       (a0,))
        _, ipiv_lapack, info_lapack = trf(a0, lower=int(uplo == "L"))
        # LAPACK is 1-based: k > 0 is row k; a 2x2 block's -p is already
        # -(p0 + 1) for the 0-based row p0 = p - 1.
        expected = np.where(ipiv_lapack > 0, ipiv_lapack - 1, ipiv_lapack)
        ipiv, info = factor(a0.copy(), uplo)
        if info != info_lapack or not np.array_equal(ipiv, expected):
            mismatched.append(seed)
    assert not mismatched, f"ipiv differs from LAPACK for seeds {mismatched}"
