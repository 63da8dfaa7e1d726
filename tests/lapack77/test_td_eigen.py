"""Tridiagonal eigen-machinery: reduction, QL iteration, bisection,
inverse iteration, divide and conquer."""

import numpy as np
import pytest

from repro.lapack77.td_eigen import (hetrd, laev2, orgtr, stebz, stedc,
                                     stein, steqr, sterf, sytrd)

from ..conftest import rand_matrix, tol_for

UPLOS = ["U", "L"]


def sym(rng, n, dtype, hermitian=False):
    a = rand_matrix(rng, n, n, dtype)
    m = a + (np.conj(a.T) if hermitian else a.T)
    if hermitian:
        np.fill_diagonal(m, m.diagonal().real)
    return m


def tridiag(d, e):
    n = len(d)
    t = np.diag(d.astype(np.float64))
    if n > 1:
        t += np.diag(e, 1) + np.diag(e, -1)
    return t


@pytest.mark.parametrize("uplo", UPLOS)
def test_sytrd_similarity(rng, real_dtype, uplo):
    n = 12
    a0 = sym(rng, n, real_dtype)
    a = a0.copy()
    d, e, tau = sytrd(a, uplo)
    q = a.copy()
    orgtr(q, tau, uplo)
    t = np.conj(q.T) @ a0 @ q
    np.testing.assert_allclose(t, tridiag(d, e), rtol=0,
                               atol=tol_for(real_dtype, 300) * max(
                                   1, np.abs(a0).max()))


@pytest.mark.parametrize("uplo", UPLOS)
def test_hetrd_similarity(rng, complex_dtype, uplo):
    n = 10
    a0 = sym(rng, n, complex_dtype, hermitian=True)
    a = a0.copy()
    d, e, tau = hetrd(a, uplo)
    assert d.dtype.kind == "f" and e.dtype.kind == "f"
    q = a.copy()
    orgtr(q, tau, uplo)
    t = np.conj(q.T) @ a0 @ q
    np.testing.assert_allclose(t, tridiag(d, e), rtol=0,
                               atol=tol_for(complex_dtype, 300) * max(
                                   1, np.abs(a0).max()))
    # Q unitary.
    np.testing.assert_allclose(np.conj(q.T) @ q, np.eye(n), rtol=0,
                               atol=tol_for(complex_dtype, 100))


def test_steqr_eigenvalues_match_numpy(rng):
    n = 40
    d = rng.standard_normal(n)
    e = rng.standard_normal(n - 1)
    ref = np.linalg.eigvalsh(tridiag(d, e))
    dd, ee = d.copy(), e.copy()
    info = steqr(dd, ee, compz="N")
    assert info == 0
    np.testing.assert_allclose(np.sort(dd), np.sort(ref), rtol=1e-10,
                               atol=1e-10)


def test_steqr_eigenvectors(rng):
    n = 25
    d = rng.standard_normal(n)
    e = rng.standard_normal(n - 1)
    t = tridiag(d, e)
    dd, ee = d.copy(), e.copy()
    z = np.empty((n, n))
    info = steqr(dd, ee, z, compz="I")
    assert info == 0
    # T z_i = w_i z_i, orthonormal z.
    np.testing.assert_allclose(t @ z, z * dd[None, :], atol=1e-9)
    np.testing.assert_allclose(z.T @ z, np.eye(n), atol=1e-10)
    assert np.all(np.diff(dd) >= -1e-12)


def test_steqr_accumulate_mode(rng):
    # compz='V': start from the sytrd Q, end with eigenvectors of A.
    n = 15
    a0 = sym(rng, n, np.float64)
    a = a0.copy()
    d, e, tau = sytrd(a, "L")
    q = a.copy()
    orgtr(q, tau, "L")
    info = steqr(d, e, q, compz="V")
    assert info == 0
    np.testing.assert_allclose(a0 @ q, q * d[None, :], atol=1e-9)


def test_sterf_matches_steqr(rng):
    n = 30
    d = rng.standard_normal(n)
    e = rng.standard_normal(n - 1)
    d1, e1 = d.copy(), e.copy()
    d2, e2 = d.copy(), e.copy()
    sterf(d1, e1)
    steqr(d2, e2, compz="N")
    np.testing.assert_allclose(d1, d2, rtol=1e-12, atol=1e-12)


def test_laev2_agrees_with_numpy():
    for a, b, c in [(2.0, 1.0, -1.0), (0.0, 3.0, 0.0), (5.0, 0.0, 2.0),
                    (-1.0, 1e-8, -1.0)]:
        rt1, rt2, cs1, sn1 = laev2(a, b, c)
        ref = np.linalg.eigvalsh(np.array([[a, b], [b, c]]))
        np.testing.assert_allclose(sorted([rt1, rt2]), ref, atol=1e-12)
        # Eigenvector check for rt1.
        v = np.array([cs1, sn1])
        m = np.array([[a, b], [b, c]])
        np.testing.assert_allclose(m @ v, rt1 * v, atol=1e-8)


def test_stebz_all(rng):
    n = 30
    d = rng.standard_normal(n)
    e = rng.standard_normal(n - 1)
    ref = np.linalg.eigvalsh(tridiag(d, e))
    w, m, info = stebz(d, e)
    assert info == 0 and m == n
    np.testing.assert_allclose(w, ref, atol=1e-8)


def test_stebz_index_range(rng):
    n = 20
    d = rng.standard_normal(n)
    e = rng.standard_normal(n - 1)
    ref = np.linalg.eigvalsh(tridiag(d, e))
    w, m, info = stebz(d, e, il=3, iu=7)
    assert m == 5
    np.testing.assert_allclose(w, ref[3:8], atol=1e-8)


def test_stebz_value_range(rng):
    n = 20
    d = rng.standard_normal(n)
    e = rng.standard_normal(n - 1)
    ref = np.linalg.eigvalsh(tridiag(d, e))
    vl, vu = -0.5, 1.0
    w, m, info = stebz(d, e, vl=vl, vu=vu)
    expect = ref[(ref > vl) & (ref <= vu)]
    assert m == len(expect)
    np.testing.assert_allclose(w, expect, atol=1e-8)


def test_stein_vectors(rng):
    n = 25
    d = rng.standard_normal(n)
    e = rng.standard_normal(n - 1)
    t = tridiag(d, e)
    w, m, _ = stebz(d, e, il=0, iu=4)
    z, fail = stein(d, e, w)
    assert fail == 0
    for j in range(m):
        resid = np.linalg.norm(t @ z[:, j] - w[j] * z[:, j])
        assert resid < 1e-7
    # Orthonormality.
    np.testing.assert_allclose(z.T @ z, np.eye(m), atol=1e-7)


@pytest.mark.parametrize("n", [5, 33, 80, 150])
def test_stedc_matches_numpy(n):
    rng = np.random.default_rng(42 + n)
    d = rng.standard_normal(n)
    e = rng.standard_normal(n - 1)
    t = tridiag(d, e)
    ref = np.linalg.eigvalsh(t)
    dd, ee = d.copy(), e.copy()
    z = np.empty((n, n))
    info = stedc(dd, ee, z, compz="I")
    assert info == 0
    np.testing.assert_allclose(dd, ref, atol=1e-8 * max(1, np.abs(t).max()))
    # Eigenpairs + orthogonality (the Gu–Eisenstat part).
    np.testing.assert_allclose(t @ z, z * dd[None, :], atol=1e-7)
    np.testing.assert_allclose(z.T @ z, np.eye(n), atol=1e-8)


def test_stedc_clustered_eigenvalues():
    # Near-multiple eigenvalues stress deflation + orthogonality.
    n = 64
    rng = np.random.default_rng(7)
    d = np.repeat([1.0, 2.0, 3.0, 4.0], n // 4) + 1e-12 * rng.standard_normal(n)
    e = 1e-10 * np.abs(rng.standard_normal(n - 1)) + 1e-13
    t = tridiag(d, e)
    ref = np.linalg.eigvalsh(t)
    dd, ee = d.copy(), e.copy()
    z = np.empty((n, n))
    info = stedc(dd, ee, z, compz="I")
    assert info == 0
    np.testing.assert_allclose(dd, ref, atol=1e-9)
    np.testing.assert_allclose(z.T @ z, np.eye(n), atol=1e-8)


def test_stedc_eigenvalues_only(rng):
    n = 50
    d = rng.standard_normal(n)
    e = rng.standard_normal(n - 1)
    ref = np.linalg.eigvalsh(tridiag(d, e))
    dd, ee = d.copy(), e.copy()
    info = stedc(dd, ee, compz="N")
    assert info == 0
    np.testing.assert_allclose(np.sort(dd), ref, atol=1e-9)


# -- the storage contract and Section-6 accuracy at larger n ---------------

def _opposite(n, uplo):
    """Mask of the strict triangle a ``uplo`` reduction must not touch."""
    below = np.tri(n, k=-1, dtype=bool)
    return below if uplo == "U" else below.T


@pytest.mark.parametrize("uplo", UPLOS)
@pytest.mark.parametrize("dt", [np.float64, np.complex128])
def test_sytd2_leaves_opposite_triangle_untouched(rng, uplo, dt):
    n = 130
    hermitian = np.dtype(dt).kind == "c"
    a0 = sym(rng, n, dt, hermitian)
    a = a0.copy()
    mask = _opposite(n, uplo)
    a[mask] = 7.0 * rand_matrix(rng, n, n, dt)[mask]
    before = a[mask].tobytes()
    d, e, tau = (hetrd if hermitian else sytrd)(a, uplo)
    assert a[mask].tobytes() == before
    # ‖QᴴAQ − T‖ / (‖A‖ n eps) stays small.
    q = a.copy()
    orgtr(q, tau, uplo)
    t = np.conj(q.T) @ a0 @ q
    eps = np.finfo(dt).eps
    ratio = (np.linalg.norm(t - tridiag(d, e), 1)
             / (np.linalg.norm(a0, 1) * n * eps))
    assert ratio <= 10


def _section6_ratios(t, z, w, eps):
    """‖TZ − ZΛ‖₁/(‖T‖₁ n eps) and ‖I − ZᵀZ‖₁/(n eps), in double."""
    n = t.shape[0]
    z = z.astype(np.float64)
    resid = (np.linalg.norm(t @ z - z * w.astype(np.float64)[None, :], 1)
             / (np.linalg.norm(t, 1) * n * eps))
    orth = np.linalg.norm(np.eye(n) - z.T @ z, 1) / (n * eps)
    return resid, orth


@pytest.mark.parametrize("dt", [np.float64, np.float32],
                         ids=["f64", "f32"])
def test_steqr_identity_section6(dt):
    n = 200
    rng = np.random.default_rng(12)
    d = rng.standard_normal(n).astype(dt)
    e = rng.standard_normal(n - 1).astype(dt)
    t = tridiag(d, e)
    z = np.empty((n, n), dtype=dt)
    info = steqr(d, e, z, compz="I")
    assert info == 0
    assert np.all(np.diff(d) >= 0)
    resid, orth = _section6_ratios(t, z, d, np.finfo(dt).eps)
    assert resid <= 10 and orth <= 10


def test_steqr_exact_zero_offdiagonal_splits(rng):
    n = 60
    d = rng.standard_normal(n)
    e = rng.standard_normal(n - 1)
    e[[0, 17, 40, n - 2]] = 0.0
    t = tridiag(d, e)
    z = np.empty((n, n))
    info = steqr(d, e, z, compz="I")
    assert info == 0
    assert np.all(np.diff(d) >= 0)
    np.testing.assert_allclose(d, np.linalg.eigvalsh(t), atol=1e-12)
    resid, orth = _section6_ratios(t, z, d, np.finfo(np.float64).eps)
    assert resid <= 10 and orth <= 10


@pytest.mark.parametrize("compz", ["N", "I"])
def test_steqr_iteration_cap_reports_info(rng, compz):
    n = 10
    d = rng.standard_normal(n)
    e = rng.standard_normal(n - 1)
    z = np.empty((n, n)) if compz == "I" else None
    assert steqr(d, e, z, compz=compz, maxiter_factor=0) == 1
