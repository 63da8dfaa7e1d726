"""Symmetric/Hermitian eigen drivers vs numpy.linalg.eigh."""

import numpy as np
import pytest

from repro.lapack77 import (hbev, heev, heevd, heevx, hpev, sbev, sbevd,
                            sbevx, spev, spevd, spevx, stev, stevd, stevx,
                            syev, syevd, syevx)
from repro.lapack77.gen_sym_eigen import hegv, sbgv, spgv, sygv
from repro.storage import full_to_sym_band, pack

from ..conftest import rand_matrix, spd_matrix, tol_for

UPLOS = ["U", "L"]


def sym(rng, n, dtype, hermitian=False):
    a = rand_matrix(rng, n, n, dtype)
    m = a + (np.conj(a.T) if hermitian else a.T)
    if hermitian:
        np.fill_diagonal(m, m.diagonal().real)
    return m


def check_eig(a0, w, z, tol):
    np.testing.assert_allclose(a0 @ z, z * w[None, :].astype(z.dtype),
                               atol=tol * max(1, np.abs(a0).max()))
    n = a0.shape[0]
    np.testing.assert_allclose(np.conj(z.T) @ z, np.eye(n), atol=tol)


@pytest.mark.parametrize("uplo", UPLOS)
@pytest.mark.parametrize("driver", [syev, syevd])
def test_syev_family(rng, real_dtype, uplo, driver):
    n = 20
    a0 = sym(rng, n, real_dtype)
    ref = np.linalg.eigvalsh(a0.astype(np.float64))
    a = a0.copy()
    w, info = driver(a, jobz="V", uplo=uplo)
    assert info == 0
    np.testing.assert_allclose(w, ref, atol=tol_for(real_dtype, 300))
    check_eig(a0, w, a, tol_for(real_dtype, 1000))


@pytest.mark.parametrize("uplo", UPLOS)
@pytest.mark.parametrize("driver", [heev, heevd])
def test_heev_family(rng, complex_dtype, uplo, driver):
    n = 18
    a0 = sym(rng, n, complex_dtype, hermitian=True)
    ref = np.linalg.eigvalsh(a0.astype(np.complex128))
    a = a0.copy()
    w, info = driver(a, jobz="V", uplo=uplo)
    assert info == 0
    assert w.dtype.kind == "f"
    np.testing.assert_allclose(w, ref, atol=tol_for(complex_dtype, 300))
    check_eig(a0, w, a, tol_for(complex_dtype, 1000))


def test_syev_values_only(rng):
    n = 25
    a0 = sym(rng, n, np.float64)
    a = a0.copy()
    w, info = syev(a, jobz="N")
    assert info == 0
    np.testing.assert_allclose(w, np.linalg.eigvalsh(a0), atol=1e-10)


def test_syevd_large_uses_dc(rng):
    n = 120  # above the divide-and-conquer crossover
    a0 = sym(rng, n, np.float64)
    a = a0.copy()
    w, info = syevd(a, jobz="V")
    assert info == 0
    np.testing.assert_allclose(w, np.linalg.eigvalsh(a0), atol=1e-8)
    check_eig(a0, w, a, 1e-8)


def test_syevx_index_range(rng):
    n = 30
    a0 = sym(rng, n, np.float64)
    ref = np.linalg.eigvalsh(a0)
    w, z, m, ifail, info = syevx(a0.copy(), jobz="V", il=5, iu=10)
    assert info == 0 and m == 6
    np.testing.assert_allclose(w, ref[5:11], atol=1e-8)
    for j in range(m):
        r = np.linalg.norm(a0 @ z[:, j] - w[j] * z[:, j])
        assert r < 1e-6


def test_syevx_value_range(rng):
    n = 30
    a0 = sym(rng, n, np.float64)
    ref = np.linalg.eigvalsh(a0)
    vl, vu = -1.0, 2.0
    w, z, m, ifail, info = syevx(a0.copy(), jobz="N", vl=vl, vu=vu)
    expect = ref[(ref > vl) & (ref <= vu)]
    assert m == len(expect)
    np.testing.assert_allclose(w, expect, atol=1e-8)


def test_heevx(rng):
    n = 20
    a0 = sym(rng, n, np.complex128, hermitian=True)
    ref = np.linalg.eigvalsh(a0)
    w, z, m, ifail, info = heevx(a0.copy(), jobz="V", il=0, iu=3)
    assert m == 4
    np.testing.assert_allclose(w, ref[:4], atol=1e-8)
    for j in range(m):
        r = np.linalg.norm(a0 @ z[:, j] - w[j] * z[:, j])
        assert r < 1e-6


def test_stev_drivers(rng):
    n = 30
    d = rng.standard_normal(n)
    e = rng.standard_normal(n - 1)
    t = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    ref = np.linalg.eigvalsh(t)
    d1, e1 = d.copy(), e.copy()
    z = np.empty((n, n))
    assert stev(d1, e1, z, jobz="V") == 0
    np.testing.assert_allclose(d1, ref, atol=1e-10)
    d2, e2 = d.copy(), e.copy()
    z2 = np.empty((n, n))
    assert stevd(d2, e2, z2, jobz="V") == 0
    np.testing.assert_allclose(d2, ref, atol=1e-9)
    w, z3, m, ifail, info = stevx(d, e, jobz="V", il=0, iu=2)
    assert m == 3
    np.testing.assert_allclose(w, ref[:3], atol=1e-8)


@pytest.mark.parametrize("uplo", UPLOS)
def test_spev_packed(rng, dtype, uplo):
    n = 15
    hermitian = np.dtype(dtype).kind == "c"
    a0 = sym(rng, n, dtype, hermitian=hermitian)
    ap = pack(a0, uplo=uplo)
    driver = hpev if hermitian else spev
    w, z, info = driver(ap, n, jobz="V", uplo=uplo)
    assert info == 0
    ref = np.linalg.eigvalsh(a0.astype(np.complex128 if hermitian
                                       else np.float64))
    np.testing.assert_allclose(w, ref, atol=tol_for(dtype, 300))
    check_eig(a0, w, z, tol_for(dtype, 1000))


def test_spevd_spevx(rng):
    n = 20
    a0 = sym(rng, n, np.float64)
    ap = pack(a0, uplo="U")
    ref = np.linalg.eigvalsh(a0)
    w, z, info = spevd(ap, n, jobz="V")
    assert info == 0
    np.testing.assert_allclose(w, ref, atol=1e-9)
    w2, z2, m, ifail, info2 = spevx(ap, n, jobz="N", il=0, iu=4)
    assert m == 5
    np.testing.assert_allclose(w2, ref[:5], atol=1e-8)


@pytest.mark.parametrize("uplo", UPLOS)
def test_sbev_band(rng, uplo):
    n, kd = 20, 3
    a0 = sym(rng, n, np.float64)
    for i in range(n):
        for j in range(n):
            if abs(i - j) > kd:
                a0[i, j] = 0
    ab = full_to_sym_band(a0, kd, uplo=uplo)
    ref = np.linalg.eigvalsh(a0)
    w, z, info = sbev(ab, n, jobz="V", uplo=uplo)
    assert info == 0
    np.testing.assert_allclose(w, ref, atol=1e-9)
    check_eig(a0, w, z, 1e-9)
    w2, _, info2 = sbevd(ab, n, jobz="N", uplo=uplo)
    np.testing.assert_allclose(w2, ref, atol=1e-9)
    w3, z3, m, ifail, info3 = sbevx(ab, n, jobz="N", uplo=uplo, il=0, iu=2)
    np.testing.assert_allclose(w3, ref[:3], atol=1e-8)


def test_hbev_band(rng):
    n, kd = 15, 2
    a0 = sym(rng, n, np.complex128, hermitian=True)
    for i in range(n):
        for j in range(n):
            if abs(i - j) > kd:
                a0[i, j] = 0
    ab = full_to_sym_band(a0, kd, uplo="U")
    ref = np.linalg.eigvalsh(a0)
    w, z, info = hbev(ab, n, jobz="V", uplo="U")
    assert info == 0
    np.testing.assert_allclose(w, ref, atol=1e-9)


# -- generalized problems ---------------------------------------------------

@pytest.mark.parametrize("uplo", UPLOS)
@pytest.mark.parametrize("itype", [1, 2, 3])
def test_sygv(rng, uplo, itype):
    sla = pytest.importorskip("scipy.linalg")
    n = 15
    a0 = sym(rng, n, np.float64)
    b0 = spd_matrix(rng, n, np.float64)
    a, b = a0.copy(), b0.copy()
    w, info = sygv(a, b, itype=itype, jobz="V", uplo=uplo)
    assert info == 0
    ref = sla.eigh(a0, b0, type=itype, eigvals_only=True)
    np.testing.assert_allclose(w, ref, atol=1e-8)
    # Residual of the generalized problem.
    for j in range(n):
        x = a[:, j]
        if itype == 1:
            r = a0 @ x - w[j] * (b0 @ x)
        elif itype == 2:
            r = a0 @ (b0 @ x) - w[j] * x
        else:
            r = b0 @ (a0 @ x) - w[j] * x
        assert np.linalg.norm(r) < 1e-6 * max(1, abs(w[j]))


@pytest.mark.parametrize("uplo", UPLOS)
def test_hegv(rng, uplo):
    sla = pytest.importorskip("scipy.linalg")
    n = 12
    a0 = sym(rng, n, np.complex128, hermitian=True)
    b0 = spd_matrix(rng, n, np.complex128)
    a, b = a0.copy(), b0.copy()
    w, info = hegv(a, b, itype=1, jobz="V", uplo=uplo)
    assert info == 0
    ref = sla.eigh(a0, b0, eigvals_only=True)
    np.testing.assert_allclose(w, ref, atol=1e-8)


def test_sygv_b_not_pd():
    a = np.eye(3)
    b = np.eye(3)
    b[1, 1] = -1.0
    w, info = sygv(a.copy(), b, jobz="N")
    assert info == 3 + 2  # n + order of the failing minor


def test_spgv_packed(rng):
    sla = pytest.importorskip("scipy.linalg")
    n = 10
    a0 = sym(rng, n, np.float64)
    b0 = spd_matrix(rng, n, np.float64)
    ap, bp = pack(a0, "U"), pack(b0, "U")
    w, z, info = spgv(ap, bp, n, itype=1, jobz="V", uplo="U")
    assert info == 0
    ref = sla.eigh(a0, b0, eigvals_only=True)
    np.testing.assert_allclose(w, ref, atol=1e-8)


def test_sbgv_band(rng):
    sla = pytest.importorskip("scipy.linalg")
    n, kd = 12, 2
    a0 = sym(rng, n, np.float64)
    b0 = spd_matrix(rng, n, np.float64)
    for i in range(n):
        for j in range(n):
            if abs(i - j) > kd:
                a0[i, j] = 0
                b0[i, j] = 0
    b0 += np.eye(n) * n  # keep definite after truncation
    ab = full_to_sym_band(a0, kd, "U")
    bb = full_to_sym_band(b0, kd, "U")
    w, z, info = sbgv(ab, bb, n, jobz="V", uplo="U")
    assert info == 0
    ref = sla.eigh(a0, b0, eigvals_only=True)
    np.testing.assert_allclose(w, ref, atol=1e-8)


# -- band tridiagonalization (sbtrd/hbtrd) -----------------------------------

@pytest.mark.parametrize("kd", [0, 1, 2, 5])
@pytest.mark.parametrize("uplo", UPLOS)
def test_sbtrd_similarity(rng, uplo, kd):
    from repro.lapack77.band_eigen import sbtrd
    n = 14
    a0 = sym(rng, n, np.float64)
    for i in range(n):
        for j in range(n):
            if abs(i - j) > kd:
                a0[i, j] = 0
    ab = full_to_sym_band(a0, kd, uplo=uplo)
    d, e, q, info = sbtrd(ab, uplo=uplo, vect="V")
    assert info == 0
    t = np.diag(d)
    if n > 1:
        t = t + np.diag(e, 1) + np.diag(e, -1)
    np.testing.assert_allclose(q @ t @ q.T, a0, atol=1e-12)
    np.testing.assert_allclose(q.T @ q, np.eye(n), atol=1e-12)


def test_hbtrd_similarity(rng):
    from repro.lapack77.band_eigen import hbtrd
    n, kd = 12, 3
    a0 = sym(rng, n, np.complex128, hermitian=True)
    for i in range(n):
        for j in range(n):
            if abs(i - j) > kd:
                a0[i, j] = 0
    ab = full_to_sym_band(a0, kd, uplo="U")
    d, e, q, info = hbtrd(ab, uplo="U", vect="V")
    assert info == 0
    assert d.dtype.kind == "f" and e.dtype.kind == "f"
    assert np.all(e >= 0)
    t = np.diag(d.astype(complex)) + np.diag(e, 1) + np.diag(e, -1)
    np.testing.assert_allclose(q @ t @ np.conj(q.T), a0, atol=1e-12)


def test_sbtrd_values_only_matches_vect(rng):
    from repro.lapack77.band_eigen import sbtrd
    n, kd = 20, 2
    a0 = sym(rng, n, np.float64)
    for i in range(n):
        for j in range(n):
            if abs(i - j) > kd:
                a0[i, j] = 0
    ab = full_to_sym_band(a0, kd, uplo="U")
    d1, e1, q1, _ = sbtrd(ab, uplo="U", vect="N")
    assert q1 is None
    d2, e2, q2, _ = sbtrd(ab, uplo="U", vect="V")
    np.testing.assert_allclose(d1, d2)
    np.testing.assert_allclose(e1, e2)


@pytest.mark.parametrize("uplo", ["U", "L"])
@pytest.mark.parametrize("dt", [np.float64, np.float32, np.complex128],
                         ids=["f64", "f32", "c128"])
def test_syev_vectors_section6_n200(uplo, dt):
    # jobz='V' runs the reduction, orgtr and steqr(compz='V'); complex
    # operands take the heev path with a complex Z.
    n = 200
    rng = np.random.default_rng(13)
    hermitian = np.dtype(dt).kind == "c"
    a0 = sym(rng, n, dt, hermitian)
    a = a0.copy()
    w, info = (heev if hermitian else syev)(a, jobz="V", uplo=uplo)
    assert info == 0
    assert np.all(np.diff(w) >= 0)
    wide = np.complex128 if hermitian else np.float64
    a0w, z = a0.astype(wide), a.astype(wide)
    eps = np.finfo(dt).eps
    resid = (np.linalg.norm(a0w @ z - z * w.astype(np.float64)[None, :], 1)
             / (np.linalg.norm(a0w, 1) * n * eps))
    orth = np.linalg.norm(np.eye(n) - np.conj(z.T) @ z, 1) / (n * eps)
    assert resid <= 10 and orth <= 10
