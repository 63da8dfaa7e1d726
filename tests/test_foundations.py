"""Foundation modules: storage layouts, machine parameters, ilaenv/config,
norms and auxiliaries, the condition estimator, precision mapping."""

import numpy as np
import pytest

from repro import config
from repro.core.auxmod import la_ws_gels, la_ws_gelss, lsame
from repro.core.precision import DP, SP, is_complex, real_dtype_of, same_kind, wp
from repro.lapack77.lacon import lacon
from repro.lapack77.lautil import (lacpy, langt, lanhs, lansp, lanst,
                                   lantr, lapy2, lapy3, larnv, laset,
                                   lassq, laswp)
from repro.lapack77.machine import lamch
from repro.storage import (band_to_full, full_to_band, pack, packed_index,
                           packed_size, unpack)

from .conftest import rand_matrix


@pytest.fixture
def rng():
    return np.random.default_rng(99)


class TestMachine:
    def test_eps_values(self):
        assert lamch("E", np.float32) == np.finfo(np.float32).eps
        assert lamch("E", np.float64) == np.finfo(np.float64).eps
        # Complex dtypes report their real component's parameters.
        assert lamch("E", np.complex64) == np.finfo(np.float32).eps

    def test_safe_min_invertible(self):
        for dt in (np.float32, np.float64):
            s = lamch("S", dt)
            assert np.isfinite(1.0 / s)

    def test_overflow_underflow(self):
        assert lamch("O", np.float64) == np.finfo(np.float64).max
        assert lamch("U", np.float64) == np.finfo(np.float64).tiny
        assert lamch("B", np.float64) == 2.0

    def test_unknown_query_raises(self):
        with pytest.raises(ValueError):
            lamch("Q")


class TestConfig:
    def test_ilaenv_block_sizes(self):
        assert config.ilaenv(1, "getrf") >= 1
        assert config.ilaenv(1, "SGETRF") == config.ilaenv(1, "getrf")
        assert config.ilaenv(1, "unknown_routine") == 1

    def test_override_restores(self):
        old = config.get_block_size("getrf")
        with config.block_size_override("getrf", 7):
            assert config.get_block_size("getrf") == 7
        assert config.get_block_size("getrf") == old

    def test_set_block_size_validates(self):
        with pytest.raises(ValueError):
            config.set_block_size("getrf", 0)


class TestPrecision:
    def test_wp_mapping(self):
        assert wp(SP) == np.float32
        assert wp(DP) == np.float64
        assert wp(SP, complex=True) == np.complex64
        assert wp(DP, complex=True) == np.complex128
        with pytest.raises(ValueError):
            wp("QP")

    def test_real_dtype_of(self):
        assert real_dtype_of(np.complex128) == np.float64
        assert real_dtype_of(np.float32) == np.float32

    def test_same_kind(self):
        a = np.zeros(2, np.float32)
        b = np.zeros(2, np.complex64)
        c = np.zeros(2, np.float64)
        assert same_kind(a, b)
        assert not same_kind(a, c)

    def test_is_complex(self):
        assert is_complex(np.zeros(1, complex))
        assert not is_complex(np.zeros(1))


class TestAuxmod:
    def test_lsame(self):
        assert lsame("u", "U") and lsame("N", "n")
        assert not lsame("U", "L")
        assert not lsame("", "U")

    def test_workspace_queries_positive(self):
        assert la_ws_gels("S", 100, 50, 10) > 50
        assert la_ws_gelss("D", 100, 50, 10) > 100


class TestStorage:
    def test_packed_size_and_index(self):
        assert packed_size(4) == 10
        # Column-major packing of the upper triangle.
        assert packed_index(0, 0, 4, "U") == 0
        assert packed_index(0, 1, 4, "U") == 1
        assert packed_index(1, 1, 4, "U") == 2
        assert packed_index(0, 0, 4, "L") == 0
        assert packed_index(3, 0, 4, "L") == 3
        with pytest.raises(IndexError):
            packed_index(2, 1, 4, "U")
        with pytest.raises(IndexError):
            packed_index(1, 2, 4, "L")

    @pytest.mark.parametrize("uplo", ["U", "L"])
    def test_pack_unpack_hermitian(self, rng, uplo):
        n = 6
        a = rand_matrix(rng, n, n, np.complex128)
        a = a + np.conj(a.T)
        np.fill_diagonal(a, a.diagonal().real)
        ap = pack(a, uplo)
        assert ap.shape == (packed_size(n),)
        full = unpack(ap, n, uplo=uplo, hermitian=True)
        np.testing.assert_allclose(full, a)

    def test_pack_requires_square(self, rng):
        with pytest.raises(ValueError):
            pack(rand_matrix(rng, 3, 4, np.float64))

    def test_band_rectangular(self, rng):
        m, n, kl, ku = 7, 5, 2, 1
        a = rand_matrix(rng, m, n, np.float64)
        for i in range(m):
            for j in range(n):
                if j - i > ku or i - j > kl:
                    a[i, j] = 0
        ab = full_to_band(a, kl, ku)
        assert ab.shape == (kl + ku + 1, n)
        np.testing.assert_array_equal(band_to_full(ab, m, n, kl, ku), a)


def _swap_loop(a, ipiv, k1=0, k2=None, forward=True):
    """The row-at-a-time interchange loop ``laswp`` ran before it
    composed the interchanges into one gather."""
    if k2 is None:
        k2 = len(ipiv)
    ks = range(k1, k2) if forward else range(k2 - 1, k1 - 1, -1)
    for k in ks:
        p = ipiv[k]
        if p != k:
            a[[k, p], :] = a[[p, k], :]
    return a


def _pivots(rng, kind, m):
    if kind == "random":           # LU convention: ipiv[k] >= k
        return np.array([rng.integers(k, m) for k in range(m)])
    if kind == "repeated":         # every row swapped with the last one
        return np.full(m, m - 1)
    if kind == "chained":          # each row with its successor
        return np.minimum(np.arange(m) + 1, m - 1)
    return rng.integers(0, m, m)   # any partner, before or after k


class TestLaswpOneGather:
    @pytest.mark.parametrize("kind", ["random", "repeated", "chained", "any"])
    @pytest.mark.parametrize("forward", [True, False])
    @pytest.mark.parametrize("k1,k2", [(0, None), (2, 9), (5, 6), (4, 4)])
    def test_matches_swap_loop(self, rng, kind, forward, k1, k2):
        ipiv = _pivots(rng, kind, 12)
        a = rand_matrix(rng, 12, 3, np.complex128)
        ref = _swap_loop(a.copy(), ipiv, k1, k2, forward)
        out = laswp(a, ipiv, k1, k2, forward)
        assert out is a
        np.testing.assert_array_equal(a, ref)

    def test_list_pivots(self, rng):
        v = rng.standard_normal((9, 2))
        ipiv = [3, 1, 8, 8, 4, 7, 6, 8, 8]
        np.testing.assert_array_equal(laswp(v.copy(), ipiv),
                                      _swap_loop(v.copy(), ipiv))

    @pytest.mark.parametrize("kind", ["random", "repeated", "chained"])
    def test_getrf_panel_views(self, rng, kind):
        """The strided views ``getrf`` passes: the columns left and right
        of a panel, rows from the panel's first row down."""
        n, j, jb = 40, 16, 8
        piv = _pivots(rng, kind, n - j)[:jb]
        for cols in (slice(0, j), slice(j + jb, n)):
            a = rand_matrix(rng, n, n, np.float64)
            ref = a.copy()
            _swap_loop(ref[j:, cols], piv)
            laswp(a[j:, cols], piv)
            np.testing.assert_array_equal(a, ref)


# The per-pivot Bunch-Kaufman solves ``sytrs`` ran before it became
# LAPACK's ``?sytrs2``; the reference for the new one.

def _per_pivot_upper(a, ipiv, b, hermitian):
    n = a.shape[0]
    conj = np.conj if hermitian else (lambda z: z)
    k = n - 1
    while k >= 0:
        if ipiv[k] >= 0:
            kp = ipiv[k]
            if kp != k:
                b[[k, kp]] = b[[kp, k]]
            if k > 0:
                b[:k] -= np.outer(a[:k, k], b[k])
            b[k] = b[k] / (a[k, k].real if hermitian else a[k, k])
            k -= 1
        else:
            kp = -ipiv[k] - 1
            if kp != k - 1:
                b[[k - 1, kp]] = b[[kp, k - 1]]
            if k > 1:
                b[:k - 1] -= np.outer(a[:k - 1, k], b[k])
                b[:k - 1] -= np.outer(a[:k - 1, k - 1], b[k - 1])
            akm1k = a[k - 1, k]
            akm1 = a[k - 1, k - 1] / akm1k
            ak = a[k, k] / (conj(akm1k) if hermitian else akm1k)
            denom = akm1 * ak - 1.0
            bkm1 = b[k - 1] / akm1k
            bk = b[k] / (conj(akm1k) if hermitian else akm1k)
            b[k - 1] = (ak * bkm1 - bk) / denom
            b[k] = (akm1 * bk - bkm1) / denom
            k -= 2
    k = 0
    while k < n:
        if ipiv[k] >= 0:
            if k > 0:
                b[k] -= conj(a[:k, k]) @ b[:k]
            kp = ipiv[k]
            if kp != k:
                b[[k, kp]] = b[[kp, k]]
            k += 1
        else:
            if k > 0:
                b[k] -= conj(a[:k, k]) @ b[:k]
                b[k + 1] -= conj(a[:k, k + 1]) @ b[:k]
            kp = -ipiv[k] - 1
            if kp != k:
                b[[k, kp]] = b[[kp, k]]
            k += 2


def _per_pivot_lower(a, ipiv, b, hermitian):
    n = a.shape[0]
    conj = np.conj if hermitian else (lambda z: z)
    k = 0
    while k < n:
        if ipiv[k] >= 0:
            kp = ipiv[k]
            if kp != k:
                b[[k, kp]] = b[[kp, k]]
            if k < n - 1:
                b[k + 1:] -= np.outer(a[k + 1:, k], b[k])
            b[k] = b[k] / (a[k, k].real if hermitian else a[k, k])
            k += 1
        else:
            kp = -ipiv[k] - 1
            if kp != k + 1:
                b[[k + 1, kp]] = b[[kp, k + 1]]
            if k < n - 2:
                b[k + 2:] -= np.outer(a[k + 2:, k], b[k])
                b[k + 2:] -= np.outer(a[k + 2:, k + 1], b[k + 1])
            akm1k = a[k + 1, k]
            akm1 = a[k, k] / (conj(akm1k) if hermitian else akm1k)
            ak = a[k + 1, k + 1] / akm1k
            denom = akm1 * ak - 1.0
            bkm1 = b[k] / (conj(akm1k) if hermitian else akm1k)
            bk = b[k + 1] / akm1k
            b[k] = (ak * bkm1 - bk) / denom
            b[k + 1] = (akm1 * bk - bkm1) / denom
            k += 2
    k = n - 1
    while k >= 0:
        if ipiv[k] >= 0:
            if k < n - 1:
                b[k] -= conj(a[k + 1:, k]) @ b[k + 1:]
            kp = ipiv[k]
            if kp != k:
                b[[k, kp]] = b[[kp, k]]
            k -= 1
        else:
            if k < n - 1:
                b[k] -= conj(a[k + 1:, k]) @ b[k + 1:]
                b[k - 1] -= conj(a[k + 1:, k - 1]) @ b[k + 1:]
            kp = -ipiv[k] - 1
            if kp != k:
                b[[k, kp]] = b[[kp, k]]
            k -= 2


class TestSytrs2:
    @pytest.mark.parametrize("kind", ["symmetric", "hermitian",
                                      "complex_symmetric"])
    @pytest.mark.parametrize("uplo", ["U", "L"])
    @pytest.mark.parametrize("n", [8, 65, 130])
    def test_matches_per_pivot_solve(self, rng, kind, uplo, n):
        from repro.lapack77 import sytrf, sytrs, hetrf
        hermitian = kind == "hermitian"
        dt = np.float64 if kind == "symmetric" else np.complex128
        # Indefinite with eigenvalues ±[1, 10]: κ ≤ 10, and a diagonal
        # small enough next to the off-diagonal for 2×2 pivots.
        q = np.linalg.qr(rand_matrix(rng, n, n, dt))[0]
        lam = rng.uniform(1, 10, n) * rng.choice([-1.0, 1.0], n)
        a = (q * lam) @ (np.conj(q.T) if hermitian else q.T)
        if not hermitian:
            a = (a + a.T) / 2
        f = a.copy()
        ipiv, info = (hetrf if hermitian else sytrf)(f, uplo)
        assert info == 0
        assert (ipiv < 0).any() and (ipiv >= 0).any()
        b = rand_matrix(rng, n, 3, dt)
        x = b.copy()
        sytrs(f, ipiv, x, uplo=uplo, hermitian=hermitian)
        ref = b.copy()
        (_per_pivot_upper if uplo == "U" else _per_pivot_lower)(
            f, ipiv, ref, hermitian)
        tol = 1e3 * n * np.finfo(dt).eps
        assert np.abs(x - ref).max() <= tol * np.abs(ref).max()


class TestLautil:
    def test_laswp_roundtrip(self, rng):
        a = rand_matrix(rng, 6, 4, np.float64)
        a0 = a.copy()
        ipiv = np.array([2, 3, 2, 5, 4, 5])
        laswp(a, ipiv)
        laswp(a, ipiv, forward=False)
        np.testing.assert_array_equal(a, a0)

    def test_lacpy_triangles(self, rng):
        a = rand_matrix(rng, 5, 5, np.float64)
        b = np.zeros_like(a)
        lacpy(a, b, uplo="U")
        np.testing.assert_array_equal(np.triu(b), np.triu(a))
        assert np.all(np.tril(b, -1) == 0)

    def test_laset(self):
        a = np.ones((4, 5))
        laset(a, alpha=2.0, beta=7.0)
        assert np.all(a.diagonal() == 7.0)
        assert np.all(a[np.triu_indices(4, 1, 5)] == 2.0)

    def test_lassq_overflow_safe(self):
        scale, sumsq = lassq(np.array([3e300, 4e300]))
        assert np.isclose(scale * np.sqrt(sumsq), 5e300, rtol=1e-12)

    def test_lapy(self):
        assert lapy2(3, 4) == 5
        assert np.isclose(lapy3(1, 2, 2), 3)
        assert lapy3(0, 0, 0) == 0

    def test_larnv_distributions(self, rng):
        v1 = larnv(1, 1000, rng=rng)
        assert 0 <= v1.min() and v1.max() <= 1
        v2 = larnv(2, 1000, rng=rng)
        assert v2.min() < -0.5 and v2.max() > 0.5
        v3 = larnv(3, 1000, dtype=np.complex128, rng=rng)
        assert np.iscomplexobj(v3)
        with pytest.raises(ValueError):
            larnv(4, 5, rng=rng)

    def test_structured_norms(self, rng):
        n = 6
        dl = rng.standard_normal(n - 1)
        d = rng.standard_normal(n)
        du = rng.standard_normal(n - 1)
        full = np.diag(d) + np.diag(dl, -1) + np.diag(du, 1)
        assert np.isclose(langt("1", dl, d, du), np.linalg.norm(full, 1))
        assert np.isclose(lanst("I", d, dl), np.linalg.norm(
            np.diag(d) + np.diag(dl, 1) + np.diag(dl, -1), np.inf))
        h = np.triu(rng.standard_normal((n, n)), -1)
        assert np.isclose(lanhs("F", h), np.linalg.norm(h, "fro"))
        t = np.triu(rng.standard_normal((n, n)))
        assert np.isclose(lantr("M", t, "U"), np.abs(t).max())
        # Unit-diagonal triangular norm replaces the diagonal by ones.
        t2 = t.copy()
        np.fill_diagonal(t2, 1.0)
        assert np.isclose(lantr("1", t, "U", diag="U"),
                          np.linalg.norm(np.triu(t2), 1))
        sym = rng.standard_normal((n, n))
        sym = sym + sym.T
        ap = pack(sym, "U")
        assert np.isclose(lansp("1", ap, n, "U"), np.linalg.norm(sym, 1))


class TestLacon:
    @pytest.mark.parametrize("n", [1, 5, 40])
    def test_estimates_one_norm(self, rng, n):
        a = rng.standard_normal((n, n)) + np.eye(n) * 2
        est = lacon(n, lambda x: a @ x, lambda x: a.T @ x)
        true = np.linalg.norm(a, 1)
        assert true / 3 <= est <= true * 1.01

    def test_complex(self, rng):
        n = 20
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        est = lacon(n, lambda x: a @ x, lambda x: np.conj(a.T) @ x,
                    dtype=np.complex128)
        true = np.linalg.norm(a, 1)
        assert true / 3 <= est <= true * 1.01

    def test_zero_dimension(self):
        assert lacon(0, None, None) == 0.0
