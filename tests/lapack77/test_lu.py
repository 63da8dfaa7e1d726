"""LU family vs scipy/numpy oracles and factorization identities."""

import numpy as np
import pytest
sla = pytest.importorskip("scipy.linalg")

from repro import config
from repro.errors import IllegalArgument
from repro.lapack77 import (gecon, geequ, gerfs, gesv, getf2, getrf, getri,
                            getrs, lange, laqge)

from ..conftest import rand_matrix, tol_for, well_conditioned


def reconstruct_lu(lu, ipiv, m, n):
    """Rebuild P·L·U from the packed factor output."""
    k = min(m, n)
    l = np.tril(lu[:, :k], -1)
    l[np.arange(k), np.arange(k)] = 1
    u = np.triu(lu[:k, :])
    a = l @ u
    # Undo the swaps (they were applied forward during factorization).
    for j in range(k - 1, -1, -1):
        p = ipiv[j]
        if p != j:
            a[[j, p], :] = a[[p, j], :]
    return a


@pytest.mark.parametrize("m,n", [(6, 6), (8, 5), (5, 8), (1, 1), (3, 1)])
def test_getf2_reconstructs(rng, dtype, m, n):
    a0 = rand_matrix(rng, m, n, dtype)
    a = a0.copy()
    ipiv, info = getf2(a)
    assert info == 0
    rec = reconstruct_lu(a, ipiv, m, n)
    np.testing.assert_allclose(rec, a0, rtol=tol_for(dtype, 100),
                               atol=tol_for(dtype, 100))


def test_getrf_blocked_matches_unblocked(rng, dtype):
    n = 80
    a0 = well_conditioned(rng, n, dtype)
    a_blocked = a0.copy()
    a_unblocked = a0.copy()
    with config.block_size_override("getrf", 16):
        ipb, infob = getrf(a_blocked)
    with config.block_size_override("getrf", 1):
        ipu, infou = getrf(a_unblocked)
    assert infob == infou == 0
    np.testing.assert_array_equal(ipb, ipu)
    np.testing.assert_allclose(a_blocked, a_unblocked,
                               rtol=tol_for(dtype, 1000),
                               atol=tol_for(dtype, 1000))


def test_getrf_rectangular_blocked(rng):
    m, n = 100, 70
    a0 = rand_matrix(rng, m, n, np.float64)
    a = a0.copy()
    with config.block_size_override("getrf", 16):
        ipiv, info = getrf(a)
    assert info == 0
    rec = reconstruct_lu(a, ipiv, m, n)
    np.testing.assert_allclose(rec, a0, rtol=1e-10, atol=1e-10)


def test_getrf_singular_reports_first_zero_pivot():
    a = np.zeros((4, 4))
    a[0, 0] = 1.0
    ipiv, info = getrf(a)
    assert info > 0


def test_getrf_matches_scipy_pivots(rng):
    n = 30
    a0 = rand_matrix(rng, n, n, np.float64)
    a = a0.copy()
    ipiv, info = getrf(a)
    lu_s, piv_s = sla.lu_factor(a0)
    np.testing.assert_array_equal(ipiv, piv_s)
    np.testing.assert_allclose(a, lu_s, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("trans", ["N", "T", "C"])
@pytest.mark.parametrize("nrhs", [1, 4])
def test_getrs_solves(rng, dtype, trans, nrhs):
    n = 25
    a0 = well_conditioned(rng, n, dtype)
    x_true = rand_matrix(rng, n, nrhs, dtype)
    op = {"N": a0, "T": a0.T, "C": np.conj(a0.T)}[trans]
    b = (op @ x_true).astype(dtype)
    a = a0.copy()
    ipiv, info = getrf(a)
    assert info == 0
    getrs(a, ipiv, b, trans=trans)
    np.testing.assert_allclose(b, x_true, rtol=tol_for(dtype, 1e3),
                               atol=tol_for(dtype, 1e3))


def test_getrs_vector_rhs(rng, dtype):
    n = 10
    a0 = well_conditioned(rng, n, dtype)
    x = np.ones(n, dtype=dtype)
    b = (a0 @ x).astype(dtype)
    a = a0.copy()
    ipiv, _ = getrf(a)
    getrs(a, ipiv, b)
    np.testing.assert_allclose(b, x, rtol=tol_for(dtype, 1e3),
                               atol=tol_for(dtype, 1e3))


def test_gesv_end_to_end(rng, dtype):
    n, nrhs = 40, 3
    a0 = well_conditioned(rng, n, dtype)
    x_true = rand_matrix(rng, n, nrhs, dtype)
    b = (a0 @ x_true).astype(dtype)
    a = a0.copy()
    ipiv, info = gesv(a, b)
    assert info == 0
    np.testing.assert_allclose(b, x_true, rtol=tol_for(dtype, 1e4),
                               atol=tol_for(dtype, 1e4))


def test_gesv_singular_info_positive():
    a = np.ones((3, 3))
    b = np.ones((3, 1))
    b0 = b.copy()
    ipiv, info = gesv(a, b)
    assert info > 0
    # b untouched on failure
    np.testing.assert_array_equal(b, b0)


def test_gesv_shape_errors():
    with pytest.raises(IllegalArgument):
        gesv(np.ones((3, 4)), np.ones((3, 1)))
    with pytest.raises(IllegalArgument):
        gesv(np.ones((3, 3)), np.ones((4, 1)))


@pytest.mark.parametrize("n", [1, 7, 40])
def test_getri_inverse(rng, dtype, n):
    a0 = well_conditioned(rng, n, dtype)
    a = a0.copy()
    ipiv, info = getrf(a)
    assert info == 0
    info = getri(a, ipiv)
    assert info == 0
    np.testing.assert_allclose(a @ a0, np.eye(n), rtol=0,
                               atol=tol_for(dtype, 1e4))


def test_getri_blocked_vs_unblocked(rng):
    n = 90
    a0 = well_conditioned(rng, n, np.float64)
    a1, a2 = a0.copy(), a0.copy()
    ip1, _ = getrf(a1)
    ip2, _ = getrf(a2)
    getri(a1, ip1)
    with config.block_size_override("getri", 1):
        getri(a2, ip2)
    np.testing.assert_allclose(a1, a2, rtol=1e-9, atol=1e-9)


def test_getri_small_lwork_falls_back(rng):
    n = 40
    a0 = well_conditioned(rng, n, np.float64)
    a = a0.copy()
    ipiv, _ = getrf(a)
    info = getri(a, ipiv, lwork=n)  # forces nb == 1 path
    assert info == 0
    np.testing.assert_allclose(a @ a0, np.eye(n), atol=1e-8)


def test_getri_zero_diagonal_info():
    a = np.triu(np.ones((3, 3)))
    a[1, 1] = 0.0
    info = getri(a, np.arange(3))
    assert info == 2


def test_gecon_tracks_true_condition(rng):
    n = 50
    a0 = well_conditioned(rng, n, np.float64)
    anorm = lange("1", a0)
    a = a0.copy()
    ipiv, _ = getrf(a)
    rcond, info = gecon(a, anorm, norm="1")
    assert info == 0
    true_rcond = 1.0 / (np.linalg.cond(a0, 1))
    # Estimator is within a small factor of the truth.
    assert true_rcond / 10 <= rcond <= true_rcond * 10


def test_gecon_inf_norm(rng):
    n = 30
    a0 = well_conditioned(rng, n, np.float64)
    anorm = lange("I", a0)
    a = a0.copy()
    getrf(a)
    rcond, _ = gecon(a, anorm, norm="I")
    true_rcond = 1.0 / np.linalg.cond(a0, np.inf)
    assert true_rcond / 10 <= rcond <= true_rcond * 10


def test_gecon_zero_norm_short_circuits(rng):
    a = np.eye(4)
    rcond, info = gecon(a, 0.0)
    assert rcond == 0.0 and info == 0


@pytest.mark.parametrize("trans", ["N", "T"])
def test_gerfs_improves_and_bounds(rng, trans):
    n, nrhs = 60, 2
    rng2 = np.random.default_rng(7)
    a0 = rand_matrix(rng2, n, n, np.float64)
    a0 += np.eye(n) * 2
    x_true = rand_matrix(rng2, n, nrhs, np.float64)
    op = a0 if trans == "N" else a0.T
    b = op @ x_true
    af = a0.copy()
    ipiv, _ = getrf(af)
    x = b.copy()
    getrs(af, ipiv, x, trans=trans)
    # Perturb the solution so refinement has work to do.
    x_bad = x + 1e-6 * rng2.standard_normal(x.shape)
    ferr, berr, info = gerfs(a0, af, ipiv, b, x_bad, trans=trans)
    assert info == 0
    err = np.max(np.abs(x_bad - x_true), axis=0) / np.max(np.abs(x_true), axis=0)
    # Backward error at roundoff scale, forward error bound honoured.
    assert np.all(berr < 1e-13)
    assert np.all(err <= ferr * 10 + 1e-15)


def test_geequ_scales_to_unit_rows_and_cols(rng):
    n = 20
    a = rand_matrix(rng, n, n, np.float64)
    a[0] *= 1e8   # badly scaled row
    r, c, rowcnd, colcnd, amax, info = geequ(a)
    assert info == 0
    scaled = a * np.outer(r, c)
    assert np.abs(scaled).max() <= 1 + 1e-12
    assert rowcnd < 0.1  # badly scaled detected


def test_geequ_zero_row_and_column():
    a = np.ones((3, 3))
    a[1] = 0
    *_, info = geequ(a)
    assert info == 2
    a = np.ones((3, 3))
    a[:, 2] = 0
    # zero column can only be flagged if no zero row precedes it
    r, c, rowcnd, colcnd, amax, info = geequ(a)
    assert info == 3 + 3  # m + j + 1 = 3 + 2 + 1
    assert info == 6


def test_laqge_applies_scaling(rng):
    n = 10
    a = rand_matrix(rng, n, n, np.float64)
    a[0] *= 1e9
    r, c, rowcnd, colcnd, amax, info = geequ(a)
    a_scaled = a.copy()
    equed = laqge(a_scaled, r, c, rowcnd, colcnd, amax)
    assert equed in ("R", "B")
    assert np.abs(a_scaled).max() < np.abs(a).max()


def test_laqge_well_scaled_noop(rng):
    a = np.eye(5) + 0.1 * rand_matrix(rng, 5, 5, np.float64)
    r, c, rowcnd, colcnd, amax, info = geequ(a)
    a_scaled = a.copy()
    equed = laqge(a_scaled, r, c, rowcnd, colcnd, amax)
    assert equed == "N"
    np.testing.assert_array_equal(a_scaled, a)


# -- standalone triangular routines (trtri/trtrs/trcon) ----------------------

@pytest.mark.parametrize("uplo", ["U", "L"])
@pytest.mark.parametrize("diag", ["N", "U"])
def test_trtri_inverts(rng, dtype, uplo, diag):
    from repro.lapack77 import trtri
    n = 10
    a = rand_matrix(rng, n, n, dtype)
    a[np.diag_indices(n)] += 3
    t = np.triu(a) if uplo == "U" else np.tril(a)
    t_eff = t.copy()
    if diag == "U":
        np.fill_diagonal(t_eff, 1)
    inv = t.copy()
    info = trtri(inv, uplo, diag)
    assert info == 0
    inv_eff = np.triu(inv) if uplo == "U" else np.tril(inv)
    if diag == "U":
        np.fill_diagonal(inv_eff, 1)
    np.testing.assert_allclose(inv_eff @ t_eff, np.eye(n), rtol=0,
                               atol=tol_for(dtype, 1e3))


def test_trtri_singular_info():
    from repro.lapack77 import trtri
    a = np.triu(np.ones((4, 4)))
    a[2, 2] = 0
    assert trtri(a, "U", "N") == 3


@pytest.mark.parametrize("uplo", ["U", "L"])
@pytest.mark.parametrize("trans", ["N", "T", "C"])
def test_trtrs_solves(rng, dtype, uplo, trans):
    from repro.lapack77 import trtrs
    n = 8
    a = rand_matrix(rng, n, n, dtype)
    a[np.diag_indices(n)] += 3
    t = np.triu(a) if uplo == "U" else np.tril(a)
    op = {"N": t, "T": t.T, "C": np.conj(t.T)}[trans]
    x_true = rand_matrix(rng, n, 2, dtype)
    b = (op @ x_true).astype(dtype)
    info = trtrs(t, b, uplo=uplo, trans=trans)
    assert info == 0
    np.testing.assert_allclose(b, x_true, rtol=tol_for(dtype, 1e3),
                               atol=tol_for(dtype, 1e3))


def test_trtrs_singular_leaves_b():
    from repro.lapack77 import trtrs
    a = np.triu(np.ones((3, 3)))
    a[1, 1] = 0
    b = np.ones(3)
    b0 = b.copy()
    assert trtrs(a, b) == 2
    np.testing.assert_array_equal(b, b0)


def test_trcon_estimate(rng):
    from repro.lapack77 import trcon
    n = 30
    a = rand_matrix(rng, n, n, np.float64)
    a[np.diag_indices(n)] += n
    t = np.triu(a)
    rcond, info = trcon(t, "U")
    true_rcond = 1.0 / np.linalg.cond(t, 1)
    assert true_rcond / 10 <= rcond <= true_rcond * 10


# -- exceptional inputs through the block-inverting trsm ------------------
# ``trtrs`` solves through inverted diagonal blocks from n = 16 on; a
# zero pivot, Inf or NaN must still produce what column substitution
# produces.  The expected outcomes below are those of substitution, the
# ``trsm`` these solves ran before.

def _sweep_solve(t, b, trans):
    """Column substitution ``op(T) x = b`` on the upper triangle ``t``."""
    op = t if trans == "N" else t.T
    x = b.astype(np.result_type(t, b))
    n = t.shape[0]
    lower = trans != "N"
    for j in (range(n) if lower else range(n - 1, -1, -1)):
        x[j] = x[j] / op[j, j]
        rest = slice(j + 1, n) if lower else slice(0, j)
        x[rest] -= np.outer(op[rest, j], x[j])
    return x


def _exceptional(n, case):
    rng = np.random.default_rng(7)
    t = np.triu(rng.standard_normal((n, n))) + 3 * np.eye(n)
    b = rng.standard_normal((n, 2))
    if case == "inf_diagonal":
        t[n // 2, n // 2] = np.inf
    elif case == "nan_in_a":
        t[1, n - 1] = np.nan
    elif case == "nan_in_b":
        b[n // 3, 0] = np.nan
    elif case == "tiny_pivot":
        t[0, 0] = 1e-300          # the block inverse overflows
    return t, b


@pytest.mark.parametrize("n", [5, 40, 130])
def test_trtrs_zero_diagonal_info_and_b_untouched(n):
    from repro.lapack77 import trtrs
    t, b = _exceptional(n, "none")
    t[n - 2, n - 2] = 0
    b0 = b.copy()
    assert trtrs(t, b) == n - 1
    np.testing.assert_array_equal(b, b0)


@pytest.mark.parametrize("case", ["inf_diagonal", "nan_in_a", "nan_in_b",
                                  "tiny_pivot"])
@pytest.mark.parametrize("trans", ["N", "T"])
@pytest.mark.parametrize("n", [5, 40, 130])
def test_trtrs_exceptional_matches_substitution(n, trans, case):
    from repro.lapack77 import trtrs
    t, b = _exceptional(n, case)
    x = b.copy()
    with np.errstate(all="ignore"):
        assert trtrs(t, x, uplo="U", trans=trans) == 0
        ref = _sweep_solve(t, b, trans)
    np.testing.assert_array_equal(np.isnan(x), np.isnan(ref))
    np.testing.assert_array_equal(np.isinf(x), np.isinf(ref))
    fin = np.isfinite(ref)
    np.testing.assert_allclose(x[fin], ref[fin], rtol=1e-10, atol=0)


# Info codes and value classes of la_trtrs on these inputs; identical
# under every nonfinite mode because la_trtrs screens nothing.
_EXPECTED = {
    "inf_diagonal": (0, "finite"),
    "nan_in_a": (0, "nan"),
    "nan_in_b": (0, "nan"),
    "tiny_pivot": (0, "finite"),
}


def _value_class(x):
    if np.isnan(x).any():
        return "nan"
    return "finite" if np.isfinite(x).all() else "inf"


@pytest.mark.parametrize("mode", ["check", "warn", "propagate"])
@pytest.mark.parametrize("case", sorted(_EXPECTED))
@pytest.mark.parametrize("n", [5, 40])
def test_la_trtrs_exceptional_info_class(n, case, mode):
    import warnings
    from repro import Info, exception_policy, la_trtrs
    t, b = _exceptional(n, case)
    info = Info()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with exception_policy(nonfinite=mode):
            la_trtrs(t, b, uplo="U", info=info)
    assert (int(info), _value_class(b)) == _EXPECTED[case]
