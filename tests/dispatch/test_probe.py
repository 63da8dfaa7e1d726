"""Structure probing: exact (bitwise) classification, adversarial
near-misses, and the stacked variant.

The probe is deliberately exact — ``np.array_equal(a, a.T)``, never a
tolerance — because the front door promises bit-identity with the
routed driver: a matrix that is within eps of symmetric but not equal
to its transpose would give ``la_sysv`` a *different* answer than
``la_gesv``, so it must route as general.
"""

import importlib

import numpy as np

from repro.dispatch_front.probe import (Structure, bandwidths, probe,
                                        probe_stack)


def _rng(seed=0):
    return np.random.default_rng(seed)


def test_bandwidths():
    a = np.zeros((5, 5))
    a[np.diag_indices(5)] = 1.0
    assert bandwidths(a) == (0, 0)
    a[2, 0] = 1.0
    a[0, 1] = 1.0
    assert bandwidths(a) == (2, 1)


def test_diagonal_and_triangular():
    d = np.diag(np.arange(1.0, 5.0))
    assert probe(d).label == "diagonal"
    up = np.triu(_rng().standard_normal((6, 6))) + 6 * np.eye(6)
    st = probe(up)
    assert (st.label, st.uplo) == ("triangular", "U")
    lo = np.tril(_rng(1).standard_normal((6, 6))) + 6 * np.eye(6)
    st = probe(lo)
    assert (st.label, st.uplo) == ("triangular", "L")


def test_tridiagonal_and_banded():
    n = 12
    g = _rng(2).standard_normal((n, n))
    tri = np.triu(np.tril(g, 1), -1) + n * np.eye(n)
    assert probe(tri).label == "tridiagonal"
    band = np.triu(np.tril(g, 2), -3) + n * np.eye(n)
    st = probe(band)
    assert st.label == "banded"
    assert (st.kl, st.ku) == (3, 2)


def test_spd_retains_the_trial_factor():
    g = _rng(3).standard_normal((7, 7))
    a = g @ g.T + 7 * np.eye(7)
    a = (a + a.T) / 2
    st = probe(a)
    assert st.label == "spd"
    assert st.symmetric and st.hermitian
    assert st.cholesky is not None
    assert st.cholesky.shape == a.shape
    assert st.probe_cost > 0.0


def test_hpd_versus_complex_symmetric():
    g = _rng(4).standard_normal((6, 6)) \
        + 1j * _rng(5).standard_normal((6, 6))
    m = g @ g.conj().T
    hpd = (m + m.conj().T) / 2 + 6 * np.eye(6)
    st = probe(hpd)
    assert st.label == "hpd"
    assert st.hermitian and not st.symmetric
    csym = g + g.T          # complex symmetric, not Hermitian
    np.fill_diagonal(csym, csym.diagonal() + 6)
    assert probe(csym).label == "symmetric"


def test_indefinite_symmetric_is_not_spd():
    g = _rng(6).standard_normal((8, 8))
    a = g + g.T
    np.fill_diagonal(a, a.diagonal() - 50.0)    # negative definite
    st = probe(a)
    assert st.label == "symmetric"
    assert st.cholesky is None


def test_near_miss_almost_symmetric_routes_general():
    g = _rng(7).standard_normal((8, 8))
    a = g + g.T + 8 * np.eye(8)
    a[0, 7] += 1e-12            # within eps of symmetric — still general
    assert probe(a).label == "general"


def test_near_miss_bandwidth_n_minus_1_is_not_banded():
    n = 8
    a = np.eye(n)
    a[n - 1, 0] = 1.0           # kl = n-1
    a[0, n - 1] = 2.0           # ku = n-1, and not symmetric
    st = probe(a)
    assert st.label == "general"
    assert (st.kl, st.ku) == (n - 1, n - 1)


def test_non_square_probes_general():
    assert probe(np.ones((3, 5))).label == "general"
    assert probe(np.ones(4)).label == "general"


def test_structure_label_is_validated():
    try:
        Structure("banded-ish")
    except ValueError as exc:
        assert "banded-ish" in str(exc)
    else:
        raise AssertionError("bogus label accepted")


def test_probe_stack_classifies_uniform_stacks():
    g = _rng(8).standard_normal((3, 5, 5))
    sym = g + g.transpose(0, 2, 1) - 10 * np.eye(5)   # indefinite
    st = probe_stack(sym)
    assert st.label == "symmetric"
    spd = np.einsum("kij,klj->kil", g, g) + 5 * np.eye(5)
    spd = (spd + spd.transpose(0, 2, 1)) / 2
    assert probe_stack(spd).label == "spd"
    assert probe_stack(g).label == "general"
    assert probe_stack(np.ones((2, 3, 5))).label == "general"


# -- the O(1) corner exits reach the full-sweep verdict ---------------

def _verdict(st):
    return (st.label, st.kl, st.ku, st.uplo, st.symmetric, st.hermitian)


def _exactness_cases():
    """The cases above, plus the inputs the corner exits must not get
    wrong: tiny orders, zero and NaN corners, conjugate corner pairs
    and near-miss symmetry."""
    g = _rng(20).standard_normal((6, 6))
    c = g + 1j * _rng(21).standard_normal((6, 6))
    cases = {}
    for n in range(4):
        cases[f"order {n}"] = g[:n, :n] + n * np.eye(n)
        cases[f"order {n}, spd"] = g[:n, :n] @ g[:n, :n].T + np.eye(n)
    cases.update({
        "diagonal": np.diag(np.arange(1.0, 5.0)),
        "upper": np.triu(g) + 6 * np.eye(6),
        "lower": np.tril(g) + 6 * np.eye(6),
        "tridiagonal": np.triu(np.tril(g, 1), -1) + 6 * np.eye(6),
        "banded": np.triu(np.tril(_rng(2).standard_normal((12, 12)), 2),
                          -3) + 12 * np.eye(12),
        "spd": g @ g.T + 6 * np.eye(6),
        "symmetric": g + g.T,
        "general": g,
        "hpd": (c @ c.conj().T + (c @ c.conj().T).conj().T) / 2
        + 6 * np.eye(6),
        "complex symmetric": c + c.T,
        "complex general": c,
    })
    zero = g + g.T
    zero[0, -1] = zero[-1, 0] = 0.0
    cases["zero corners, symmetric"] = zero
    one_zero = g.copy()
    one_zero[-1, 0] = 0.0
    cases["one zero corner"] = one_zero
    for name, (lo, hi) in {"NaN corners": (np.nan, np.nan),
                           "NaN lower corner": (np.nan, 1.0)}.items():
        nan = g + g.T
        nan[-1, 0], nan[0, -1] = lo, hi
        cases[name] = nan
    herm = c + c.conj().T          # corner pair conjugate, not equal
    cases["hermitian, conjugate corners"] = herm
    real_corners = herm.copy()
    real_corners[0, -1] = real_corners[-1, 0] = 2.0
    cases["hermitian, real corners"] = real_corners
    bad_diag = herm.copy()
    bad_diag[2, 2] += 1j           # corners agree, diagonal not real
    cases["hermitian corners, complex diagonal"] = bad_diag
    near = g + g.T + 6 * np.eye(6)
    near[0, 5] += 1e-12            # near miss at the corner
    cases["near-miss at the corner"] = near
    inner = g + g.T + 6 * np.eye(6)
    inner[1, 3] += 1e-12           # near miss the corners cannot see
    cases["near-miss inside"] = inner
    return cases


def test_corner_exits_reach_the_full_sweep_verdict(monkeypatch):
    probe_mod = importlib.import_module("repro.dispatch_front.probe")
    cases = _exactness_cases()
    fast = {name: _verdict(probe(a)) for name, a in cases.items()}
    monkeypatch.setattr(probe_mod, "_CORNER_MIN_N", 10**9)
    full = {name: _verdict(probe(a)) for name, a in cases.items()}
    assert fast == full
    assert full["hpd"][0] == "hpd"
    assert full["hermitian, conjugate corners"][0] == "hermitian"
    assert full["near-miss at the corner"][0] == "general"
    assert full["near-miss inside"][0] == "general"
