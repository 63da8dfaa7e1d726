"""The accelerated adapters' transactional contract.

Every adapter must raise only before its first write to any operand:
the resilience seam calls them without an up-front snapshot and hands a
failure to the retry ladder with the operands as the caller passed
them.  Here each adapter's typed SciPy wrapper is made to raise — after
the real call for a scalar adapter, on the last slice for a ``*_stack``
adapter — and every ndarray operand must come back bit-identical.
"""

import numpy as np
import pytest

from repro import backends
from repro.backends import accelerated

if "accelerated" not in backends.available_backends():
    pytest.skip("SciPy (accelerated backend) not available",
                allow_module_level=True)

from scipy.linalg import lapack  # noqa: E402


class _Boom(RuntimeError):
    pass


def _general(rng, n, dtype=np.float64):
    return np.asarray(rng.standard_normal((n, n)) + n * np.eye(n),
                      dtype=dtype)


def _spd(rng, n, dtype=np.float64):
    g = rng.standard_normal((n, n))
    if np.dtype(dtype).kind == "c":
        g = g + 1j * rng.standard_normal((n, n))
    return np.asarray(g @ g.conj().T + n * np.eye(n), dtype=dtype)


def _rhs(rng, *shape):
    return rng.standard_normal(shape)


def _cases(rng):
    """``routine -> (args, kwargs, batch)``; ``batch`` is the number of
    SciPy calls the adapter makes (the last one raises)."""
    n, nrhs, batch = 4, 2, 3
    lu, piv, _ = lapack.dgetrf(_general(rng, n))
    chol, _ = lapack.dpotrf(_spd(rng, n))
    sym = _general(rng, n)
    band = np.zeros((4, n))                 # kl = ku = 1: 2*kl+ku+1 rows
    band[1:] = rng.standard_normal((3, n)) + np.array([[0], [4], [0]])
    spd_band = np.vstack([rng.standard_normal(n) * 0.1,
                          np.full(n, 4.0)])     # upper, kd = 1
    return {
        "gesv": ((_general(rng, n), _rhs(rng, n, nrhs)), {}, 1),
        "gesv_stack": ((np.stack([_general(rng, n) for _ in range(batch)]),
                        _rhs(rng, batch, n, nrhs)), {}, batch),
        "getrf": ((_general(rng, n),), {}, 1),
        "getrs": ((lu, piv, _rhs(rng, n, nrhs)), {}, 1),
        "posv": ((_spd(rng, n), _rhs(rng, n, nrhs)), {"uplo": "L"}, 1),
        "posv_stack": ((np.stack([_spd(rng, n) for _ in range(batch)]),
                        _rhs(rng, batch, n)), {}, batch),
        "trtrs": ((np.triu(_general(rng, n)), _rhs(rng, n, nrhs)), {}, 1),
        "potrf": ((_spd(rng, n),), {}, 1),
        "potrs": ((chol, _rhs(rng, n, nrhs)), {}, 1),
        "sysv": ((sym + sym.T, _rhs(rng, n, nrhs)), {}, 1),
        "hesv": ((_spd(rng, n, np.complex128),
                  _rhs(rng, n, nrhs).astype(np.complex128)), {}, 1),
        "gtsv": ((rng.standard_normal(n - 1), np.full(n, 4.0),
                  rng.standard_normal(n - 1), _rhs(rng, n, nrhs)), {}, 1),
        "ptsv": ((np.full(n, 4.0), rng.standard_normal(n - 1) * 0.1,
                  _rhs(rng, n, nrhs)), {}, 1),
        "gbsv": ((band, 1, 1, _rhs(rng, n, nrhs)), {}, 1),
        "pbsv": ((spd_band, _rhs(rng, n, nrhs)), {}, 1),
        "syev": ((sym + sym.T,), {"jobz": "V"}, 1),
        "heev": ((_spd(rng, n, np.complex128),), {"jobz": "V"}, 1),
        "gesvd": ((rng.standard_normal((5, n)),),
                  {"jobu": "S", "jobvt": "S",
                   "superdiag": rng.standard_normal(n - 1)}, 1),
        "gels": ((rng.standard_normal((5, 3)), _rhs(rng, 5, nrhs)), {}, 1),
        "gels_stack": ((rng.standard_normal((batch, 5, 3)),
                        _rhs(rng, batch, 5, nrhs)), {}, batch),
    }


ADAPTERS = {fn.__name__: fn for fn in accelerated._ADAPTERS}


def test_every_adapter_is_declared_and_covered():
    assert set(_cases(np.random.default_rng(0))) == set(ADAPTERS)
    assert all(fn.transactional is True for fn in ADAPTERS.values())


@pytest.mark.parametrize("routine", sorted(ADAPTERS))
def test_a_failed_call_leaves_every_operand_untouched(routine,
                                                      monkeypatch):
    args, kwargs, calls = _cases(np.random.default_rng(11))[routine]
    operands = [v for v in list(args) + list(kwargs.values())
                if isinstance(v, np.ndarray)]
    before = [v.copy() for v in operands]
    real_flavor = accelerated._flavor
    made = []

    def failing_flavor(name, dtype):
        real = real_flavor(name, dtype)

        def typed(*a, **k):
            out = real(*a, **k)
            made.append(name)
            if len(made) == calls:
                raise _Boom(name)
            return out
        return typed

    monkeypatch.setattr(accelerated, "_flavor", failing_flavor)
    with pytest.raises(_Boom):
        ADAPTERS[routine](*args, **kwargs)
    for got, want in zip(operands, before):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
