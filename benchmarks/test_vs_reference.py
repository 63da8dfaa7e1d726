"""XB3 — this substrate vs the scipy/LAPACK reference.

The paper's numbers come from vendor-tuned FORTRAN; ours from pure
NumPy.  The reference must win (it is compiled LAPACK), but the blocked
Level-3 organization keeps the gap to a modest constant factor on the
matmul-dominated routines — the *shape* that transfers from the paper's
performance story.  Accuracy agreement is asserted alongside.
"""

import warnings

import numpy as np
import pytest
import scipy.linalg as sla

from repro import backends, la_gesv, la_posv, la_syev, la_sysv
from repro.lapack77 import gesvd

from .conftest import BACKEND_RECORDS, record_backend_timing

N = 200


@pytest.fixture
def workloads(rng):
    a = rng.standard_normal((N, N)) + np.eye(N) * N
    g = rng.standard_normal((N, N))
    spd = g @ g.T + np.eye(N) * N
    sym = g + g.T
    b = rng.standard_normal(N)
    return a, spd, sym, b


class TestSolve:
    def test_repro_gesv(self, benchmark, workloads):
        a, _, _, b = workloads
        benchmark(lambda: la_gesv(a.copy(), b.copy()))

    def test_scipy_solve(self, benchmark, workloads):
        a, _, _, b = workloads
        benchmark(lambda: sla.solve(a, b))

    def test_agreement(self, workloads):
        a, _, _, b = workloads
        x1 = b.copy()
        la_gesv(a.copy(), x1)
        x2 = sla.solve(a, b)
        np.testing.assert_allclose(x1, x2, atol=1e-10)


class TestCholeskySolve:
    def test_repro_posv(self, benchmark, workloads):
        _, spd, _, b = workloads
        benchmark(lambda: la_posv(spd.copy(), b.copy()))

    def test_scipy_posv(self, benchmark, workloads):
        _, spd, _, b = workloads
        benchmark(lambda: sla.solve(spd, b, assume_a="pos"))


class TestSymmetricEigen:
    def test_repro_syev(self, benchmark, workloads):
        _, _, sym, _ = workloads
        benchmark(lambda: la_syev(sym.copy()))

    def test_scipy_eigvalsh(self, benchmark, workloads):
        _, _, sym, _ = workloads
        benchmark(lambda: sla.eigvalsh(sym))

    def test_agreement(self, workloads):
        _, _, sym, _ = workloads
        w1 = la_syev(sym.copy())
        w2 = sla.eigvalsh(sym)
        np.testing.assert_allclose(w1, w2, atol=1e-8 * np.abs(sym).max())


class TestBackendSweep:
    """XB3-backends — the same LA_* drivers timed under every registered
    backend; results land in ``BENCH_backends.json`` (see conftest)."""

    DRIVERS = {
        "gesv": lambda w: la_gesv(w["a"].copy(), w["b"].copy()),
        "posv": lambda w: la_posv(w["spd"].copy(), w["b"].copy()),
        "sysv": lambda w: la_sysv(w["sym"].copy() + np.eye(N) * N,
                                  w["b"].copy()),
        "syev": lambda w: la_syev(w["sym"].copy()),
    }

    @pytest.fixture
    def named_workloads(self, workloads):
        a, spd, sym, b = workloads
        return {"a": a, "spd": spd, "sym": sym, "b": b}

    @pytest.mark.parametrize("backend", ["reference", "accelerated"])
    @pytest.mark.parametrize("routine", sorted(DRIVERS))
    def test_driver(self, benchmark, named_workloads, routine, backend):
        if backend not in backends.available_backends():
            pytest.skip("backend {!r} not registered".format(backend))
        call = self.DRIVERS[routine]
        benchmark.extra_info["backend"] = backend
        with backends.use_backend(backend):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                benchmark(call, named_workloads)
        if benchmark.stats is not None:  # absent under --benchmark-disable
            record_backend_timing(routine, backend, N,
                                  benchmark.stats.stats)

    # Reference ÷ accelerated wall time (min over rounds) at N = 200.
    # With the contiguous-block sytf2/sytd2 and the sweep-deferred,
    # row-wise steqr the gaps measured 16.9× (sysv) and 9.2× (syev,
    # jobz='N': the scalar QL recurrence), medians of six sweeps on a
    # 2-core x86_64 machine; each bound is that plus 1.5× headroom.  The
    # unvectorized kernels stood at 72× and 81×.  With trsm solving
    # through inverted diagonal blocks and one-gather laswp, gesv and
    # posv measured 17.6× and 7.3× the same way (column-sweep trsm:
    # 22-25× and 15-22×); gesv's floor is getf2's sequential panel steps.
    GAP_BOUND = {"gesv": 26.0, "posv": 11.0, "sysv": 25.0, "syev": 14.0}

    @pytest.mark.parametrize("routine", sorted(GAP_BOUND))
    def test_reference_gap(self, routine):
        ref = BACKEND_RECORDS.get((routine, "reference"))
        acc = BACKEND_RECORDS.get((routine, "accelerated"))
        if ref is None or acc is None:
            pytest.skip("needs test_driver timings of both backends")
        gap = ref["min_s"] / acc["min_s"]
        assert gap < self.GAP_BOUND[routine], (
            f"{routine}: reference is {gap:.1f}x slower than accelerated "
            f"(bound {self.GAP_BOUND[routine]}x)")


class TestSVD:
    def test_repro_gesvd(self, benchmark, workloads):
        a, *_ = workloads
        benchmark(lambda: gesvd(a.copy(), jobu="N", jobvt="N"))

    def test_scipy_svdvals(self, benchmark, workloads):
        a, *_ = workloads
        benchmark(lambda: sla.svdvals(a))

    def test_agreement(self, workloads):
        a, *_ = workloads
        s1, *_rest = gesvd(a.copy(), jobu="N", jobvt="N")
        s2 = sla.svdvals(a)
        np.testing.assert_allclose(s1, s2, atol=1e-8 * s2[0])
