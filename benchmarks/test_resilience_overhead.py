"""What the resilient dispatch seam costs when nothing is armed.

Times the dispatching kernel proxy (which runs
``resilience.dispatch.call``) against the directly-resolved kernel on
the ``la_gesv`` hot loop, with no deadline, no chaos and no tracked
breakers, on each backend: the reference kernel and the accelerated
(SciPy) adapter both take the seam's fast path.  The numbers of both
legs are flushed to ``BENCH_resilience.json`` through the conftest
session hook, keyed by backend.
"""

import time

import numpy as np
import pytest

import repro
from repro import la_gesv, use_backend

from .conftest import record_resilience


def _seam_overhead(backend):
    """Proxy vs pre-resilience seam on the n=50 ``la_gesv`` hot loop
    under ``backend``; the record written to BENCH_resilience.json."""
    rng = np.random.default_rng(7)
    n = 50
    a0 = rng.standard_normal((n, n)) + n * np.eye(n)
    b0 = rng.standard_normal((n, 1))
    n_iter = 60

    from repro.backends import kernels, resolve

    def pre_resilience_seam(*args, **kwargs):
        # Exactly what KernelProxy.__call__ did before the resilience
        # layer: dtype scan + per-call resolve + kernel invocation.
        dtype = None
        for value in args:
            if isinstance(value, np.ndarray):
                dtype = value.dtype
                break
        return resolve("gesv", dtype)(*args, **kwargs)

    def loop(fn):
        t0 = time.perf_counter()
        for _ in range(n_iter):
            fn(a0.copy(), b0.copy())
        return time.perf_counter() - t0

    def driver_loop():
        t0 = time.perf_counter()
        for _ in range(n_iter):
            la_gesv(a0.copy(), b0.copy())
        return time.perf_counter() - t0

    with use_backend(backend):
        loop(kernels.gesv)  # warm both paths
        loop(pre_resilience_seam)
        # Interleave the rounds so background load hits both paths
        # alike, and let min-of-many converge on the unloaded time.
        seam = base = float("inf")
        for _ in range(10):
            seam = min(seam, loop(kernels.gesv))
            base = min(base, loop(pre_resilience_seam))
        driver_loop()
        driver = min(driver_loop() for _ in range(3))
    overhead = (seam - base) / base if base > 0 else 0.0
    return {"n": n, "iters": n_iter, "proxy_seam_s": seam,
            "pre_resilience_seam_s": base, "driver_loop_s": driver,
            "relative_seam_overhead": overhead}


def test_resilience_overhead_on_undeadlined_hot_loop():
    """The acceptance bound: with no deadline armed, no chaos and no
    tracked breakers, the resilient seam must cost ~nothing on the
    la_gesv hot loop (target <1%).  Isolated by timing the dispatching
    kernel proxy (which now runs ``resilience.dispatch.call``) against
    the directly-resolved kernel on a size where the kernel dominates.
    The measured numbers land in BENCH_resilience.json; the assertion is
    lenient (<15%) so CI stays immune to scheduler noise."""
    out = _seam_overhead("reference")
    record_resilience({"reference": out})
    assert out["relative_seam_overhead"] < 0.15, out


@pytest.mark.skipif("accelerated" not in repro.available_backends(),
                    reason="needs SciPy (the accelerated backend)")
def test_resilience_overhead_on_accelerated_hot_loop():
    """The same bound on the accelerated backend, whose SciPy adapters
    are transactional: a clean crossing calls the adapter directly, with
    no operand snapshot and no breaker bookkeeping."""
    out = _seam_overhead("accelerated")
    record_resilience({"accelerated": out})
    assert out["relative_seam_overhead"] < 0.15, out
