"""XB5 — what the front door costs, and what the Cholesky memo buys.

Three measurements on ``la_gesv``-sized traffic (N = 384), flushed to
``BENCH_dispatch.json`` by the conftest session hook:

* **repeat dispatch overhead** — ``repro.solve`` on a repeated general
  operand vs calling the routed driver directly.  General verdicts are
  not remembered, so every call pays one memo miss, the probe (whose
  O(1) corner exits settle a dense general operand) and one walk of
  the spec-derived routing table; the acceptance gate pins it under 5%
  of the direct call.
* **probe cost** — the classification a general operand pays on each
  call.
* **SPD-traffic win** — repeated ``solve`` against the same, unchanged
  SPD operand passes the memo's exact check and goes straight to
  ``potrs`` with the remembered trial-Cholesky factor, skipping the
  O(n³/3) refactorization ``la_posv`` pays on every direct call.

All timings are measured directly (best of R rounds) so the gates hold
under ``--benchmark-disable``.
"""

import time
import warnings

import numpy as np

from repro import backends, la_gesv, la_posv, solve
from repro.dispatch_front import cache
from repro.dispatch_front.probe import probe

from .conftest import record_dispatch

N = 384
ROUNDS = 7


def _best_of(fn, rounds=ROUNDS):
    times = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def _general_system(n=N, seed=7):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + n * np.eye(n)
    b = a @ rng.standard_normal(n)
    return a, b


def _spd_system(n=N, seed=8):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n))
    a = g @ g.T + n * np.eye(n)
    a = (a + a.T) / 2
    b = a @ rng.standard_normal(n)
    return a, b


def test_cached_dispatch_overhead_under_5_percent():
    """The acceptance gate: with the structure already cached, the front
    door adds < 5% to a direct ``la_gesv`` call on N=384 traffic."""
    a, b = _general_system()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cache.clear()
        solve(a, b)                       # probe once: warm the cache
        t_front = _best_of(lambda: solve(a, b))
        t_direct = _best_of(lambda: la_gesv(a.copy(), b.copy()))
    overhead = t_front / t_direct - 1.0
    record_dispatch("cached_gesv", {
        "n": N,
        "backend": backends.get_backend_name(),
        "direct_min_s": t_direct,
        "front_door_min_s": t_front,
        "overhead_ratio": overhead,
        "gate": "overhead_ratio < 0.05",
    })
    assert overhead < 0.05, (
        f"cached dispatch costs {overhead:.1%} over direct la_gesv "
        f"({t_front * 1e3:.3f} ms vs {t_direct * 1e3:.3f} ms)")


def test_cold_probe_cost_is_recorded():
    """The one-time classification cost for a first-seen operand —
    bounded loosely (well under one solve), recorded precisely."""
    a, b = _general_system(seed=9)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        t_probe = _best_of(lambda: probe(a))
        t_direct = _best_of(lambda: la_gesv(a.copy(), b.copy()))
    record_dispatch("cold_probe", {
        "n": N,
        "probe_min_s": t_probe,
        "direct_gesv_min_s": t_direct,
        "probe_vs_solve": t_probe / t_direct,
    })
    assert t_probe < t_direct, (
        f"probing ({t_probe * 1e3:.3f} ms) costs more than the solve "
        f"it routes ({t_direct * 1e3:.3f} ms)")


def test_spd_traffic_win_from_cached_factor():
    """Repeat solves against one SPD operand skip the refactorization:
    the cached-potrs route must beat direct ``la_posv``."""
    a, b = _spd_system()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cache.clear()
        solve(a, b)                       # probe + retain the factor
        t_front = _best_of(lambda: solve(a, b))
        t_direct = _best_of(lambda: la_posv(a.copy(), b.copy(),
                                            uplo="U"))
    win = t_direct / t_front
    record_dispatch("spd_cached_reuse", {
        "n": N,
        "backend": backends.get_backend_name(),
        "direct_posv_min_s": t_direct,
        "front_door_min_s": t_front,
        "speedup": win,
        "gate": "speedup > 1.0",
    })
    assert win > 1.0, (
        f"cached-factor SPD route is {win:.2f}x direct la_posv "
        f"({t_front * 1e3:.3f} ms vs {t_direct * 1e3:.3f} ms)")
