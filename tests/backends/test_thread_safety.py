"""Concurrency stress for the process-global configuration state.

The runtime companion of LA023's guarded-state contract: backend selection, the exception
policy and the block-size table are all guarded by one shared
re-entrant lock (:data:`repro._sync.STATE_LOCK`), so N threads flipping
the knobs while other threads solve never observe a torn update or
corrupt the tables permanently.
"""

import threading
import warnings

import numpy as np
import pytest

from repro import _sync, backends, config, policy
from repro import exception_policy, la_gesv, set_policy, solve, use_backend
from repro.dispatch_front import cache
from repro.errors import Info
from repro.resilience import (breaker, breaker_state, breaker_states,
                              get_resilience, reset_breakers,
                              reset_open_warnings, resilience_policy,
                              set_resilience)
from repro.resilience.ratelimit import RateLimiter
from repro.testing import faultinject as fi

N_THREADS = 8
N_ITER = 60


@pytest.fixture(autouse=True)
def _restore_state():
    backend = backends.get_backend_name()
    pol = policy.get_policy()
    before = (pol.nonfinite, pol.rcond_guard, pol.fallbacks)
    nb = config.get_block_size("getrf")
    res = get_resilience()
    res_before = (res.retries, res.breaker_threshold,
                  res.breaker_cooldown, res.warning_window)
    yield
    backends.set_backend(backend)
    set_policy(nonfinite=before[0], rcond_guard=before[1],
               fallbacks=before[2])
    config.set_block_size("getrf", nb)
    set_resilience(retries=res_before[0], breaker_threshold=res_before[1],
                   breaker_cooldown=res_before[2],
                   warning_window=res_before[3])
    fi.chaos_clear()
    reset_breakers()
    reset_open_warnings()


def _system(n=8, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    a += n * np.eye(n)
    b = a.sum(axis=1)
    return a, b


def test_state_lock_is_shared_and_reentrant():
    # One lock guards all three owners, and it must be an RLock: the
    # context managers restore through the setters while holding it.
    assert isinstance(_sync.STATE_LOCK, type(threading.RLock()))
    with _sync.STATE_LOCK:
        with _sync.STATE_LOCK:      # re-entry must not deadlock
            backends.set_backend(backends.get_backend_name())
            set_policy(fallbacks=False)


def test_threads_flipping_state_while_drivers_solve():
    errors = []
    start = threading.Barrier(N_THREADS)

    def solver(seed):
        start.wait()
        a, b = _system(seed=seed)
        for _ in range(N_ITER):
            info = Info()
            x = la_gesv(a.copy(), b.copy(), info=info)
            if info.value != 0:
                errors.append(f"solver info={info.value}")
                return
            if not np.allclose(a @ x, b, atol=1e-8):
                errors.append("solver residual blew up")
                return

    def backend_flipper():
        start.wait()
        for i in range(N_ITER):
            name = "accelerated" if i % 2 else "reference"
            try:
                with use_backend(name):
                    got = backends.get_backend_name()
                    if got not in ("reference", "accelerated"):
                        errors.append(f"torn backend read: {got!r}")
                        return
            except Exception as exc:          # noqa: BLE001
                errors.append(f"backend flip raised: {exc!r}")
                return

    def policy_flipper():
        start.wait()
        for i in range(N_ITER):
            mode = "check" if i % 2 else "propagate"
            try:
                with exception_policy(nonfinite=mode):
                    got = policy.get_policy().nonfinite
                    if got not in ("check", "warn", "propagate"):
                        errors.append(f"torn policy read: {got!r}")
                        return
            except Exception as exc:          # noqa: BLE001
                errors.append(f"policy flip raised: {exc!r}")
                return

    def block_flipper():
        start.wait()
        for i in range(N_ITER):
            try:
                with config.block_size_override("getrf", 8 + (i % 4)):
                    nb = config.get_block_size("getrf")
                    if nb < 1:
                        errors.append(f"torn block size: {nb}")
                        return
            except Exception as exc:          # noqa: BLE001
                errors.append(f"block flip raised: {exc!r}")
                return

    workers = [threading.Thread(target=solver, args=(s,))
               for s in range(N_THREADS - 3)]
    workers += [threading.Thread(target=backend_flipper),
                threading.Thread(target=policy_flipper),
                threading.Thread(target=block_flipper)]
    for t in workers:
        t.start()
    for t in workers:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in workers), "stress test hung"
    assert errors == []


def test_context_managers_restore_under_contention():
    # Scoped overrides of *distinct* knobs from concurrent threads must
    # leave the defaults exactly as they found them once every thread
    # exits.  (Two threads scoping the same knob is inherently
    # last-restore-wins — the lock makes each transition atomic, not
    # the nesting commutative.)
    backends.set_backend("reference")
    set_policy(nonfinite="propagate", rcond_guard="silent",
               fallbacks=False)
    config.set_block_size("getrf", 64)
    start = threading.Barrier(3)

    def churn_backend():
        start.wait()
        for j in range(N_ITER):
            with use_backend("accelerated" if j % 2 else "reference"):
                backends.get_backend_name()

    def churn_policy():
        start.wait()
        for _ in range(N_ITER):
            with exception_policy(nonfinite="warn", fallbacks=True):
                policy.get_policy()

    def churn_blocks():
        start.wait()
        for j in range(N_ITER):
            with config.block_size_override("getrf", 8 + (j % 4)):
                config.get_block_size("getrf")

    threads = [threading.Thread(target=f)
               for f in (churn_backend, churn_policy, churn_blocks)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert backends.get_backend_name() == "reference"
    pol = policy.get_policy()
    assert (pol.nonfinite, pol.rcond_guard, pol.fallbacks) \
        == ("propagate", "silent", False)
    assert config.get_block_size("getrf") == 64


def test_breaker_trips_and_resets_under_contention():
    # Solver threads hammer a permanently-failing accelerated pair —
    # tripping its breaker — while other threads reset and read the
    # registry concurrently.  Every solve must still come back correct
    # (escalation or open-route), and no reader may observe a state
    # outside the three-value machine.
    if "accelerated" not in backends.available_backends():
        pytest.skip("breaker contention needs a second backend")
    errors = []
    start = threading.Barrier(N_THREADS)

    def failing_solver(seed):
        start.wait()
        a, b = _system(seed=seed)
        for _ in range(N_ITER):
            info = Info()
            x = la_gesv(a.copy(), b.copy(), info=info,
                        backend="accelerated")
            if info.value != 0:
                errors.append(f"solver info={info.value}")
                return
            if not np.allclose(a @ x, b, atol=1e-8):
                errors.append("solver residual blew up")
                return

    def resetter():
        start.wait()
        for _ in range(N_ITER):
            try:
                reset_breakers()
            except Exception as exc:          # noqa: BLE001
                errors.append(f"reset raised: {exc!r}")
                return

    def reader():
        start.wait()
        for _ in range(N_ITER):
            st = breaker_state("accelerated", "gesv")
            if st not in ("closed", "open", "half-open"):
                errors.append(f"torn breaker state: {st!r}")
                return
            for state in breaker_states().values():
                if state not in ("open", "half-open"):
                    errors.append(f"torn registry entry: {state!r}")
                    return

    with resilience_policy(retries=0, breaker_threshold=2,
                           breaker_cooldown=30.0):
        # Every accelerated attempt fails; escalation keeps answers
        # correct while failures accumulate toward (and past) the trip.
        fi.chaos_install("gesv", flaky_every=1, backend="accelerated")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            workers = [threading.Thread(target=failing_solver, args=(s,))
                       for s in range(N_THREADS - 3)]
            workers += [threading.Thread(target=resetter),
                        threading.Thread(target=resetter),
                        threading.Thread(target=reader)]
            for t in workers:
                t.start()
            for t in workers:
                t.join(timeout=120)
    assert not any(t.is_alive() for t in workers), "stress test hung"
    assert errors == []
    # Once quiet and reset, the registry drains and tracking disarms.
    fi.chaos_clear()
    reset_breakers()
    assert breaker_states() == {}
    assert not breaker.TRACKING


def test_resilience_policy_restores_under_contention():
    # Same contract as the config/policy churn above: concurrent scoped
    # overrides of *distinct* resilience knobs must leave the globals
    # exactly as they found them.
    set_resilience(retries=1, breaker_threshold=3,
                   breaker_cooldown=30.0, warning_window=60.0)
    start = threading.Barrier(3)

    def churn_retries():
        start.wait()
        for j in range(N_ITER):
            with resilience_policy(retries=j % 4):
                get_resilience()

    def churn_threshold():
        start.wait()
        for j in range(N_ITER):
            with resilience_policy(breaker_threshold=2 + (j % 5)):
                get_resilience()

    def churn_windows():
        start.wait()
        for j in range(N_ITER):
            with resilience_policy(breaker_cooldown=float(j % 7),
                                   warning_window=float(j % 3)):
                get_resilience()

    threads = [threading.Thread(target=f)
               for f in (churn_retries, churn_threshold, churn_windows)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    res = get_resilience()
    assert (res.retries, res.breaker_threshold, res.breaker_cooldown,
            res.warning_window) == (1, 3, 30.0, 60.0)


def test_structure_cache_survives_probe_insert_invalidate_races():
    # The front door's Cholesky memo (LA023's largest guarded surface)
    # under fire: solver threads probe/hit/store the same operands,
    # invalidators drop entries wholesale, and backend flippers make
    # every remembered factor's backend stale — all while every solve
    # must stay correct and every stats() snapshot internally
    # consistent.
    errors = []
    start = threading.Barrier(N_THREADS)
    rng = np.random.default_rng(7)
    spd = rng.standard_normal((8, 8))
    spd = spd @ spd.T + 8 * np.eye(8)
    gen, rhs = _system(seed=3)
    cache.clear()
    cache.reset_stats()

    def solver(seed):
        start.wait()
        b = spd.sum(axis=1)
        for i in range(N_ITER):
            info = Info()
            a = spd if i % 2 else gen
            bb = b if i % 2 else rhs
            x = solve(a, bb, info=info)
            if info.value != 0:
                errors.append(f"solve info={info.value}")
                return
            if not np.allclose(a @ x, bb, atol=1e-8):
                errors.append("front-door residual blew up")
                return

    def invalidator():
        start.wait()
        for i in range(N_ITER):
            try:
                if i % 3 == 0:
                    cache.clear()
                elif i % 3 == 1:
                    cache.invalidate(spd)
                else:
                    cache.invalidate(gen)
            except Exception as exc:          # noqa: BLE001
                errors.append(f"invalidate raised: {exc!r}")
                return

    def backend_flipper():
        start.wait()
        for i in range(N_ITER):
            try:
                with use_backend("accelerated" if i % 2 else "reference"):
                    pass
            except Exception as exc:          # noqa: BLE001
                errors.append(f"backend flip raised: {exc!r}")
                return

    def stats_reader():
        start.wait()
        for _ in range(N_ITER):
            st = cache.stats()
            if st["entries"] < 0 or st["entries"] > cache.MAX_ENTRIES:
                errors.append(f"entry count out of range: {st}")
                return
            if min(st["hits"], st["misses"], st["invalidated"]) < 0:
                errors.append(f"negative counter: {st}")
                return

    workers = [threading.Thread(target=solver, args=(s,))
               for s in range(N_THREADS - 3)]
    workers += [threading.Thread(target=invalidator),
                threading.Thread(target=backend_flipper),
                threading.Thread(target=stats_reader)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=120)
    assert not any(t.is_alive() for t in workers), "cache stress hung"
    assert errors == []
    # Quiesced: one more solve repopulates and the counters still add up.
    x = solve(spd, spd.sum(axis=1))
    assert np.allclose(spd @ x, spd.sum(axis=1), atol=1e-8)
    assert cache.stats()["entries"] >= 1
    cache.clear()


def test_fallback_warning_windows_under_concurrent_resets():
    # The fallback-warning rate limiter (LA023's ``RateLimiter._seen``
    # attribute guard) with solver threads ticking the same window key
    # while other threads reopen it.  With a frozen clock a key can only
    # emit on its first tick or on the tick right after a reset, so
    # total emissions are bounded by total successful resets + 1.
    limiter = RateLimiter(window=60.0, clock=lambda: 0.0)
    emits = []
    resets = []
    start = threading.Barrier(6)

    def ticker():
        start.wait()
        count = 0
        for _ in range(N_ITER * 5):
            emit, suppressed = limiter.tick(("accelerated", "gesv"))
            if suppressed < 0:
                emits.append(-10**9)  # poison: impossible accounting
                return
            if emit:
                count += 1
        emits.append(count)

    def resetter():
        start.wait()
        count = 0
        for _ in range(N_ITER):
            count += limiter.reset()
        resets.append(count)

    threads = [threading.Thread(target=ticker) for _ in range(4)]
    threads += [threading.Thread(target=resetter),
                threading.Thread(target=resetter)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads), "limiter stress hung"
    assert len(emits) == 4 and min(emits) >= 0
    assert sum(emits) <= sum(resets) + 1


def test_fallback_warnings_stay_windowed_during_breaker_churn():
    # End-to-end: accelerated gesv fails every call, so every solve
    # escalates through the fallback seam and ticks the live warning
    # window, while a thread keeps calling reset_open_warnings() —
    # exactly the probe/insert/reset interleaving LA023 polices on
    # ``_seen``.  Nothing may raise, and every answer must be right.
    if "accelerated" not in backends.available_backends():
        pytest.skip("fallback windows need a second backend")
    errors = []
    start = threading.Barrier(4)

    def solver(seed):
        start.wait()
        a, b = _system(seed=seed)
        for _ in range(N_ITER):
            info = Info()
            x = la_gesv(a.copy(), b.copy(), info=info,
                        backend="accelerated")
            if info.value != 0:
                errors.append(f"solver info={info.value}")
                return
            if not np.allclose(a @ x, b, atol=1e-8):
                errors.append("fallback residual blew up")
                return

    def window_resetter():
        start.wait()
        for _ in range(N_ITER):
            try:
                reset_open_warnings()
            except Exception as exc:          # noqa: BLE001
                errors.append(f"window reset raised: {exc!r}")
                return

    with resilience_policy(retries=0, breaker_threshold=10**9,
                           warning_window=0.0):
        fi.chaos_install("gesv", flaky_every=1, backend="accelerated")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            workers = [threading.Thread(target=solver, args=(s,))
                       for s in range(3)]
            workers += [threading.Thread(target=window_resetter)]
            for t in workers:
                t.start()
            for t in workers:
                t.join(timeout=120)
    assert not any(t.is_alive() for t in workers), "window stress hung"
    assert errors == []
