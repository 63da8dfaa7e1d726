"""The accelerated fast path through the dispatch seam.

With no chaos armed and no breaker tracking, a kernel declared
``transactional`` (every accelerated adapter) is called directly: no
operand snapshot, no breaker bookkeeping.  A failure it raises enters
the retry ladder as attempt #1 already failed, so ``Info.attempts``,
``Info.breaker`` and the breaker counts must match what the ladder
reports when it runs the same failure sequence from the start.
"""

import warnings

import numpy as np
import pytest

import repro
from repro import BatchInfo, Info, use_backend
from repro.backends import accelerated
from repro.resilience import (breaker, dispatch, reset_breakers,
                              reset_open_warnings, resilience_policy)
from repro.testing import faultinject as fi

pytestmark = pytest.mark.skipif(
    "accelerated" not in repro.available_backends(),
    reason="the fast path serves the accelerated backend")


@pytest.fixture(autouse=True)
def _clean_state():
    reset_breakers()
    yield
    fi.chaos_clear()
    reset_breakers()
    reset_open_warnings()


X_TRUE = np.array([1.0, -1.0, 2.0])


def _spd():
    return np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]])


def _general():
    return np.array([[0.0, 2.0, 1.0], [3.0, 1.0, 0.0], [1.0, 0.0, 4.0]])


def _run(driver, a):
    """Solve ``a x = a @ X_TRUE`` with ``driver``; ``(x, info)``."""
    if driver == "batch_gesv":
        stack = np.stack([a, a])
        rhs = stack @ X_TRUE
        info = BatchInfo()
        repro.batch_gesv(stack, rhs, info=info)
        return rhs, info
    b = a @ X_TRUE
    info = Info()
    getattr(repro, driver)(a.copy(), b, info=info)
    return b, info


def test_clean_calls_take_no_snapshot(monkeypatch):
    def no_snapshot(args, kwargs):
        raise AssertionError("the fast path must not snapshot")

    monkeypatch.setattr(dispatch, "_snapshot", no_snapshot)
    with use_backend("accelerated"):
        for driver, a in (("la_gesv", _general()), ("la_posv", _spd()),
                          ("la_sysv", _spd()), ("batch_gesv", _general())):
            x, info = _run(driver, a)
            assert info.attempts is None, driver
            assert np.allclose(x, X_TRUE), driver
        for a in (_general(), _spd()):
            x = repro.solve(a, a @ X_TRUE)
            assert np.allclose(x, X_TRUE)


def _failing_flavors(monkeypatch, failing):
    """Make the SciPy calls numbered in ``failing`` (1-based, counted
    across every adapter) raise before running."""
    real_flavor = accelerated._flavor
    made = [0]

    def flavor(name, dtype):
        real = real_flavor(name, dtype)

        def typed(*a, **k):
            made[0] += 1
            if made[0] in failing:
                raise RuntimeError("transient SciPy failure")
            return real(*a, **k)
        return typed

    monkeypatch.setattr(accelerated, "_flavor", flavor)


def _failure_counts():
    return {key: entry["failures"]
            for key, entry in breaker._BREAKERS.items()}


def _drill(monkeypatch, driver, a, failing, calls, transactional):
    """Run ``calls`` solves with the SciPy calls in ``failing`` raising;
    the per-call telemetry and the final breaker counts."""
    reset_breakers()
    reset_open_warnings()
    kernel = {"la_gesv": "gesv", "la_posv": "posv", "la_sysv": "sysv",
              "batch_gesv": "gesv_stack"}[driver]
    monkeypatch.setattr(getattr(accelerated, kernel), "transactional",
                        transactional)
    _failing_flavors(monkeypatch, failing)
    seen = []
    with use_backend("accelerated"), \
            warnings.catch_warnings(record=True):
        warnings.simplefilter("always")
        for _ in range(calls):
            try:
                x, info = _run(driver, a)
            except RuntimeError as exc:
                seen.append(("raised", str(exc)))
                continue
            assert np.allclose(x, X_TRUE), driver
            seen.append((info.attempts, info.breaker))
    return seen, _failure_counts()


DRIVERS = [("la_gesv", _general), ("la_posv", _spd), ("la_sysv", _spd),
           ("batch_gesv", _general)]

# (retries, breaker_threshold, failing SciPy call numbers, solves)
SEQUENCES = [
    (1, 3, {1}, 2),             # absorbed by the in-rung retry
    (0, 3, {1}, 2),             # escalated to the reference rung
    (1, 3, {1, 2}, 2),          # retry fails too, then escalation
    (0, 2, {1, 2}, 3),          # two calls trip the breaker open
    (0, 1, {1}, 2),             # the very first failure trips it
]


@pytest.mark.parametrize("driver,make", DRIVERS)
@pytest.mark.parametrize("retries,threshold,failing,calls", SEQUENCES)
def test_fast_path_failure_matches_the_full_ladder(
        monkeypatch, driver, make, retries, threshold, failing, calls):
    with resilience_policy(retries=retries, breaker_threshold=threshold,
                           breaker_cooldown=60.0):
        fast = _drill(monkeypatch, driver, make(), failing, calls, True)
        ladder = _drill(monkeypatch, driver, make(), failing, calls,
                        False)
    assert fast == ladder
    assert fast[0][0][0] is not None    # the first call did fail


def test_transient_failure_reports_the_ladder_telemetry(monkeypatch):
    _failing_flavors(monkeypatch, {1})
    with resilience_policy(retries=1, breaker_threshold=3), \
            use_backend("accelerated"):
        x, info = _run("la_gesv", _general())
        assert np.allclose(x, X_TRUE)
        assert info.attempts == ("accelerated:gesv#1:error=RuntimeError",
                                 "accelerated:gesv#2")
        assert info.breaker is None
        assert _failure_counts() == {}
    _failing_flavors(monkeypatch, {1})
    with resilience_policy(retries=0, breaker_threshold=3), \
            use_backend("accelerated"):
        x, info = _run("la_gesv", _general())
        assert np.allclose(x, X_TRUE)
        assert info.attempts == ("accelerated:gesv#1:error=RuntimeError",
                                 "reference:gesv#2")
        assert _failure_counts() == {("accelerated", "gesv"): 1}
