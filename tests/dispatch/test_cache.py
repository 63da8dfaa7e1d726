"""The front door's Cholesky memo: probe-once semantics for unchanged
SPD operands, exact re-probing after any in-place edit, lifetime tied
to the operand, FIFO bounding, and per-entry backends (a factor computed
by one substrate must never be reused under another)."""

import gc

import numpy as np
import pytest

import repro
from repro import (backends, invalidate_structure_cache, la_posv, solve,
                   structure_cache_stats)
from repro.dispatch_front import cache
from repro.dispatch_front.probe import probe
from repro.errors import Info


@pytest.fixture(autouse=True)
def _fresh_cache():
    cache.clear()
    cache.reset_stats()
    yield
    cache.clear()


def _spd(n, seed=0):
    g = np.random.default_rng(seed).standard_normal((n, n))
    a = g @ g.T + n * np.eye(n)
    return (a + a.T) / 2


def _routed_on_fresh_copy(a, b):
    """What the routed driver returns for ``a`` seen for the first time:
    the front door's plan for a fresh copy, run as a direct call."""
    fresh = a.copy()
    plan = solve(fresh, b, explain=True)
    bw = b.copy()
    getattr(repro, plan.chosen_driver)(fresh, bw)
    return plan, bw


def _other_backend():
    names = backends.available_backends()
    if len(names) < 2:
        pytest.skip("only one backend registered")
    return [n for n in names if n != backends.get_backend_name()][0]


def test_repeat_solve_probes_once():
    a = _spd(6)
    b = a @ np.arange(1.0, 7.0)
    solve(a, b)
    solve(a, b)
    stats = structure_cache_stats()
    assert stats["misses"] == 1
    assert stats["hits"] == 1
    assert stats["entries"] == 1


def test_cache_hit_reports_zero_probe_cost():
    a = _spd(5, seed=1)
    b = a @ np.ones(5)
    first, second = Info(), Info()
    solve(a, b, info=first)
    solve(a, b, info=second)
    assert first.probe_cost > 0.0
    assert second.probe_cost == 0.0
    assert first.structure == second.structure == "spd"


def test_mutation_is_detected_and_reclassified():
    a = _spd(4, seed=2)
    b = a @ np.ones(4)
    solve(a, b)
    assert structure_cache_stats()["entries"] == 1
    a[0, 1] += 1.0                # break symmetry in place
    assert cache.lookup(a) is None    # exact check misses, entry dropped
    assert structure_cache_stats()["invalidated"] >= 1
    info = Info()
    solve(a, a @ np.ones(4), info=info)
    assert info.chosen_driver == "la_gesv"


def test_spd_pair_edit_is_never_served_a_stale_factor():
    # Regression: one symmetric off-diagonal pair edited in place, far
    # from any sparse sample of the operand, then the same array solved
    # again.  A stale trial-Cholesky factor returned a wrong answer
    # (relative residual ~1e-3) without raising or warning.
    n = 64
    a = _spd(n, seed=11)
    b = a @ np.random.default_rng(12).standard_normal(n)
    solve(a, b)
    a[5, 9] += 3.0
    a[9, 5] += 3.0
    info = Info()
    x = solve(a, b, info=info)
    plan, want = _routed_on_fresh_copy(a, b)
    np.testing.assert_array_equal(x, want)
    assert plan.chosen_driver == info.chosen_driver == "la_posv"
    assert info.probe_cost > 0.0


def test_triangular_made_general_is_rerouted():
    # Regression: an upper-triangular operand given one nonzero below
    # the diagonal in place kept its stale ``triangular`` route and was
    # solved by la_trtrs reading only the upper triangle.
    n = 64
    rng = np.random.default_rng(13)
    a = np.triu(rng.standard_normal((n, n))) + n * np.eye(n)
    b = a @ rng.standard_normal(n)
    first = Info()
    solve(a, b, info=first)
    assert first.chosen_driver == "la_trtrs"
    a[40, 3] = 1.0
    info = Info()
    x = solve(a, b, info=info)
    plan, want = _routed_on_fresh_copy(a, b)
    np.testing.assert_array_equal(x, want)
    assert plan.chosen_driver == info.chosen_driver == "la_gesv"
    assert structure_cache_stats()["entries"] == 0    # nothing to reuse


def test_entry_dies_with_its_operand():
    a = _spd(8, seed=14)
    solve(a, a @ np.ones(8))
    assert structure_cache_stats()["entries"] == 1
    del a
    gc.collect()
    assert structure_cache_stats()["entries"] == 0


def test_store_is_fifo_bounded():
    keep = []                     # held alive: entries die with operands
    for k in range(cache.MAX_ENTRIES + 8):
        a = _spd(3, seed=k)
        keep.append(a)
        cache.store(a, probe(a))
    assert structure_cache_stats()["entries"] == cache.MAX_ENTRIES
    # The oldest entries were evicted, the newest survive.
    assert cache.lookup(keep[0]) is None
    assert cache.lookup(keep[-1]) is not None


def test_invalidate_one_array_and_all():
    a, b = _spd(3, seed=3), _spd(3, seed=4)
    cache.store(a, probe(a))
    cache.store(b, probe(b))
    assert invalidate_structure_cache(a) == 1
    assert structure_cache_stats()["entries"] == 1
    assert invalidate_structure_cache() == 1
    assert structure_cache_stats()["entries"] == 0


def _posv(a, b):
    bw = b.copy()
    la_posv(a.copy(), bw, uplo="U")
    return bw


def test_backend_switch_never_reuses_the_departed_factor():
    other = _other_backend()
    a = _spd(64, seed=5)
    b = a @ np.ones(64)
    solve(a, b)                   # factor computed by the current backend
    previous = backends.set_backend(other)
    try:
        info = Info()
        x = solve(a, b, info=info)
        assert info.probe_cost > 0.0          # re-probed under `other`
        np.testing.assert_array_equal(x, _posv(a, b))
    finally:
        backends.set_backend(previous)
    info = Info()
    x = solve(a, b, info=info)
    assert info.probe_cost > 0.0              # and again on the way back
    np.testing.assert_array_equal(x, _posv(a, b))


def test_use_backend_round_trip_also_invalidates():
    other = _other_backend()
    a = _spd(64, seed=6)
    b = a @ np.ones(64)
    solve(a, b)
    with backends.use_backend(other):
        info = Info()
        x = solve(a, b, info=info)
        assert info.probe_cost > 0.0
        np.testing.assert_array_equal(x, _posv(a, b))
    # The factor remembered inside the block is not reused after it.
    info = Info()
    x = solve(a, b, info=info)
    assert info.probe_cost > 0.0
    np.testing.assert_array_equal(x, _posv(a, b))
