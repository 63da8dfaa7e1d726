"""Unit contract of the dispatch seam helpers lalint verifies against.

``snapshot_set`` is the runtime half of LA019: the exact operand set
the retry machinery can roll back.  ``exempt_kernels`` is the runtime
half of the LA019 exemption: spec-declared ``breaker_exempt`` kernels.
"""

import numpy as np

from repro.resilience import dispatch
from repro.specs import SPECS


def test_snapshot_set_is_every_ndarray_in_call_order():
    a = np.zeros((2, 2))
    b = np.ones(2)
    c = np.arange(3)
    got = dispatch.snapshot_set((a, 3, b), {"x": "N", "work": c})
    assert [arr is which for arr, which in zip(got, (a, b, c))] \
        == [True, True, True]
    assert len(got) == 3


def test_snapshot_set_of_arrayless_calls_is_empty():
    assert dispatch.snapshot_set((1, "N", None), {"tol": 0.5}) == []


def test_snapshot_restores_through_the_set():
    a = np.arange(4.0)
    saved = dispatch._snapshot((a,), {})
    a[...] = -1.0
    dispatch._restore(saved)
    assert np.allclose(a, np.arange(4.0))
    # The snapshot is a copy, not a view of the live array.
    (pair,) = saved
    assert pair[1] is not a and pair[1].base is not a


def test_exempt_kernels_mirror_the_spec_flags():
    exempt = dispatch.exempt_kernels()
    want = {spec.kernel for spec in SPECS.values()
            if spec.breaker_exempt and spec.kernel is not None}
    assert exempt == frozenset(want)
    assert "lagge" in exempt and "gesv" not in exempt
