"""Seeded operation streams for the benchmark workloads.

A workload is an endless sequence of *rounds*.  Every round holds the
same fixed multiset of operations, shuffled by the seed, so a run that
stops after any whole number of rounds has the same operation mix as
any other run.  Everything a run feeds the library -- the order of the
operations, their operands, the singular operands, the front-door edit
positions and values -- is a pure function of ``(workload, seed)``:

* ``np.random.default_rng([seed, 0, r])`` plans round ``r``;
* ``np.random.default_rng([seed, 1, slot])`` builds working-set operand
  ``slot`` (front-door workloads);
* ``np.random.default_rng([seed, 2, index])`` builds the fresh operands
  of operation ``index``.

Operands are only materialised when an operation runs, so a round of
large operands never sits in memory at once.  The library sees nothing
but the generated float64 arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Workload", "Op", "WORKLOADS", "rounds", "operands",
           "working_set", "apply_edit"]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: the backend, the per-round operation
    multiset and, for the front door, the working set."""

    name: str
    backend: str
    #: ``(kind, n, structure, batch, count)`` per round.
    mix: tuple
    #: Front-door workloads: operands in the working set, half of them
    #: SPD (0 = fresh operands for every call).
    working_set: int = 0
    #: Steps per round that edit one symmetric pair in place first.
    writes: int = 0
    #: Whether a write step drops the structure-cache entry of the
    #: edited operand (the documented remedy for in-place updates).
    invalidate: bool = True
    #: Share of ``la_gesv`` operands that are exactly singular.
    singular_share: float = 0.0
    #: Traced operations per round and stratum (0 = trace every one).
    trace_per_stratum: int = 0


_SMALL_MIX = tuple(
    row for n in (8, 32) for row in (
        ("la_gesv", n, "general", 0, 8),
        ("la_posv", n, "spd", 0, 4),
        ("la_sysv", n, "symmetric", 0, 4),
        ("solve", n, "general", 0, 1),
        ("solve", n, "spd", 0, 1),
        ("solve", n, "tridiagonal", 0, 1),
        ("solve", n, "triangular", 0, 1),
        ("batch_gesv", n, "general", 1, 2),
        ("batch_gesv", n, "general", 16, 1),
    ))

# Counts give each driver about a quarter of a round's wall time on the
# reference backend at n=256 (syev with vectors ~1.3 s, sysv ~90 ms,
# gesv ~22 ms, posv ~11 ms on a 2-core x86-64 container); they are fixed
# from here on so that a later change shows up as a change in time.
_LARGE_MIX = (
    ("la_gesv", 256, "general", 0, 58),
    ("la_posv", 256, "spd", 0, 115),
    ("la_sysv", 256, "symmetric", 0, 14),
    ("la_syev", 256, "symmetric", 0, 1),
)

# The front door's working set: 50 steps per round, 5 of them writes.
_FRONT_MIX = (("solve", 128, "working-set", 0, 50),)

WORKLOADS = {
    w.name: w for w in (
        # Why each workload exists: BENCHMARK.json and README.md.
        Workload("small-accel", "accelerated", _SMALL_MIX,
                 singular_share=0.02),
        Workload("large-reference", "reference", _LARGE_MIX,
                 trace_per_stratum=2),
        Workload("front-door-reuse", "accelerated", _FRONT_MIX,
                 working_set=32, writes=5, invalidate=True),
        # Not gated: the same stream without the cache invalidation
        # after each in-place edit, so stale structure-cache answers
        # show as failed operations.
        Workload("front-door-edit", "accelerated", _FRONT_MIX,
                 working_set=32, writes=5, invalidate=False),
    )
}


@dataclass
class Op:
    """One public call of the stream (its operands come from
    :func:`operands`)."""

    index: int
    kind: str
    n: int
    structure: str
    batch: int = 0
    singular: bool = False
    slot: int = -1
    #: ``(i, j, delta)``: add ``delta`` to ``A[i, j]`` and ``A[j, i]``.
    edit: tuple | None = None
    seed: int = 0

    @property
    def stratum(self) -> tuple:
        """Operations with the same stratum cost the same: the trace
        samples and reports per stratum."""
        return (self.kind, self.n, self.structure, self.batch,
                self.singular, self.edit is not None)


def rounds(workload: Workload, seed: int):
    """Yield the rounds of ``workload`` for ``seed``, forever."""
    index = 0
    r = 0
    while True:
        rng = np.random.default_rng([seed, 0, r])
        plan = [(kind, n, structure, batch)
                for kind, n, structure, batch, count in workload.mix
                for _ in range(count)]
        order = rng.permutation(len(plan))
        writes = set()
        if workload.writes:
            writes = set(rng.choice(len(plan), workload.writes,
                                    replace=False).tolist())
        ops = []
        for pos, k in enumerate(order):
            kind, n, structure, batch = plan[k]
            op = Op(index, kind, n, structure, batch, seed=seed)
            if kind == "la_gesv":
                op.singular = bool(rng.random() < workload.singular_share)
            if workload.working_set:
                op.slot = int(rng.integers(workload.working_set))
                op.structure = ("spd" if op.slot < workload.working_set // 2
                                else "general")
                if pos in writes:
                    i = int(rng.integers(n))
                    j = int(rng.integers(n - 1))
                    j += j >= i
                    op.edit = (i, j, float(rng.uniform(-1e-2, 1e-2)))
            ops.append(op)
            index += 1
        yield ops
        r += 1


def _matrix(rng, n, structure):
    g = rng.standard_normal((n, n))
    if structure == "general":
        return g
    if structure == "spd":
        return g @ g.T / n + np.eye(n)
    if structure == "symmetric":
        return (g + g.T) / 2
    if structure == "tridiagonal":
        return np.triu(np.tril(g, 1), -1)
    if structure == "triangular":
        return np.triu(g, 1) / np.sqrt(n) + np.diag(1 + np.abs(np.diag(g)))
    raise ValueError(f"unknown structure {structure!r}")


def working_set(workload: Workload, seed: int, n: int = 128) -> list:
    """The front-door operands: the first half SPD, the rest general."""
    half = workload.working_set // 2
    return [_matrix(np.random.default_rng([seed, 1, slot]), n,
                    "spd" if slot < half else "general")
            for slot in range(workload.working_set)]


def operands(op: Op, ws: list | None = None):
    """``(a, b)`` for ``op``: fresh arrays, or the live working-set
    operand (not a copy) with a fresh right-hand side."""
    rng = np.random.default_rng([op.seed, 2, op.index])
    if op.slot >= 0:
        return ws[op.slot], rng.standard_normal(op.n)
    if op.batch:
        a = rng.standard_normal((op.batch, op.n, op.n))
        return a, rng.standard_normal((op.batch, op.n))
    a = _matrix(rng, op.n, op.structure)
    if op.singular:
        a[:, int(rng.integers(op.n))] = 0.0
    return a, rng.standard_normal(op.n)


def apply_edit(a: np.ndarray, edit: tuple) -> None:
    """Add the edit's value to one symmetric pair of ``a`` in place."""
    i, j, delta = edit
    a[i, j] += delta
    a[j, i] += delta
