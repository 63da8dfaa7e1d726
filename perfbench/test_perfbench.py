"""Self-tests of the benchmark itself (not of the library).

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import ops
import tracing
from workloads import WORKLOADS, Op, operands, rounds, working_set

ROOT = Path(__file__).resolve().parent.parent


def _digest(workload, seed, nrounds=2):
    """Hash of the first rounds of the stream: every op field the
    library's behaviour depends on, and every operand byte."""
    h = hashlib.sha256()
    ws = working_set(workload, seed) if workload.working_set else None
    it = rounds(workload, seed)
    for _ in range(nrounds):
        for op in next(it):
            h.update(repr(dataclasses.astuple(op)).encode())
            a, b = operands(op, ws)
            h.update(a.tobytes())
            h.update(b.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_stream_is_a_pure_function_of_the_seed(name):
    w = WORKLOADS[name]
    assert _digest(w, 7) == _digest(w, 7)
    assert _digest(w, 7) != _digest(w, 8)


def test_every_round_has_the_same_mix():
    w = WORKLOADS["large-reference"]
    it = rounds(w, 3)
    mixes = [sorted((op.kind, op.n) for op in next(it)) for _ in range(3)]
    assert mixes[0] == mixes[1] == mixes[2]
    assert len(mixes[0]) == sum(row[-1] for row in w.mix)


def test_front_door_writes_hit_any_offdiagonal_position():
    w = WORKLOADS["front-door-reuse"]
    it = rounds(w, 5)
    edits = [op.edit for _ in range(40) for op in next(it) if op.edit]
    assert len(edits) == 40 * w.writes
    assert all(i != j for i, j, _ in edits)
    # Spread over the whole matrix, not confined to sampled positions.
    assert len({(i, j) for i, j, _ in edits}) > 150


def _solve_op(n=16, seed=0):
    op = Op(0, "la_gesv", n, "general", seed=seed)
    a, b = operands(op)
    return op, a, b


def test_correct_solution_passes():
    op, a, b = _solve_op()
    x = np.linalg.solve(a, b)
    out = checks.check(op, a, b, (x, a, _Info(0)))
    assert not out.failed
    assert out.ratio < 1


def test_wrong_solution_counts_as_failed():
    op, a, b = _solve_op()
    x = np.linalg.solve(a, b)
    x[3] *= 1 + 1e-6
    out = checks.check(op, a, b, (x, a, _Info(0)))
    assert out.failed
    assert out.ratio > checks.THRESHOLD


def test_unexpected_info_or_exception_counts_as_failed():
    op, a, b = _solve_op()
    x = np.linalg.solve(a, b)
    assert checks.check(op, a, b, (x, a, _Info(2))).failed
    assert checks.check(op, a, b, RuntimeError("boom")).failed


def test_singular_operand_must_report_a_zero_pivot():
    op = Op(0, "la_gesv", 8, "general", singular=True, seed=1)
    a, b = operands(op)
    lu = a.copy()
    lu[4, 4] = 0.0
    assert not checks.check(op, a, b, (b, lu, _Info(5))).failed
    assert checks.check(op, a, b, (b, lu, _Info(0))).failed
    assert checks.check(op, a, b, (b, lu, _Info(2))).failed


def test_eigen_check_rejects_zero_vectors():
    rng = np.random.default_rng(0)
    g = rng.standard_normal((6, 6))
    a = g + g.T
    w, v = np.linalg.eigh(a)
    assert checks.eigen_ratio(a, w, v) < checks.THRESHOLD
    assert checks.eigen_ratio(a, w, np.zeros_like(v)) > checks.THRESHOLD


class _Info:
    def __init__(self, value):
        self.value = value


@pytest.fixture
def repro_accel():
    repro = pytest.importorskip("repro")
    previous = repro.get_backend_name()
    repro.set_backend("accelerated")
    yield repro
    repro.set_backend(previous)


def test_trace_spans_account_for_the_call(repro_accel):
    op, a, b = _solve_op()
    pa, pb = ops.prepare(op, a, b)
    root, counts, result = tracing.discover(
        lambda: ops.call_public(repro_accel, op, pa, pb))
    assert not checks.check(op, a, b, result).failed
    names = [s.name for s in root.walk()]
    for layer in ("specs.validate", "core.guard", "resilience.seam",
                  "backends.resolve", "core.report"):
        assert layer in names
    root.dur = 1e-3
    tracing.retime(root, 0)
    names = [s.name for s in root.walk()]
    assert "backends.adapter" in names and "kernel.raw" in names
    selves = tracing.self_times(root)
    assert sum(selves.values()) == pytest.approx(root.dur, rel=1e-12)
    seam = next(s for s in root.walk() if s.name == "resilience.seam")
    assert seam.meta["snapshot_bytes"] == a.nbytes + b.nbytes


def test_run_refuses_a_checkout_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small-accel",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
