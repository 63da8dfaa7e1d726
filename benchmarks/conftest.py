"""Shared benchmark fixtures and workload builders."""

import json
import pathlib

import numpy as np
import pytest

# (routine, backend) -> timing record, filled by the backend sweep in
# test_vs_reference.py and flushed to BENCH_backends.json at session end
# so the reference-vs-accelerated perf trajectory accumulates over time.
BACKEND_RECORDS = {}

# (routine, backend, batch, mode) -> throughput record, filled by
# test_batch_throughput.py and flushed to BENCH_batch.json: solves/sec
# of the derived batch_* wrapper vs looping the scalar driver.
BATCH_RECORDS = {}

# measurement name -> record, filled by test_dispatch_overhead.py and
# flushed to BENCH_dispatch.json: the front door's repeat-dispatch
# overhead vs the direct driver call, the probe cost, and the
# SPD-traffic win from reusing a remembered Cholesky factor.
DISPATCH_RECORDS = {}

# backend -> the resilient seam's cost on the undeadlined la_gesv hot
# loop, filled by test_resilience_overhead.py and flushed to
# BENCH_resilience.json.
RESILIENCE_RECORD = {}


def record_backend_timing(routine, backend, n, stats):
    BACKEND_RECORDS[(routine, backend)] = {
        "routine": routine,
        "backend": backend,
        "n": n,
        "min_s": stats.min,
        "mean_s": stats.mean,
        "stddev_s": stats.stddev,
        "rounds": stats.rounds,
    }


def record_batch_timing(routine, backend, batch, n, mode, stats):
    BATCH_RECORDS[(routine, backend, batch, mode)] = {
        "routine": routine,
        "backend": backend,
        "batch": batch,
        "n": n,
        "mode": mode,
        "min_s": stats.min,
        "mean_s": stats.mean,
        "solves_per_s": batch / stats.min,
        "rounds": stats.rounds,
    }


def _write_backends_report(root):
    rows = [BACKEND_RECORDS[k] for k in sorted(BACKEND_RECORDS)]
    ratios = {}
    for row in rows:
        if row["backend"] != "accelerated":
            continue
        ref = BACKEND_RECORDS.get((row["routine"], "reference"))
        if ref:
            ratios[row["routine"]] = ref["min_s"] / row["min_s"]
    out = {
        "experiment": "XB3-backends",
        "description": "LA_* driver wall time under each registered "
                       "backend (min over rounds); speedup = "
                       "reference/accelerated",
        "results": rows,
        "speedup_accelerated": ratios,
    }
    (root / "BENCH_backends.json").write_text(
        json.dumps(out, indent=2, sort_keys=True) + "\n")


def _write_batch_report(root):
    rows = [BATCH_RECORDS[k] for k in sorted(BATCH_RECORDS)]
    speedups = {}
    for (routine, backend, batch, mode) in sorted(BATCH_RECORDS):
        if mode != "batched":
            continue
        looped = BATCH_RECORDS.get((routine, backend, batch, "looped"))
        if looped:
            batched = BATCH_RECORDS[(routine, backend, batch, "batched")]
            speedups.setdefault(backend, {})[str(batch)] = (
                batched["solves_per_s"] / looped["solves_per_s"])
    out = {
        "experiment": "XB4-batch",
        "description": "Throughput (solves/sec, min-time round) of the "
                       "derived batch_* wrappers over a problem stack "
                       "vs looping the scalar LA_* driver; speedup = "
                       "batched/looped per (backend, batch)",
        "results": rows,
        "speedup_batched": speedups,
    }
    (root / "BENCH_batch.json").write_text(
        json.dumps(out, indent=2, sort_keys=True) + "\n")


def record_dispatch(name, record):
    DISPATCH_RECORDS[name] = record


def _write_dispatch_report(root):
    out = {
        "experiment": "XB5-dispatch",
        "description": "Front-door auto-dispatch cost: repro.solve on "
                       "a repeated general operand vs calling the "
                       "routed driver directly (gate: < 5% overhead on "
                       "la_gesv-sized traffic), the probe cost, and "
                       "the SPD-traffic win from reusing the "
                       "remembered trial-Cholesky factor",
        "results": {k: DISPATCH_RECORDS[k]
                    for k in sorted(DISPATCH_RECORDS)},
    }
    (root / "BENCH_dispatch.json").write_text(
        json.dumps(out, indent=2, sort_keys=True) + "\n")


def record_resilience(record):
    RESILIENCE_RECORD.update(record)


def _write_resilience_report(root):
    (root / "BENCH_resilience.json").write_text(
        json.dumps(RESILIENCE_RECORD, indent=2, sort_keys=True) + "\n")


def pytest_sessionfinish(session, exitstatus):
    root = pathlib.Path(__file__).resolve().parents[1]
    if BACKEND_RECORDS:
        _write_backends_report(root)
    if BATCH_RECORDS:
        _write_batch_report(root)
    if DISPATCH_RECORDS:
        _write_dispatch_report(root)
    if RESILIENCE_RECORD:
        _write_resilience_report(root)


@pytest.fixture
def rng():
    return np.random.default_rng(19980328)


def fig3_system(n=500, nrhs=2, dtype=np.float32, seed=1):
    """The paper Fig. 3 workload: random A, B built so X(:, j) = j."""
    rng = np.random.default_rng(seed)
    a = rng.random((n, n)).astype(dtype)
    b = np.column_stack([a.sum(axis=1) * j
                         for j in range(1, nrhs + 1)]).astype(dtype)
    return a, b


def poisson1d(n):
    return (np.diag(np.full(n, 2.0)) + np.diag(np.full(n - 1, -1.0), 1)
            + np.diag(np.full(n - 1, -1.0), -1))
