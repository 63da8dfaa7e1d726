"""One measurement in a fresh interpreter (started by ``run.py``).

``worker.py setup --workload W --seed S``
    Import ``repro``, select the workload's backend and complete the
    first call of each operation kind; prints the set-up time.

``worker.py run --workload W --seed S --seconds T --trace 0|1``
    ``--trace 0``: the closed loop of public calls with tracing off,
    each call's inputs also sent straight to the raw kernel just before
    or just after it (alternately); prints the end-to-end metrics.
    ``--trace 1``: an untraced loop and then a traced loop over the
    same operations; prints the per-layer metrics (:mod:`layers`).

One calling thread, closed loop: the next call starts when the previous
one returned.  The cyclic garbage collector is paused inside a round and
run between rounds, so a collection never lands inside a timed call.
Stdout's last line is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time

import numpy as np

import ops
from checks import Outcome, check
from layers import TracedRun
from speed import Speedometer, slowdown
from workloads import WORKLOADS, apply_edit, operands, rounds, working_set

#: Share of a traced run's time spent on its untraced loop.
UNTRACED_SHARE = 0.4


def _env(repro):
    """The machine and library facts a result depends on."""
    import scipy

    def blas(mod):
        try:
            dep = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{dep.get('name')} {dep.get('version')}"
        except (AttributeError, KeyError, TypeError) as exc:
            return f"unknown ({type(exc).__name__})"
    threads = None
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    threads = int(line.split()[1])
    except OSError:
        pass
    pins = {k: os.environ.get(k) for k in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    usable = len(os.sched_getaffinity(0)) \
        if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": usable,
        "process_threads": threads,
        "blas_thread_pins": pins,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numpy_blas": blas(np),
        "scipy": scipy.__version__,
        "scipy_blas": blas(scipy),
        "repro": getattr(repro, "__version__", "?"),
    }


class Stream:
    """The workload's operations with their operands, in order, as the
    caller sees them: edits applied (and, where the workload says so,
    the edited operand's cache entry dropped) before the call.  A
    front-door stream starts from a fresh working set, every operand
    probed once (the cache's steady state)."""

    def __init__(self, repro, workload, seed):
        self.repro = repro
        self.workload = workload
        self.seed = seed
        self.ws = None
        if workload.working_set:
            self.ws = working_set(workload, seed)
            ops.invalidate(repro)
            for a in self.ws:
                repro.solve(a, np.ones(a.shape[0]))

    def rounds(self):
        return enumerate(rounds(self.workload, self.seed))

    def operands(self, op):
        a, b = operands(op, self.ws)
        if op.edit is not None:
            apply_edit(a, op.edit)
            if self.workload.invalidate:
                ops.invalidate(self.repro, a)
        return a, b


def _rounds_for(stream, seconds):
    """Whole rounds until ``seconds`` of wall time have passed."""
    start = time.perf_counter()
    gc.collect()
    gc.disable()
    try:
        for r, round_ops in stream.rounds():
            yield r, round_ops
            gc.enable()
            gc.collect()
            gc.disable()
            if time.perf_counter() - start >= seconds:
                return
    finally:
        gc.enable()


def _warm(repro, workload, seed):
    """One call of each stratum, untimed: lazy initialisation and
    first-call costs stay out of the timed loop (``setup_s`` has them)."""
    stream = Stream(repro, workload, seed)
    seen = set()
    _, round0 = next(stream.rounds())
    for op in round0:
        if op.stratum not in seen:
            seen.add(op.stratum)
            ops.timed_call(repro, op, *stream.operands(op))


class Tally:
    """Attempted/failed counts and the residual ratios of a loop."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.ratios = {}            # stratum -> residual ratios
        self.reasons = []

    def add(self, op, outcome: Outcome):
        self.attempted += 1
        if outcome.ratio == outcome.ratio:      # not nan
            self.ratios.setdefault(op.stratum, []).append(outcome.ratio)
        if outcome.failed:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"op {op.index} {op.kind} n={op.n} "
                                    f"{op.structure}: {outcome.reason}")


def run_plain(repro, workload, seed, seconds, raw):
    """The untraced closed loop; with ``raw`` each call's inputs are
    also timed straight through the raw kernel.  Calibration chunks run
    between calls (see :mod:`speed`)."""
    stream = Stream(repro, workload, seed)
    meter = Speedometer()
    tally = Tally()
    lat, raw_lat = [], []
    start = time.perf_counter()
    for _, round_ops in _rounds_for(stream, seconds):
        for op in round_ops:
            a, b = stream.operands(op)
            raw_first = raw and op.index % 2 == 1
            if raw_first:
                raw_lat.append(_raw_time(workload, op, a, b))
            dt, result = ops.timed_call(repro, op, a, b)
            lat.append(dt)
            meter.tick(len(lat))
            if raw and not raw_first:
                raw_lat.append(_raw_time(workload, op, a, b))
                meter.tick(len(lat))
            tally.add(op, check(op, a, b, result))
    return lat, raw_lat, tally, meter, time.perf_counter() - start


def _raw_time(workload, op, a, b):
    args = ops.raw_args(op, a, b)
    start = time.perf_counter()
    ops.raw_call(workload.backend, op, args)
    return time.perf_counter() - start


def _latency_metrics(lat, suffix=""):
    n = len(lat)
    p90 = statistics.quantiles(lat, n=10)[8]
    return {
        "calls_per_s" + suffix: (n / sum(lat), "1/s", n),
        "latency_p50_us" + suffix: (statistics.median(lat) * 1e6, "us", n),
        "latency_p90_us" + suffix: (p90 * 1e6, "us", n),
    }, n - sum(x <= p90 for x in lat)


def end_to_end(repro, workload, seed, seconds):
    """The gated metrics, call times normalised to nominal machine
    speed (:mod:`speed`); the wall-clock figures ride along with a
    ``_wall`` suffix."""
    lat, raw_lat, tally, meter, _ = run_plain(repro, workload, seed,
                                              seconds, raw=True)
    norm = (np.asarray(lat) / meter.factors(len(lat))).tolist()
    metrics, beyond = _latency_metrics(norm)
    wall, _ = _latency_metrics(lat, "_wall")
    metrics.update(wall)
    ratios = tally.ratios.values()
    checked = sum(len(r) for r in ratios)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics.update({
        "overhead_ratio": (sum(lat) / sum(raw_lat), "ratio", len(lat)),
        "residual_ratio_p99": (max(float(np.percentile(r, 99))
                                   for r in ratios), "ratio", checked),
        "residual_ratio_max": (max(max(r) for r in ratios), "ratio",
                               checked),
        "failed_share": (tally.failed / tally.attempted, "fraction",
                         tally.attempted),
        "peak_rss_mb": (peak, "MB", 1),
        "slowdown": (meter.overall(), "x", len(meter.samples)),
    })
    return metrics, tally, {"beyond_p90": beyond}


def traced(repro, workload, seed, seconds):
    """The untraced loop, then the traced loop over the same operations
    (:class:`layers.TracedRun`)."""
    plain_lat, _, _, _, plain_wall = run_plain(
        repro, workload, seed, seconds * UNTRACED_SHARE, raw=False)
    stream = Stream(repro, workload, seed)
    tally = Tally()
    run = TracedRun(repro, workload, tally)
    start = time.perf_counter()
    for r, round_ops in _rounds_for(stream, seconds * (1 - UNTRACED_SHARE)):
        seen = {}
        for op in round_ops:
            k = seen.get(op.stratum, 0)
            seen[op.stratum] = k + 1
            run.step(r, k, op, *stream.operands(op))
    wall = time.perf_counter() - start
    metrics, table, notes = run.metrics(wall, len(plain_lat) / plain_wall)
    return metrics, table, notes, tally, run.spans


def setup(name, seed):
    """Seconds from a bare interpreter (NumPy and the inputs ready) to
    the first completed call of each operation kind of ``name``:
    ``(normalised to nominal machine speed, wall)``."""
    workload = WORKLOADS[name]
    firsts = {}
    for op in next(rounds(workload, seed)):
        firsts.setdefault(op.kind, op)
    ws = working_set(workload, seed) if workload.working_set else None
    inputs = [(op,) + operands(op, ws) for op in firsts.values()]
    start = time.perf_counter()
    import repro
    repro.set_backend(workload.backend)
    for op, a, b in inputs:
        ops.call_public(repro, op, *ops.prepare(op, a, b))
    wall = time.perf_counter() - start
    # Calibrated after the set-up: the calibration imports SciPy, which
    # importing repro does too.
    return wall / slowdown(0.1), wall


def _write_spans(name, seed, spans):
    out_dir = os.path.join(".bench_build", "perfbench")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{name}-{seed}.jsonl")
    with open(path, "w") as fh:
        for records in spans:
            for rec in records:
                fh.write(json.dumps(rec) + "\n")
    return path


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("mode", choices=("setup", "run"))
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.mode == "setup":
        norm, wall = setup(args.workload, args.seed)
        print(json.dumps({"setup_s": norm, "setup_wall_s": wall}))
        return 0
    import repro
    workload = WORKLOADS[args.workload]
    repro.set_backend(workload.backend)
    _warm(repro, workload, args.seed)
    out = {"workload": workload.name, "backend": workload.backend}
    if args.trace:
        metrics, table, notes, tally, spans = traced(
            repro, workload, args.seed, args.seconds)
        out["accounting"] = table
        out["notes"] = notes
        out["spans_file"] = _write_spans(workload.name, args.seed, spans)
    else:
        metrics, tally, extra = end_to_end(repro, workload, args.seed,
                                           args.seconds)
        out.update(extra)
    out["metrics"] = {k: {"value": v, "unit": u, "n": n}
                      for k, (v, u, n) in metrics.items()}
    out.update(attempted=tally.attempted, failed=tally.failed,
               failures=tally.reasons, env=_env(repro))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
