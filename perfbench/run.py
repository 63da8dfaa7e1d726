#!/usr/bin/env python3
"""Run one benchmark workload against the library in ``src/`` and print
every metric by name, with its unit and sample count, then the
correctness verdict, then one JSON line.

    python3 perfbench/run.py --workload small-accel --seed 1 \\
        --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` prints its per-layer metrics and the table showing how
the layers account for the traced per-call time.  Workloads and metric
definitions: ``perfbench/README.md``.

Each measurement runs in a fresh interpreter with BLAS pinned to one
thread; ``setup_s`` is the median of several fresh interpreters.  The
command exits non-zero, printing no result, when the library source or
``BENCHMARK.json`` is missing or a measurement fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_RUNS = 3
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
BLAS_THREADS = 1


class BenchError(Exception):
    pass


def _child_env():
    env = dict(os.environ)
    for key in ("REPRO_BACKEND", "REPRO_CHAOS"):
        env.pop(key, None)
    for key in THREAD_PINS:
        env[key] = str(min(BLAS_THREADS, os.cpu_count() or 1))
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker(argv, timeout):
    """Run ``worker.py`` in a fresh interpreter; its last stdout line."""
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER)] + argv, cwd=ROOT,
            env=_child_env(), capture_output=True, text=True,
            timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {argv[0]} timed out after {timeout}s") \
            from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker {argv[0]} failed (exit "
                         f"{proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def _print_env(env):
    print(f"machine: {env['machine']}, {env['cpu_count']} cores "
          f"({env['cpus_usable']} usable); BLAS threads pinned to "
          f"{BLAS_THREADS} ({env['blas_thread_pins']}); worker process "
          f"threads: {env['process_threads']}")
    print(f"versions: python {env['python']}, numpy {env['numpy']} "
          f"({env['numpy_blas']}), scipy {env['scipy']} "
          f"({env['scipy_blas']}), repro {env['repro']}")


def _print_metrics(metrics, names, notes):
    width = max(len(n) for n in names)
    for name in names:
        m = metrics[name]
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<{width}}  {_fmt(m['value']):>14} {m['unit']:<8}"
              f" n={m['n']}{note}")


def _print_accounting(rows, total_us):
    print("layer accounting, mean self time per traced call "
          "(layers + kernel.raw + remainder = traced call):")
    for name, us in rows:
        share = us / total_us * 100 if total_us else 0.0
        print(f"  {name:<26} {us:>12.3f} us {share:6.1f}%")
    print(f"  {'= trace.call_us':<26} {total_us:>12.3f} us  100.0%")


def main(argv=None):
    p = argparse.ArgumentParser(
        description="Run one perfbench workload and print its metrics.")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no library source at src/repro", file=sys.stderr)
        return 2
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"perfbench: cannot read BENCHMARK.json: {exc}",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(sorted(WORKLOADS))}", file=sys.stderr)
        return 2
    group = "per_layer" if args.trace else "end_to_end"
    names = [m["name"] for m in bench[group]]

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_RUNS):
                setups.append(_worker(["setup"] + common, 60))
        out = _worker(["run"] + common + ["--seconds", str(args.seconds),
                                          "--trace", str(args.trace)],
                      3 * args.seconds + 60)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    metrics = out["metrics"]
    for key in ("setup_s", "setup_wall_s") if setups else ():
        metrics[key] = {"value": statistics.median(s[key] for s in setups),
                        "unit": "s", "n": len(setups)}
    missing = [n for n in names if n not in metrics]
    if missing:
        print(f"perfbench: worker did not report {missing}",
              file=sys.stderr)
        return 1

    print(f"perfbench {args.workload} (backend {out['backend']}), seed "
          f"{args.seed}, {args.seconds}s, trace {args.trace}")
    _print_env(out["env"])
    shown = names + [n for n in metrics if n not in names]
    _print_metrics(metrics, shown, out.get("notes", {}))
    if args.trace:
        _print_accounting(out["accounting"],
                          metrics["trace.call_us"]["value"])
        print(f"spans of the first traced calls: {out['spans_file']}")
    else:
        print(f"  latency_p90_us has {out['beyond_p90']} samples beyond it")
    attempted, failed = out["attempted"], out["failed"]
    correct = failed == 0
    print(f"correctness: {attempted} operations, {failed} failed "
          f"(failed_share {failed / attempted:.4g}); residual ratio "
          f"threshold 10, Info codes as the driver specs promise: "
          f"{'PASS' if correct else 'FAIL'}")
    for reason in out["failures"]:
        print(f"  {reason}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": metrics[n]["value"],
                        "unit": metrics[n]["unit"]} for n in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
