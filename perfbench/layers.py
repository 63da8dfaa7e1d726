"""The traced run: per-layer metrics from outside-in span trees
(:mod:`tracing`), accumulated per stratum of the operation stream.

Layer times are mean self time per call of the workload.  Strata are
traced in full or, on ``large-reference``, for the first
``trace_per_stratum`` calls of each round; every stratum's mean is
weighted by how many of its calls ran, so the layer means still add up
to the mean traced call (``trace.call_us``).

A layer that no call of the workload goes through is measured on the
workload's operands instead (the front door on ``large-reference``,
``batch_gesv`` where the mix has none), and reported as off path.
"""

from __future__ import annotations

import time
import tracemalloc

import numpy as np

import ops
import tracing
from checks import check

__all__ = ["TracedRun", "LAYER_SPANS"]

#: Per-layer time metrics and the span name whose self time they sum;
#: together they account for the traced call.
LAYER_SPANS = {
    "specs.validate_us": "specs.validate",
    "specs.route_us": "specs.route",
    "core.guard_us": "core.guard",
    "core.report_us": "core.report",
    "backends.resolve_us": "backends.resolve",
    "backends.adapter_us": "backends.adapter",
    "resilience.seam_us": "resilience.seam",
    "kernel.raw_us": "kernel.raw",
    "dispatch_front.probe_us": "dispatch_front.probe",
    "trace.remainder_us": "remainder",
}

#: Span trees written out: those of the first this many traced calls.
SPAN_DUMP_CALLS = 200

_COUNTS = ("blas.level2_calls", "blas.level3_calls", "lapack77.python_calls")
_OFF_PATH = "off path: measured on this workload's operands"


class _Stratum:
    """Sums over one stratum: calls run and traced, the traced calls'
    self times and snapshot bytes, and the profile-hook counts of the
    calls traced in the first round (those repeat exactly per seed)."""

    def __init__(self):
        self.ran = 0
        self.traced = 0
        self.self_s = {}
        self.snapshot = 0
        self.counted = 0
        self.counts = dict.fromkeys(_COUNTS, 0)


def _seconds(fn, *args, **kwargs):
    start = time.perf_counter()
    fn(*args, **kwargs)
    return time.perf_counter() - start


def _gesv_seconds(repro, a, b):
    """``la_gesv`` on copies of ``a``/``b``."""
    return _seconds(repro.la_gesv, a.copy(), b.copy(), info=repro.Info())


def _alloc_bytes(repro, op, a, b):
    """tracemalloc peak of ``repro.solve`` minus that of the driver it
    routes to, on the same operands.  A front-door operand is passed
    itself (the cache knows it by identity); any other is copied and
    its cache entry dropped afterwards."""
    target = a if op.kind == "solve" else a.copy()
    info = repro.Info()
    bc = b.copy()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        repro.solve(target, bc, info=info)
        front = tracemalloc.get_traced_memory()[1] - base
        driver = getattr(repro, info.chosen_driver)
        if info.chosen_driver == "la_gtsv":
            args = (np.diagonal(a, -1).copy(), np.diagonal(a).copy(),
                    np.diagonal(a, 1).copy(), b.copy())
        else:
            args = (a.copy(), b.copy())
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        driver(*args, info=repro.Info())
        routed = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    if target is not a:
        ops.invalidate(repro, target)
    return front - routed


def _retried(info):
    if getattr(info, "attempts", None):
        return True
    return any(p.attempts for p in getattr(info, "problems", ()) or ())


def _mean(xs):
    return sum(xs) / len(xs) if xs else 0.0


class TracedRun:
    """Accumulates the traced loop of one workload."""

    def __init__(self, repro, workload, tally):
        self.repro = repro
        self.workload = workload
        self.tally = tally
        kinds = {row[0] for row in workload.mix}
        self.front_door = "solve" in kinds
        self.batched = "batch_gesv" in kinds
        self.strata = {}
        self.calls = 0
        self.flops = 0.0
        self.raw_s = 0.0
        self.hits = self.lookups = self.retried = 0
        self.batch_s = []           # (per-problem batch_gesv, la_gesv)
        self.alloc = []
        self.probe_s = []           # off path only
        self.route_s = []           # off path only
        self.spans = []

    def step(self, r, k, op, a, b):
        """Time ``op``, its ``k``-th call of its stratum in round ``r``,
        and trace it if that call is sampled."""
        repro = self.repro
        st = self.strata.setdefault(op.stratum, _Stratum())
        st.ran += 1
        self.calls += 1
        per = self.workload.trace_per_stratum
        sampled = per == 0 or k < per
        if sampled:
            root, counts = self._discover(op, a, b, first=k == 0)
        h0, m0 = ops.cache_counts(repro)
        dt, result = ops.timed_call(repro, op, a, b)
        h1, m1 = ops.cache_counts(repro)
        self.hits += h1 - h0
        self.lookups += (h1 - h0) + (m1 - m0)
        self.tally.add(op, check(op, a, b, result))
        if not isinstance(result, Exception) and _retried(result[2]):
            self.retried += 1
        if not sampled:
            return
        root.dur = dt
        tracing.retime(root, op.index)
        st.traced += 1
        for name, sec in tracing.self_times(root).items():
            st.self_s[name] = st.self_s.get(name, 0.0) + sec
        for span in root.walk():
            if span.name == "resilience.seam":
                st.snapshot += span.meta["snapshot_bytes"]
            elif span.name == "kernel.raw":
                self.raw_s += span.dur
                self.flops += span.meta["flops"]
        if r == 0:
            st.counted += 1
            for name in _COUNTS:
                st.counts[name] += counts[name]
        if op.batch:
            gesv = sum(_gesv_seconds(repro, a[i], b[i])
                       for i in range(op.batch))
            self.batch_s.append((dt / op.batch, gesv / op.batch))
        elif k == 0:
            self._off_path(op, a, b)
        if len(self.spans) < SPAN_DUMP_CALLS:
            self.spans.append(_span_records(op, root))

    def _discover(self, op, a, b, first):
        """Discover ``op``'s path on copies.  The front door must then
        see the cache as the timed call would: a discovery that missed
        (and so probed and stored) has its entry dropped again."""
        repro = self.repro
        pa, pb = ops.prepare(op, a, b)
        root, counts, _ = tracing.discover(
            lambda: ops.call_public(repro, op, pa, pb))
        if op.kind == "solve":
            missed = any(s.name == "dispatch_front.probe"
                         for s in root.walk())
            if missed:
                ops.invalidate(repro, a)
            if first:
                self.alloc.append(_alloc_bytes(repro, op, a, b))
                if missed:
                    ops.invalidate(repro, a)
        return root, counts

    def _off_path(self, op, a, b):
        """Samples of the layers this workload's calls skip."""
        from repro.dispatch_front.probe import probe
        from repro.specs.routing import route
        repro = self.repro
        if not self.front_door:
            start = time.perf_counter()
            label = probe(a).label
            self.probe_s.append(time.perf_counter() - start)
            self.route_s.append(tracing.time_pure(route, ("solve", label),
                                                  {}))
            self.alloc.append(_alloc_bytes(repro, op, a, b))
        if not self.batched:
            batched = _seconds(repro.batch_gesv, a[None].copy(),
                               b[None].copy(), info=repro.BatchInfo())
            self.batch_s.append((batched, _gesv_seconds(repro, a, b)))

    def _weighted(self, pick):
        """Per-call mean: each stratum's mean over its traced calls,
        weighted by how many of its calls ran."""
        acc = sum(st.ran * pick(st) / st.traced
                  for st in self.strata.values() if st.traced)
        return acc / self.calls if self.calls else 0.0

    def metrics(self, wall, plain_calls_per_s):
        """``(metrics, accounting rows, notes)``; ``wall`` is the traced
        loop's wall time."""
        calls = self.calls
        metrics, table, notes = {}, [], {}
        call_s = 0.0
        for metric, span in LAYER_SPANS.items():
            value = self._weighted(lambda st: st.self_s.get(span, 0.0))
            call_s += value
            table.append((metric, value * 1e6))
            metrics[metric] = (value * 1e6, "us", calls)
        if not self.front_door:
            metrics["dispatch_front.probe_us"] = (
                _mean(self.probe_s) * 1e6, "us", len(self.probe_s))
            metrics["specs.route_us"] = (_mean(self.route_s) * 1e6, "us",
                                         len(self.route_s))
            for name in ("dispatch_front.probe_us", "specs.route_us",
                         "dispatch_front.alloc_bytes"):
                notes[name] = _OFF_PATH
            notes["dispatch_front.cache_hit_ratio"] = \
                "n/a: no front-door calls in this workload"
        if not self.batched:
            notes["batch.per_problem_us"] = notes["batch.scalar_us"] = \
                _OFF_PATH
        if self.workload.backend == "reference":
            notes["backends.adapter_us"] = (
                "no adapter layer on reference: the difference of two "
                "timings of the same kernel")
            notes["resilience.seam_us"] = (
                "on reference the seam's few us are below the noise of "
                "timing the kernel twice")
        counted = [st for st in self.strata.values() if st.counted]
        weight = sum(st.ran for st in counted)
        for name in _COUNTS:
            value = sum(st.ran * st.counts[name] / st.counted
                        for st in counted)
            metrics[name] = (value / weight if weight else 0.0, "count",
                             weight)
        metrics.update({
            "trace.call_us": (call_s * 1e6, "us", calls),
            "resilience.snapshot_bytes": (
                self._weighted(lambda st: st.snapshot), "bytes", calls),
            "resilience.retried_calls": (self.retried, "count", calls),
            "kernel.gflops": (self.flops / self.raw_s / 1e9
                              if self.raw_s else 0.0, "GFLOP/s", calls),
            "dispatch_front.cache_hit_ratio": (
                self.hits / self.lookups if self.lookups else 0.0, "ratio",
                self.lookups),
            "dispatch_front.alloc_bytes": (_mean(self.alloc), "bytes",
                                           len(self.alloc)),
            "batch.per_problem_us": (
                _mean([p for p, _ in self.batch_s]) * 1e6, "us",
                len(self.batch_s)),
            "batch.scalar_us": (_mean([s for _, s in self.batch_s]) * 1e6,
                                "us", len(self.batch_s)),
            "trace.overhead": (calls / wall / plain_calls_per_s, "ratio",
                               calls),
        })
        return metrics, table, notes


def _span_records(op, root):
    """The span tree of one traced call as flat records (parent ids)."""
    out = []

    def emit(span, parent):
        sid = len(out)
        out.append({"op": op.index, "id": sid, "parent": parent,
                    "name": span.name if span is not root else op.kind,
                    "dur_us": span.dur * 1e6})
        for child in span.children:
            emit(child, sid)
    emit(root, None)
    return out
