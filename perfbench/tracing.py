"""Outside-in layer tracing.

No file of the library is instrumented.  For a traced operation the
benchmark

1. **discovers** the call's path: it runs the public call once on its
   own copies under ``sys.setprofile`` and records every entry into a
   layer's public function (:data:`ENTRY_POINTS`), with the arguments
   it received and the innermost enclosing layer entry as its parent;
2. **re-times** each discovered entry from outside by calling the same
   public function again on copies of the same arguments.  A seam
   crossing (``resilience.dispatch.call``) is re-timed as the
   ``backends.kernels.<routine>`` proxy, the adapter ``resolve``
   returns, and the raw kernel, nested in that order.

The result is one span tree per operation: the operation's own span
(the timed public call) at the root, one span per layer call below it.
A span's self time is its duration minus its children's; the root's
self time is the part of the call no layer accounts for.

The same profile hook counts the Python calls that enter
``repro.blas.level2``/``level3`` from outside ``repro.blas``, and all
Python calls inside ``repro.lapack77``.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time

import numpy as np

from ops import kernel_flops

__all__ = ["ENTRY_POINTS", "Span", "discover", "retime", "self_times",
           "time_pure"]

_SCIPY_PREFIX = {"f": "s", "d": "d", "F": "c", "D": "z"}


def _entry_points():
    """``{code object: (layer, function)}`` for every layer entry the
    trace follows."""
    def mod(name):
        return importlib.import_module("repro." + name)
    table = {
        (mod("specs.engine").validate_args, "specs.validate"),
        (mod("specs.engine").validate_batch, "specs.validate"),
        (mod("specs.routing").route, "specs.route"),
        (mod("dispatch_front.probe").probe, "dispatch_front.probe"),
        (mod("dispatch_front.probe").probe_stack, "dispatch_front.probe"),
        (mod("core.auxmod").driver_guard, "core.guard"),
        (mod("policy").screen_stack, "core.guard"),
        (mod("errors").erinfo, "core.report"),
        (mod("resilience.dispatch").call, "resilience.seam"),
        (mod("backends").resolve, "backends.resolve"),
    }
    return {fn.__code__: (layer, fn) for fn, layer in table}


ENTRY_POINTS: dict = {}


class Span:
    """One layer call: ``name``, its measured duration in seconds, its
    children, and what re-timing it needs."""

    __slots__ = ("name", "fn", "args", "kwargs", "children", "dur",
                 "meta")

    def __init__(self, name, fn=None, args=(), kwargs=None, meta=None):
        self.name = name
        self.fn = fn
        self.args = args
        self.kwargs = kwargs or {}
        self.children = []
        self.dur = 0.0
        self.meta = meta or {}

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()


def _freeze(value):
    """A private copy of ``value``: ndarrays copied, containers
    rebuilt, everything else shared."""
    if isinstance(value, np.ndarray):
        return value.copy()
    if isinstance(value, tuple):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, list):
        return [_freeze(v) for v in value]
    if isinstance(value, dict):
        return {k: _freeze(v) for k, v in value.items()}
    return value


_SIGNATURES: dict = {}


def _bind(fn, frame):
    """Positional and keyword arguments that re-create the call whose
    fresh frame is ``frame``."""
    params = _SIGNATURES.get(fn)
    if params is None:
        params = _SIGNATURES[fn] = list(
            inspect.signature(fn).parameters.values())
    args, kwargs = [], {}
    local = frame.f_locals
    for p in params:
        value = local[p.name]
        if p.kind is p.VAR_POSITIONAL:
            args.extend(value)
        elif p.kind is p.VAR_KEYWORD:
            kwargs.update(value)
        elif p.kind is p.KEYWORD_ONLY:
            kwargs[p.name] = value
        else:
            args.append(value)
    return _freeze(tuple(args)), _freeze(kwargs)


class _Recorder:
    """The ``sys.setprofile`` hook of one discovery call."""

    def __init__(self, root):
        self.stack = [(root, None)]
        self.blas2 = 0
        self.blas3 = 0
        self.lapack77 = 0

    def __call__(self, frame, event, arg):
        if event == "call":
            code = frame.f_code
            module = frame.f_globals.get("__name__", "")
            if module.startswith("repro.lapack77"):
                self.lapack77 += 1
            elif module in ("repro.blas.level2", "repro.blas.level3"):
                caller = frame.f_back.f_globals.get("__name__", "") \
                    if frame.f_back is not None else ""
                if not caller.startswith("repro.blas"):
                    if module.endswith("2"):
                        self.blas2 += 1
                    else:
                        self.blas3 += 1
            entry = ENTRY_POINTS.get(code)
            if entry is not None:
                layer, fn = entry
                args, kwargs = _bind(fn, frame)
                span = Span(layer, fn, args, kwargs)
                if layer == "resilience.seam":
                    _describe_crossing(span)
                self.stack[-1][0].children.append(span)
                self.stack.append((span, frame))
        elif event == "return" and frame is self.stack[-1][1]:
            self.stack.pop()


def _describe_crossing(span):
    """Record what one seam crossing did: routine, operands, whether it
    took the resilience ladder and how many bytes that snapshots."""
    from repro import faults
    from repro.backends import get_backend_name
    from repro.resilience import breaker, dispatch
    routine, dtype, args, kwargs = span.args[:4]
    backend = get_backend_name()
    ladder = (faults.CHAOS_ACTIVE or breaker.TRACKING
              or backend != "reference")
    snap = 0
    if ladder and routine not in dispatch.exempt_kernels():
        snap = sum(v.nbytes for v in dispatch.snapshot_set(args, kwargs))
    span.meta = {"routine": routine, "dtype": dtype, "backend": backend,
                 "snapshot_bytes": snap}
    span.args, span.kwargs = tuple(args), dict(kwargs)


def discover(call):
    """Run ``call()`` under the profile hook; returns ``(root span,
    counts, result)`` where ``result`` is the call's return value or
    the exception it raised."""
    if not ENTRY_POINTS:
        ENTRY_POINTS.update(_entry_points())
    root = Span("op")
    rec = _Recorder(root)
    sys.setprofile(rec)
    try:
        result = call()
    except Exception as exc:  # the caller judges the outcome
        result = exc
    finally:
        sys.setprofile(None)
    counts = {"blas.level2_calls": rec.blas2, "blas.level3_calls": rec.blas3,
              "lapack77.python_calls": rec.lapack77}
    return root, counts, result


# -- re-timing ---------------------------------------------------------

_PURE_REPS = 5


def time_pure(fn, args, kwargs, reps=_PURE_REPS):
    """Mean seconds of ``reps`` calls of a side-effect-free function
    (an exception it raises is part of what it costs)."""
    start = time.perf_counter()
    for _ in range(reps):
        try:
            fn(*args, **kwargs)
        except Exception:
            pass
    return (time.perf_counter() - start) / reps


def _time_once(fn, args, kwargs):
    """Seconds of one call on fresh copies (kernels write in place)."""
    args, kwargs = _freeze(args), _freeze(kwargs)
    start = time.perf_counter()
    try:
        fn(*args, **kwargs)
    except Exception:
        pass
    return time.perf_counter() - start


def _time_guard(fn, args, kwargs, reps=_PURE_REPS):
    """``driver_guard`` opens a call-log frame; close it outside the
    timed region so the frame stack stays balanced."""
    from repro.resilience import calllog
    total = 0.0
    for _ in range(reps):
        start = time.perf_counter()
        fn(*args, **kwargs)
        total += time.perf_counter() - start
        calllog.drain()
    return total / reps


def _raw_kernel(routine, dtype, backend):
    """The raw kernel for one crossing, or ``None`` when there is no
    mapping: the ``repro.lapack77`` function on reference, the typed
    ``scipy.linalg.lapack`` routine otherwise."""
    from repro import lapack77
    base = routine[:-len("_stack")] if routine.endswith("_stack") else routine
    ref = getattr(lapack77, base, None)
    if ref is None:
        return None
    if backend == "reference":
        fn = ref
    else:
        fn = _scipy_kernel(base, dtype)
        if fn is None:
            return None
    if base == routine:
        return fn

    def stacked(*sargs):
        a, b = sargs[:2]
        for k in range(a.shape[0]):
            fn(a[k], b[k] if b[k].ndim == 2 else b[k][:, None])
    return stacked


def _scipy_kernel(routine, dtype):
    """A callable with the ``repro.lapack77`` signature of ``routine``
    that runs only the typed SciPy LAPACK wrapper."""
    from scipy.linalg import lapack
    prefix = _SCIPY_PREFIX.get(np.dtype(dtype).char) if dtype else None
    f = getattr(lapack, f"{prefix}{routine}", None) if prefix else None
    if f is None:
        return None

    def low(uplo):
        return str(uplo).upper() == "L"

    def two_d(b):
        return b if b.ndim == 2 else b[:, None]

    calls = {
        "gesv": lambda a, b: f(a, two_d(b)),
        "posv": lambda a, b, uplo="U": f(a, two_d(b), lower=low(uplo)),
        "sysv": lambda a, b, uplo="U": f(a, two_d(b), lower=low(uplo)),
        "syev": lambda a, jobz="N", uplo="U": f(
            a, compute_v=int(str(jobz).upper() == "V"), lower=low(uplo)),
        "potrf": lambda a, uplo="U": f(a, lower=low(uplo), clean=0),
        "potrs": lambda a, b, uplo="U": f(a, two_d(b), lower=low(uplo)),
        "gtsv": lambda dl, d, du, b: f(dl, d, du, two_d(b)),
        "trtrs": lambda a, b, uplo="U", trans="N", diag="N": f(
            a, two_d(b), lower=low(uplo),
            trans={"N": 0, "T": 1, "C": 2}[str(trans).upper()],
            unitdiag=int(str(diag).upper() == "U")),
    }
    return calls.get(routine)


def _retime_crossing(span, turn):
    """Time one seam crossing three ways on fresh copies of its
    operands -- the proxy, the adapter ``resolve`` returns, the raw
    kernel -- rotating which goes first by ``turn`` so that warming
    the operands favours none of them on average."""
    from repro.backends import kernels, resolve
    m = span.meta
    proxy = getattr(kernels, m["routine"], None) \
        or kernels.KernelProxy(m["routine"])
    adapter_fn = resolve(m["routine"], m["dtype"])
    raw_fn = _raw_kernel(m["routine"], m["dtype"], m["backend"])
    fns = [proxy, adapter_fn, raw_fn or adapter_fn]
    durs = [0.0, 0.0, 0.0]
    for k in range(3):
        i = (turn + k) % 3
        durs[i] = _time_once(fns[i], span.args, span.kwargs)
    span.dur = durs[0]
    retime(span)                    # its resolve calls
    adapter = Span("backends.adapter")
    adapter.dur = durs[1]
    raw = Span("kernel.raw", meta={"flops": kernel_flops(
        m["routine"], span.args, span.kwargs)})
    raw.dur = durs[2] if raw_fn is not None else durs[1]
    adapter.children.append(raw)
    span.children.append(adapter)


def retime(root, turn=0):
    """Give every span below ``root`` its outside-in duration; a seam
    crossing gains ``backends.adapter`` and ``kernel.raw`` children.
    ``turn`` (any integer, e.g. the operation's index) rotates the
    order in which a crossing's three timings run."""
    from repro.core.auxmod import driver_guard
    for span in root.children:
        if span.name == "resilience.seam":
            _retime_crossing(span, turn)
            turn += 1
            continue
        if span.fn is driver_guard:
            span.dur = _time_guard(span.fn, span.args, span.kwargs)
        elif span.name == "dispatch_front.probe":
            span.dur = time_pure(span.fn, span.args, span.kwargs, reps=1)
        else:
            span.dur = time_pure(span.fn, span.args, span.kwargs)
        retime(span, turn)


def self_times(root):
    """``{layer: self seconds}`` over the tree; the root's self time
    is reported as ``"remainder"``."""
    out = {}
    for span in root.walk():
        own = span.dur - sum(c.dur for c in span.children)
        name = "remainder" if span is root else span.name
        out[name] = out.get(name, 0.0) + own
    return out
