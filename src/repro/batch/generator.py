"""Spec→wrapper derivation for the batched drivers.

Every ``batch_*`` wrapper in :mod:`repro.batch` is *generated* here from
the parent driver's :class:`~repro.specs.DriverSpec` — there is no
hand-written batched validation ladder anywhere (lalint rule LA021
forbids one outside this package).  The derivation mirrors the paper's
own derivation arrow: just as the F90 generic interfaces were mechanical
wrappers over the F77 kernels, a ``batch_gesv`` is a mechanical lift of
``la_gesv``'s spec over a leading batch axis:

* argument binding, flag defaults and the validation ladder come from
  the spec (one amortized :func:`~repro.specs.validate_batch` run per
  call — structural checks once on the stack cross-section, NaN/Inf
  screens vectorized over the stack by
  :func:`repro.policy.screen_stack`);
* the kernel binding comes from ``spec.kernel``; when the selected
  backend serves a ``<kernel>_stack`` entry (see
  :mod:`repro.backends.batched`) the whole stack crosses the dispatch
  seam once, otherwise the wrapper loops per problem *inside* the seam
  so breakers, retries and deadlines observe individual kernel calls
  and a mid-batch :class:`~repro.errors.DeadlineExceeded` leaves the
  completed prefix intact;
* the error contract is the parent's, lifted: per-problem codes land
  on a :class:`~repro.batch.BatchInfo`, the aggregate verdict goes
  through ``erinfo`` with the failing problem's index, and the parent's
  fallback ladder (``la_gesv`` → expert refine, ``la_posv`` →
  indefinite retry) replays per failing problem on pristine snapshots.

Only the tiny per-family *kernel calling convention* — how many values
the substrate routine returns and which flags it takes — is written by
hand (``_FAMILIES``); everything else derives from the spec, so a new
driver opts in by setting ``batchable=True`` in the registry.
"""

from __future__ import annotations

import warnings

import numpy as np

from .. import faults
from ..backends import backend_aware, get_backend, get_backend_name
from ..backends import kernels as _kernels
from ..errors import (ALLOC_FAILED, DEADLINE, DeadlineExceeded,
                      DriverFallbackWarning, NoConvergence,
                      NonFiniteWarning, NotPositiveDefinite,
                      SingularMatrix, erinfo)
from ..policy import get_policy, screen_stack
from ..resilience import calllog, deadlines
from ..specs import SPECS, validate_batch
from .info import BatchInfo
from .report import warn_batch

__all__ = ["batchable_specs", "make_batched", "generate"]


def batchable_specs():
    """The registered specs that opt into wrapper derivation."""
    return [s for s in SPECS.values() if s.batchable]


# -- per-family kernel calling conventions ----------------------------
# ``run(kern, c)`` invokes one substrate kernel (or its ``*_stack``
# counterpart — the argument shapes are the only difference) on the
# bound values in ``c`` and returns ``(linfo, extras)``; ``extras`` maps
# output names (``ipiv``, ``w``) to the kernel-returned arrays.

def _run_gesv(kern, c):
    lpiv, linfo = kern(c["a"], c["b"])
    return linfo, {"ipiv": lpiv}


def _run_posv(kern, c):
    return kern(c["a"], c["b"], c["uplo"]), {}


def _run_indef(kern, c):
    lpiv, linfo = kern(c["a"], c["b"], c["uplo"])
    return linfo, {"ipiv": lpiv}


def _run_gels(kern, c):
    return kern(c["a"], c["b"], trans=c["trans"]), {}


def _run_ev(kern, c):
    wout, linfo = kern(c["a"], jobz=c["jobz"], uplo=c["uplo"])
    return linfo, {"w": wout}


def _fb_gesv(srname, c, k, snaps, pinfo):
    from ..core.linear_equations import _fallback_gesv
    n = c["a"].shape[2]
    return _fallback_gesv(srname, snaps["a"][k].copy(), c["b"][k], n,
                          pinfo)


def _fb_posv(srname, c, k, snaps, pinfo):
    from ..core.linear_equations import _fallback_posv
    return _fallback_posv(srname, snaps["a"][k].copy(), c["b"][k],
                          c["uplo"], pinfo)


class _Family:
    """One kernel family's hand-written residue: calling convention,
    positive-info exception class, optional fallback replay, whether a
    ``*_stack`` seam entry exists, and the n=0 early-out gate."""

    def __init__(self, run, exc=None, fallback=None, stack=True,
                 size_gate=False):
        self.run = run
        self.exc = exc
        self.fallback = fallback
        self.stack = stack
        self.size_gate = size_gate


_FAMILIES = {
    "gesv": _Family(_run_gesv, SingularMatrix, _fb_gesv, size_gate=True),
    "posv": _Family(_run_posv, NotPositiveDefinite, _fb_posv,
                    size_gate=True),
    "sysv": _Family(_run_indef, SingularMatrix, size_gate=True),
    "hesv": _Family(_run_indef, SingularMatrix, size_gate=True),
    "gels": _Family(_run_gels),
    "syev": _Family(_run_ev, NoConvergence, stack=False),
    "heev": _Family(_run_ev, NoConvergence, stack=False),
}

_STACK_PROXIES: dict = {}


def _stack_proxy(kernel):
    proxy = _STACK_PROXIES.get(kernel)
    if proxy is None:
        proxy = _STACK_PROXIES[kernel] = _kernels.KernelProxy(kernel + "_stack")
    return proxy


def _stack_capable(kernel, dtype):
    """True when the *selected* backend natively serves the stacked
    entry point for ``dtype`` (so one seam crossing loses nothing —
    the per-problem kernels are byte-for-byte the scalar path's)."""
    try:
        backend = get_backend(get_backend_name())
    except ValueError:
        return False
    return backend.supports(kernel + "_stack", dtype)


def _replay_fallback(family, srname, c, k, snaps, pinfo):
    """Replay the parent driver's fallback ladder for failing problem
    *k* on its pristine snapshot, re-emitting the fallback announcement
    batch-indexed and window-rate-limited."""
    done = False
    calllog.push()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            done = family.fallback(srname, c, k, snaps, pinfo)
    finally:
        if not done:
            calllog.drain()
    for msg in caught:
        if issubclass(msg.category, DriverFallbackWarning):
            text = str(msg.message)
            text = text.removeprefix(f"{srname}: ")
            warn_batch(srname, ("fallback", pinfo.fallback), k,
                       text, DriverFallbackWarning, stacklevel=4)
        else:
            warnings.warn(msg.message, msg.category, stacklevel=3)
    return done


def make_batched(spec):
    """Derive the ``batch_*`` wrapper for one batchable *spec*."""
    family = _FAMILIES[spec.kernel]
    stem = spec.name[3:]                     # "la_gesv" -> "gesv"
    fname = "batch_" + stem
    srname = fname.upper()
    arg_names = [a.name for a in spec.args if a.kind != "info"]
    array_specs = [a for a in spec.args if a.name in spec.batch_stacked]
    screen_specs = [a for a in array_specs if a.intent == "inout"]
    flags = spec.flags
    defaults = {}
    for a in spec.args:
        if a.kind == "info" or a.required:
            continue
        defaults[a.name] = flags[a.name][0] if a.name in flags else None
    base_kernel = getattr(_kernels, spec.kernel)
    is_ev = spec.kernel in ("syev", "heev")
    is_ls = spec.kernel == "gels"

    def wrapper(*args, info=None, **kwargs):
        if len(args) > len(arg_names):
            raise TypeError(f"{fname}() takes at most {len(arg_names)} "
                            f"positional arguments ({len(args)} given)")
        bound = dict(defaults)
        bound.update(zip(arg_names, args))
        for key, val in kwargs.items():
            if key not in arg_names:
                raise TypeError(f"{fname}() got an unexpected keyword "
                                f"argument {key!r}")
            bound[key] = val
        binfo = info if isinstance(info, BatchInfo) else BatchInfo()

        linfo, batch = validate_batch(spec, bound)
        a = bound.get("a")
        b = bound.get("b")
        if linfo == 0 and batch > 0 and family.size_gate \
                and a.shape[1] == 0:
            batch = 0               # n = 0: nothing to compute
        if linfo != 0 or batch == 0:
            erinfo(linfo, srname, info)
            if is_ev:
                return bound.get("w") if bound.get("w") is not None \
                    else np.zeros((batch, 0))
            return b

        # -- per-problem value screens, vectorized over the stack -----
        calllog.push()
        base_depth = calllog.depth()
        deadlines.check(srname, "entry")
        codes, warned = screen_stack(
            srname, batch,
            *((s.position, bound[s.name]) for s in screen_specs
              if bound.get(s.name) is not None))
        for position, idxs in warned:
            for k in idxs:
                warn_batch(srname, ("nonfinite", position), int(k),
                           f"argument {position} contains non-finite "
                           "entries; they will propagate",
                           NonFiniteWarning, stacklevel=4)
        if not codes.any() and faults.alloc_fault(srname):
            calllog.drain_into(binfo)
            erinfo(ALLOC_FAILED, srname, info)
            return b if not is_ev else np.zeros((batch, 0))

        binfo._arm(batch)
        pol = get_policy()

        # -- bind the compute view of every operand -------------------
        c = {name: bound.get(name) for name in arg_names}
        was_vec = False
        if b is not None and b.ndim == 2:    # stack of RHS vectors
            was_vec = True
            c["b"] = b[:, :, None]
        if is_ls:
            m, n = a.shape[1], a.shape[2]
            rows = max(m, n)
            if c["b"].shape[1] != rows:      # pad the whole stack once
                bw = np.zeros((batch, rows, c["b"].shape[2]),
                              dtype=np.result_type(a, c["b"]))
                bw[:, :c["b"].shape[1]] = c["b"]
                c["b"] = bw
        ipiv = bound.get("ipiv")
        snaps = None
        if pol.fallbacks and family.fallback is not None:
            snaps = {"a": a.copy()}

        use_stack = (family.stack
                     and not faults.CHAOS_ACTIVE and not faults.active()  # laflow: benign-race — path choice only; both paths cross the seam, which consults the chaos table itself
                     and deadlines.remaining() is None
                     and not codes.any()
                     and _stack_capable(spec.kernel, a.dtype))

        wouts = [None] * batch
        if use_stack:
            # One seam crossing for the whole stack: the resilience
            # layer sees a single kernel call (one breaker admit, one
            # snapshot set covering every operand stack).
            linfos, extras = family.run(_stack_proxy(spec.kernel), c)
            for k in range(batch):
                binfo.problems[k].value = int(linfos[k])
            if ipiv is not None and "ipiv" in extras:
                ipiv[:] = extras["ipiv"]
            if pol.fallbacks and family.fallback is not None:
                for k in np.nonzero(np.asarray(linfos) > 0)[0]:
                    _replay_fallback(family, srname, c, int(k), snaps,
                                     binfo.problems[int(k)])
        else:
            k = 0
            try:
                for k in range(batch):
                    pinfo = binfo.problems[k]
                    if codes[k]:
                        pinfo.value = int(codes[k])
                        continue
                    deadlines.check(srname, "batch", info=binfo)
                    ck = {n: (v[k] if isinstance(v, np.ndarray) else v)
                          for n, v in c.items()}
                    calllog.push()
                    try:
                        linfo_k, extras = family.run(base_kernel, ck)
                    finally:
                        calllog.drain_into(pinfo)
                    pinfo.value = int(linfo_k)
                    if ipiv is not None and "ipiv" in extras:
                        ipiv[k] = extras["ipiv"]
                    if "w" in extras:
                        wouts[k] = extras["w"]
                    if linfo_k > 0 and pol.fallbacks \
                            and family.fallback is not None:
                        _replay_fallback(family, srname, c, k, snaps,
                                         pinfo)
            except DeadlineExceeded as derr:
                # Completed prefix stays; problems from k on are marked
                # interrupted and travel on the exception's partial.
                for j in range(k, batch):
                    binfo.problems[j].value = DEADLINE
                binfo.value = DEADLINE
                if calllog.depth() >= base_depth:
                    calllog.drain_into(binfo)
                derr.partial = binfo
                raise

        # -- aggregate verdict through the ERINFO funnel --------------
        kf = binfo.first_failure
        final = binfo.problems[kf].value if kf >= 0 else 0
        exc = family.exc(srname, final) \
            if kf >= 0 and final > 0 and family.exc is not None else None
        calllog.drain_into(binfo)
        erinfo(final, srname, info, exc=exc,
               batch_index=kf if kf >= 0 else None)
        if is_ev:
            w = bound.get("w")
            wstack = np.zeros((batch, a.shape[1]), dtype=a.real.dtype)
            for k, wout in enumerate(wouts):
                if wout is not None:
                    wstack[k] = wout
            if w is not None:
                w[:] = wstack
                return w
            return wstack
        if is_ls:
            out_rows = a.shape[2] if str(c["trans"]).upper() == "N" \
                else a.shape[1]
            return c["b"][:, :out_rows, 0] if was_vec \
                else c["b"][:, :out_rows]
        return b

    wrapper.__name__ = fname
    wrapper.__qualname__ = fname
    wrapper.__doc__ = (
        f"Batched ``{spec.name}``, derived from its DriverSpec: "
        f"{spec.summary}.\n\n"
        f"Array operands {spec.batch_stacked} gain a leading batch "
        f"axis; {spec.batch_broadcast or '()'} broadcast across the "
        "batch.  Pass ``info=BatchInfo()`` to collect per-problem "
        "codes and telemetry; without a handle the first failing "
        "problem raises with its batch index in the message.")
    wrapper.spec = spec
    return backend_aware(wrapper)


def generate(namespace: dict) -> list:
    """Derive every opted-in wrapper into *namespace* (the package's
    ``__init__`` globals); returns the generated names."""
    names = []
    for spec in batchable_specs():
        fn = make_batched(spec)
        namespace[fn.__name__] = fn
        names.append(fn.__name__)
    return names
