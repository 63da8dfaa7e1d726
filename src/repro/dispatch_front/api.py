"""The front door: ``repro.solve`` / ``repro.lstsq`` / ``repro.eig``.

Callers who know their matrix call ``la_posv``; callers who don't call
:func:`solve` and get the same driver chosen for them.  The flow is

1. **classify** — :func:`~repro.dispatch_front.probe.probe` classifies
   the operand, unless the Cholesky memo
   (:mod:`repro.dispatch_front.cache`) holds an ``spd``/``hpd`` verdict
   for this very array, still bit-equal to the copy taken when it was
   factored, under the same backend.  Only those verdicts are kept;
   every other operand is re-probed on every call.
2. **route** — :func:`repro.specs.routing.route` walks the refinement
   lattice over the DriverSpec registry's declarative
   ``problem_kind``/``structure`` metadata.  There is no structure→
   driver ladder in this module (lalint rule LA022): what is written by
   hand here is only the per-kernel *calling convention* — how the
   routed driver wants its operands shaped — keyed by ``spec.kernel``,
   exactly like the batched generator's ``_FAMILIES`` residue.
3. **execute** — the routed ``la_*`` driver runs with the caller's
   ``info`` handle, through the ordinary backend/resilience/deadline
   seams, *on copies*: unlike the drivers, the front door never
   overwrites its operands.  An ``spd``/``hpd`` verdict, fresh or
   remembered, never refactorizes: the probe's trial-``potrf`` factor
   goes straight to ``potrs`` inside the same ``LA_POSV`` contract
   (spec validation, driver guard, ERINFO report).

Stacked operands (``a.ndim == 3``) route through the spec-derived
``batch_*`` wrappers instead, chosen from the same metadata filtered by
``spec.batchable``.

``explain=True`` returns the :class:`Explanation` — classification,
candidate ladder and chosen driver — *without executing*.  ``assume=``
skips probing and pins the structure label (trusted, not verified: an
``assume="spd"`` on an indefinite matrix fails exactly like calling
``la_posv`` yourself).  When an :class:`~repro.errors.Info` handle is
passed, the verdict comes back with ``info.structure``,
``info.chosen_driver`` and ``info.probe_cost`` telemetry
(``probe_cost == 0.0`` on a memo hit).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..backends.kernels import potrs
from ..core import (la_gbsv, la_gels, la_geev, la_gesv, la_gtsv, la_heev,
                    la_hesv, la_posv, la_syev, la_sysv, la_trtrs)
from ..core.auxmod import _report, as_matrix, driver_guard
from ..errors import Info, is_error_code
from ..specs import validate_args
from ..specs.routing import STRUCTURES, candidates, route
from . import cache
from .probe import Structure, probe, probe_stack

__all__ = ["solve", "lstsq", "eig", "Explanation"]


@dataclass(frozen=True)
class Explanation:
    """What the front door *would* do — returned by ``explain=True``.

    ``candidates`` is the full refinement ladder the router considered,
    most specific first; ``chosen_driver`` is its head.  ``cached`` says
    whether the classification came from the Cholesky memo;
    ``probe_cost`` is the probe's wall-clock seconds (0.0 when
    remembered or assumed).
    """

    kind: str
    structure: str
    chosen_driver: str
    candidates: tuple
    batch: bool = False
    cached: bool = False
    probe_cost: float = 0.0


def _classify(a, assume):
    """``(Structure, cached)`` for ``a`` — memo, probe, or assumption."""
    if assume is not None:
        if assume not in STRUCTURES:
            raise ValueError(
                "assume={!r} is not a structure label; expected one of "
                "{}".format(assume, ", ".join(STRUCTURES)))
        sym = assume in ("spd", "symmetric")
        herm = assume in ("spd", "hpd", "symmetric", "hermitian")
        return Structure(assume, symmetric=sym, hermitian=herm), False
    st = cache.lookup(a)
    if st is not None:
        return st, True
    st = probe_stack(a) if a.ndim == 3 else probe(a)
    cache.store(a, st)  # laflow: atomic-split — probing runs unlocked by design; a racing store of the same operand is idempotent
    return st, False


def _note(info, st, driver, cached):
    """Attach routing telemetry to the caller's ``Info`` handle."""
    if isinstance(info, Info):
        info.structure = st.label
        info.chosen_driver = driver
        info.probe_cost = 0.0 if cached else st.probe_cost


def _rhs_copy(a, b):
    """The working copy of the right-hand side.  The drivers' in-place
    contract forbids them from promoting a real ``b`` against a complex
    ``A``; the front door returns a fresh array, so it can."""
    return b.astype(np.result_type(a, b), copy=True)


def _batch_wrapper(spec):
    """The spec-derived ``batch_*`` wrapper for ``spec``."""
    from .. import batch as _batch
    return getattr(_batch, spec.name.replace("la_", "batch_", 1))


def _batch_route(kind, st, iscomplex):
    """First candidate on the refinement ladder with a batched wrapper,
    or ``None`` (the caller then loops the scalar driver per slice)."""
    for spec in candidates(kind, st.label, iscomplex):
        if spec.batchable:
            return spec
    return None


# -- per-kernel calling conventions (the hand-written residue) --------
# Each executor receives the *original* operands plus the probe verdict
# and runs the routed driver on copies, returning the solution.

def _band_storage(a, kl, ku):
    """Pack a dense band matrix into ``la_gbsv``'s ``2·kl+ku+1``-row
    factored-band layout (``A[i, j]`` at ``ab[kl+ku+i-j, j]``)."""
    n = a.shape[0]
    ab = np.zeros((2 * kl + ku + 1, n), dtype=a.dtype)
    for d in range(-kl, ku + 1):
        lo = max(0, d)
        ab[kl + ku - d, lo:lo + n - abs(d)] = np.diagonal(a, d)
    return ab


def _posv_from_factor(st, a, bc, info):
    """SPD solve from the probe's trial-``potrf`` factor: straight to
    ``potrs``, inside the full ``LA_POSV`` contract (spec validation,
    driver guard, ERINFO report), so a cold solve factorizes once and a
    remembered one not at all."""
    srname = "LA_POSV"
    linfo = validate_args("la_posv", a=a, b=bc, uplo=st.uplo)
    exc = None
    if linfo == 0 and a.shape[0] > 0:
        linfo, exc = driver_guard(srname, (1, a), (2, bc))
        if linfo == 0:
            bmat, _ = as_matrix(bc)
            linfo = potrs(st.cholesky, bmat, st.uplo)
    _report(srname, linfo, info, exc)
    return bc


def _exec_gesv(st, a, bc, info):
    return la_gesv(a.copy(), bc, info=info)


def _exec_posv(st, a, bc, info):
    if st.cholesky is not None:
        return _posv_from_factor(st, a, bc, info)
    return la_posv(a.copy(), bc, uplo=st.uplo, info=info)


def _exec_sysv(st, a, bc, info):
    return la_sysv(a.copy(), bc, info=info)


def _exec_hesv(st, a, bc, info):
    return la_hesv(a.copy(), bc, info=info)


def _exec_gtsv(st, a, bc, info):
    return la_gtsv(a.diagonal(-1).copy(), a.diagonal().copy(),
                   a.diagonal(1).copy(), bc, info=info)


def _exec_gbsv(st, a, bc, info):
    return la_gbsv(_band_storage(a, st.kl, st.ku), bc, kl=st.kl,
                   info=info)


def _exec_trtrs(st, a, bc, info):
    return la_trtrs(a, bc, uplo=st.uplo, info=info)


_SOLVERS = {
    "gesv": _exec_gesv,
    "posv": _exec_posv,
    "sysv": _exec_sysv,
    "hesv": _exec_hesv,
    "gtsv": _exec_gtsv,
    "gbsv": _exec_gbsv,
    "trtrs": _exec_trtrs,
}


def _exec_syev(st, a, info, vectors, driver):
    ac = a.copy()
    w = driver(ac, jobz="V" if vectors else "N", info=info)
    return (w, ac) if vectors else w


def _exec_geev(st, a, info, vectors, driver):
    ac = a.copy()
    if vectors:
        return driver(ac, vr=True, info=info)
    return driver(ac, info=info)


_EIG_DRIVERS = {"syev": la_syev, "heev": la_heev, "geev": la_geev}
_EIG_CONVENTIONS = {"syev": _exec_syev, "heev": _exec_syev,
                    "geev": _exec_geev}


def _eig_label(st, iscomplex):
    """The eig verb cares about symmetry, not band shape: a banded or
    tridiagonal operand that is also (Hermitian-)symmetric still routes
    to the symmetric eigensolver."""
    if iscomplex and st.hermitian:
        return "hermitian"
    if st.symmetric:
        return "symmetric"
    return st.label


# -- the three verbs --------------------------------------------------

def solve(a, b, *, info=None, explain=False, assume=None):
    """Solve ``A x = b`` through the structure-routed front door.

    Returns the solution with ``b``'s shape; ``a`` and ``b`` are never
    overwritten.  ``info``/``explain``/``assume`` per the module
    docstring; a ``(batch, n, n)`` stack routes to the ``batch_*``
    wrappers (pass ``info=BatchInfo()`` for per-problem codes).
    """
    a = np.asarray(a)
    b = np.asarray(b)
    st, cached = _classify(a, assume)
    iscomplex = np.iscomplexobj(a)
    if a.ndim == 3:
        spec = _batch_route("solve", st, iscomplex)
        if explain:
            return Explanation(
                "solve", st.label, spec.name,
                tuple(s.name for s in candidates("solve", st.label,
                                                 iscomplex)),
                batch=True, cached=cached,
                probe_cost=0.0 if cached else st.probe_cost)
        x = _batch_wrapper(spec)(a.copy(), _rhs_copy(a, b), info=info)
        _note(info, st, spec.name, cached)
        return x
    spec = route("solve", st.label, iscomplex)
    if explain:
        return Explanation(
            "solve", st.label, spec.name,
            tuple(s.name for s in candidates("solve", st.label,
                                             iscomplex)),
            cached=cached, probe_cost=0.0 if cached else st.probe_cost)
    x = _SOLVERS[spec.kernel](st, a, _rhs_copy(a, b), info)
    _note(info, st, spec.name, cached)
    return x


def lstsq(a, b, *, trans="N", info=None, explain=False):
    """Least-squares solve ``min ‖A x − b‖₂`` through the front door.

    The routing metadata resolves every structure to the QR/LQ driver
    today (``la_gels``); classification still runs so the telemetry and
    the routing table stay honest when a specialised least-squares
    driver is registered.  Returns the solution (``n`` rows for
    ``trans="N"``); never overwrites ``a``/``b``.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    st, cached = _classify(a, None)
    iscomplex = np.iscomplexobj(a)
    if a.ndim == 3:
        spec = _batch_route("lstsq", st, iscomplex)
        if explain:
            return Explanation(
                "lstsq", st.label, spec.name,
                tuple(s.name for s in candidates("lstsq", st.label,
                                                 iscomplex)),
                batch=True, cached=cached,
                probe_cost=0.0 if cached else st.probe_cost)
        x = _batch_wrapper(spec)(a.copy(), _rhs_copy(a, b), trans=trans,
                                 info=info)
        _note(info, st, spec.name, cached)
        return x
    spec = route("lstsq", st.label, iscomplex)
    if explain:
        return Explanation(
            "lstsq", st.label, spec.name,
            tuple(s.name for s in candidates("lstsq", st.label,
                                             iscomplex)),
            cached=cached, probe_cost=0.0 if cached else st.probe_cost)
    x = la_gels(a.copy(), _rhs_copy(a, b), trans=trans, info=info) \
        if spec.kernel == "gels" else \
        _SOLVERS[spec.kernel](st, a, _rhs_copy(a, b), info)
    _note(info, st, spec.name, cached)
    return x


def eig(a, *, vectors=False, info=None, explain=False, assume=None):
    """Eigenvalues (and optionally eigenvectors) through the front door.

    Symmetric/Hermitian operands route to ``la_syev``/``la_heev`` and
    return real eigenvalues ascending (plus the orthonormal eigenvector
    matrix when ``vectors=True``); everything else routes to ``la_geev``
    and returns complex eigenvalues (plus right eigenvectors).  ``a`` is
    never overwritten.  A ``(batch, n, n)`` stack uses ``batch_syev``/
    ``batch_heev`` when the structure allows, and loops the scalar
    driver per slice otherwise.
    """
    a = np.asarray(a)
    st, cached = _classify(a, assume)
    iscomplex = np.iscomplexobj(a)
    label = _eig_label(st, iscomplex)
    if a.ndim == 3:
        return _eig_stack(a, st, label, iscomplex, vectors, info,
                          explain, cached)
    spec = route("eig", label, iscomplex)
    if explain:
        return Explanation(
            "eig", st.label, spec.name,
            tuple(s.name for s in candidates("eig", label, iscomplex)),
            cached=cached, probe_cost=0.0 if cached else st.probe_cost)
    out = _EIG_CONVENTIONS[spec.kernel](st, a, info, vectors,
                                        _EIG_DRIVERS[spec.kernel])
    _note(info, st, spec.name, cached)
    return out


def _eig_stack(a, st, label, iscomplex, vectors, info, explain, cached):
    batched = Structure(label, symmetric=st.symmetric,
                        hermitian=st.hermitian)
    spec = _batch_route("eig", batched, iscomplex)
    if spec is not None:
        if explain:
            return Explanation(
                "eig", st.label, spec.name,
                tuple(s.name for s in candidates("eig", label,
                                                 iscomplex)),
                batch=True, cached=cached,
                probe_cost=0.0 if cached else st.probe_cost)
        ac = a.copy()
        w = _batch_wrapper(spec)(ac, jobz="V" if vectors else "N",
                                 info=info)
        _note(info, st, spec.name, cached)
        return (w, ac) if vectors else w
    # No batched eigensolver on the ladder (general stacks): loop the
    # routed scalar driver per slice, recording per-problem codes on a
    # BatchInfo when one is supplied.
    from ..batch import BatchInfo
    spec = route("eig", label, iscomplex)
    if explain:
        return Explanation(
            "eig", st.label, spec.name,
            tuple(s.name for s in candidates("eig", label, iscomplex)),
            batch=True, cached=cached,
            probe_cost=0.0 if cached else st.probe_cost)
    batch = a.shape[0]
    binfo = info if isinstance(info, BatchInfo) else None
    if binfo is not None:
        binfo._arm(batch)
    ws, vrs = [], []
    first_failure = 0
    for k in range(batch):
        pinfo = binfo.problems[k] if binfo is not None else info
        out = _EIG_CONVENTIONS[spec.kernel](st, a[k], pinfo, vectors,
                                            _EIG_DRIVERS[spec.kernel])
        if vectors:
            ws.append(out[0])
            vrs.append(out[1])
        else:
            ws.append(out)
        if binfo is not None and first_failure == 0 \
                and is_error_code(binfo.problems[k].value):
            first_failure = binfo.problems[k].value
    if binfo is not None:
        binfo.value = first_failure
    w = np.stack(ws)
    _note(info, st, spec.name, cached)
    return (w, np.stack(vrs)) if vectors else w
