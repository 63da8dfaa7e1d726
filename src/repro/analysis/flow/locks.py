"""The laflow lock model and concurrency rules (LA023–LA026).

Lockset reasoning on top of the interprocedural interpreter: the
abstract environment carries the set of ``(lock, region)`` pairs held
at every point (:data:`~.interp.LOCKSET`), helper summaries record the
guarded state they touch and the locks they acquire, and replay unions
the caller's lockset on top — so a helper that *relies on* its
caller's lock (``breaker._sync``) is clean at every locked call site
while still flagging an unlocked one.

The rules are driven by one declarative **guarded_by registry**
(:data:`GUARDED_BY`): every shared mutable name in the package — the
policy object, backend registry and selection, blocking knobs, breaker
registry and tracking flag, resilience policy, deadline arming and
stack, fault/chaos tables, the front door's Cholesky memo with its
stats counters, and the retry exemption set — mapped to its owner
module, the lock that guards it and the owner API everyone else goes
through.  Instance state (``RateLimiter._seen``) is guarded by a
per-object lock discovered from the class ``__init__``.  A module
outside the shipped tree can declare its own table with a top-level
``_LAFLOW_GUARDED = {"_NAME": "LOCK"}`` literal (fixtures use this).

The four rules (each check's docstring has the details): **LA023** —
the owner boundary and lockset consistency; **LA024** — no
check-then-act split across lock regions; **LA025** — an acyclic
lock-acquisition order, with STATE_LOCK's re-entrancy modelled;
**LA026** — thread-local state never escapes into shared containers.
Deliberate exceptions carry ``# laflow: benign-race — <why>`` or
``# laflow: atomic-split — <why>`` pragmas.

Pragma placement matters and is checked: a pragma on a line no guarded
access reaches is itself a finding, so stale suppressions cannot
accumulate.  Like every lalint rule, nothing here imports the analysed
code.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass, field

from ..findings import Finding
from ..model import Project, body_statements, call_name
from . import values as V
from .interp import MUTATORS, FlowInterpreter
from .summaries import SummaryEngine

__all__ = ["GUARDED_BY", "GUARDED_ATTRS", "ConcurrencySummaryEngine",
           "check_la023", "check_la024", "check_la025", "check_la026"]


# ---------------------------------------------------------------------
# The guarded_by registry
# ---------------------------------------------------------------------

#: The shared re-entrant lock of :mod:`repro._sync`.
STATE_LOCK = "STATE_LOCK"

_BLOCKING = "ilaenv()/set_block_size()/block_size_override()"
_DEADLINE_API = "repro.deadline()/remaining()/check()"

#: name -> (owner-path suffix, owning lock, owner API).  Only the owner
#: may touch the name, and only under the lock; every other module goes
#: through the API.  The thread-local deadline stack has lock ``None``:
#: per-thread by construction, so its owner needs no lock, but it is
#: still closed to foreign modules.
GUARDED_BY = {
    "_POLICY": ("repro/policy.py", STATE_LOCK,
                "get_policy()/set_policy()/exception_policy()"),
    "_SELECTED": ("repro/backends/__init__.py", STATE_LOCK,
                  "get_backend_name()/set_backend()/use_backend()"),
    "_REGISTRY": ("repro/backends/__init__.py", STATE_LOCK,
                  "register_backend()/get_backend()/available_backends()"),
    "_BLOCK_SIZES": ("repro/config.py", STATE_LOCK, _BLOCKING),
    "_MIN_BLOCK": ("repro/config.py", STATE_LOCK, _BLOCKING),
    "_CROSSOVER": ("repro/config.py", STATE_LOCK, _BLOCKING),
    "_BREAKERS": ("repro/resilience/breaker.py", STATE_LOCK,
                  "admit()/record_failure()/record_success()/"
                  "breaker_state()/states()/reset_breakers()"),
    "TRACKING": ("repro/resilience/breaker.py", STATE_LOCK,
                 "admit()/breaker_state()/states()"),
    "_RESILIENCE": ("repro/resilience/config.py", STATE_LOCK,
                    "get_resilience()/set_resilience()/"
                    "resilience_policy()"),
    "_ARMED": ("repro/resilience/deadlines.py", STATE_LOCK, _DEADLINE_API),
    "_DEADLINES": ("repro/resilience/deadlines.py", None, _DEADLINE_API),
    "_FAULTS": ("repro/faults.py", STATE_LOCK,
                "install()/remove()/clear()/injected()"),
    "ACTIVE": ("repro/faults.py", STATE_LOCK, "active()"),
    "_CHAOS": ("repro/faults.py", STATE_LOCK,
               "chaos_install()/chaos_remove()/chaos_clear()/"
               "chaos_fault()"),
    "CHAOS_ACTIVE": ("repro/faults.py", STATE_LOCK, "chaos_active()"),
    "_ENTRIES": ("repro/dispatch_front/cache.py", STATE_LOCK,
                 "lookup()/store()/invalidate()/clear()"),
    "_STATS": ("repro/dispatch_front/cache.py", STATE_LOCK,
               "stats()/reset_stats()"),
    "_EXEMPT": ("repro/resilience/dispatch.py", STATE_LOCK,
                "exempt_kernels()"),
}

#: Instance state guarded by a per-object lock: ``"Class.attr" ->
#: "Class.lockattr"``.  The owner is wherever the class is defined; the
#: lock itself is discovered from ``self.<lockattr> = threading.Lock()``
#: in ``__init__`` (which also decides re-entrancy).
GUARDED_ATTRS = {
    "RateLimiter._seen": "RateLimiter._lock",   # warning windows
}

_PRAGMA_RE = re.compile(
    r"#\s*laflow:\s*(benign-race|atomic-split)\b[\s:—–-]*(.*)")


# ---------------------------------------------------------------------
# Per-module configuration
# ---------------------------------------------------------------------

def _norm(path: str) -> str:
    return path.replace(os.sep, "/")


def _dirname(path: str) -> str:
    return path.rsplit("/", 1)[0] if "/" in path else ""


def _is_owner(path: str, owner: str) -> bool:
    """``path`` (normalised) is the module the owner suffix names."""
    return path == owner or path.endswith("/" + owner)


def _lock_ctor(node) -> str | None:
    """``'Lock' | 'RLock' | 'local'`` for a threading primitive call."""
    if not isinstance(node, ast.Call):
        return None
    f = node.func
    name = f.id if isinstance(f, ast.Name) \
        else f.attr if isinstance(f, ast.Attribute) else None
    return name if name in ("Lock", "RLock", "local") else None


@dataclass
class ModuleConfig:
    """Everything the lock model knows about one module."""
    guarded: dict = field(default_factory=dict)
    lock_table: dict = field(default_factory=dict)
    reentrant: set = field(default_factory=set)
    tls_names: set = field(default_factory=set)
    module_globals: set = field(default_factory=set)
    class_locks: dict = field(default_factory=dict)
    class_guarded: dict = field(default_factory=dict)
    uses_lock: bool = False     # defines a lock or imports STATE_LOCK

    @property
    def relevant(self) -> bool:
        return bool(self.guarded or self.tls_names or self.class_locks
                    or self.uses_lock)


def _module_config(mod) -> ModuleConfig:
    p = _norm(mod.path)
    cfg = ModuleConfig()
    cfg.reentrant.add(STATE_LOCK)   # repro._sync.STATE_LOCK is an RLock
    for name, (owner, lock, _api) in GUARDED_BY.items():
        if lock is not None and _is_owner(p, owner):
            cfg.guarded[name] = (name, lock)
    cfg.uses_lock = any(
        alias == "STATE_LOCK"
        for _lvl, _src, _orig, alias in mod.import_records)
    for node in mod.tree.body:
        if isinstance(node, ast.Assign):
            targets = [t for t in node.targets if isinstance(t, ast.Name)]
            value = node.value
        elif isinstance(node, ast.AnnAssign) \
                and isinstance(node.target, ast.Name):
            targets, value = [node.target], node.value
        else:
            continue
        cfg.module_globals.update(t.id for t in targets)
        ctor = _lock_ctor(value)
        if ctor == "local":
            cfg.tls_names.update(t.id for t in targets)
        elif ctor in ("Lock", "RLock"):
            cfg.uses_lock = True
            for t in targets:
                cfg.lock_table[t.id] = t.id
                if ctor == "RLock":
                    cfg.reentrant.add(t.id)
        if targets and targets[0].id == "_LAFLOW_GUARDED" \
                and isinstance(value, ast.Dict):
            for k, v in zip(value.keys, value.values):
                if isinstance(k, ast.Constant) \
                        and isinstance(k.value, str) \
                        and isinstance(v, ast.Constant) \
                        and isinstance(v.value, str):
                    cfg.guarded[k.value] = (k.value, v.value)
    cfg.lock_table.setdefault("STATE_LOCK", STATE_LOCK)
    for cname, cnode in mod.classes.items():
        locks: dict = {}
        for item in cnode.body:
            if not (isinstance(item, ast.FunctionDef)
                    and item.name == "__init__"):
                continue
            for n in ast.walk(item):
                if not isinstance(n, ast.Assign):
                    continue
                ctor = _lock_ctor(n.value)
                if ctor not in ("Lock", "RLock"):
                    continue
                for t in n.targets:
                    if isinstance(t, ast.Attribute) \
                            and isinstance(t.value, ast.Name) \
                            and t.value.id == "self":
                        lid = f"{cname}.{t.attr}"
                        locks[t.attr] = lid
                        if ctor == "RLock":
                            cfg.reentrant.add(lid)
        if locks:
            cfg.class_locks[cname] = locks
        attrs: dict = {}
        for qual, lockqual in GUARDED_ATTRS.items():
            qcls, attr = qual.split(".", 1)
            if qcls == cname:
                attrs[f"self.{attr}"] = (qual, lockqual)
        if attrs:
            cfg.class_guarded[cname] = attrs
    return cfg


def _local_shadows(func) -> set:
    """Names that are plain locals of ``func`` (assigned without a
    ``global`` declaration, or parameters) — these shadow any guarded
    module global of the same name inside this function."""
    declared: set = set()
    assigned: set = set()

    def targets_of(t):
        if isinstance(t, ast.Name):
            assigned.add(t.id)
        elif isinstance(t, (ast.Tuple, ast.List)):
            for e in t.elts:
                targets_of(e)
        elif isinstance(t, ast.Starred):
            targets_of(t.value)

    for node in ast.walk(func):
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
        elif isinstance(node, ast.Assign):
            for t in node.targets:
                targets_of(t)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign, ast.For)):
            targets_of(node.target)
        elif isinstance(node, ast.With):
            for item in node.items:
                if item.optional_vars is not None:
                    targets_of(item.optional_vars)
        elif isinstance(node, ast.comprehension):
            targets_of(node.target)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            assigned.add(node.name)
    a = func.args
    for p in (list(a.posonlyargs) + list(a.args) + list(a.kwonlyargs)):
        assigned.add(p.arg)
    if a.vararg is not None:
        assigned.add(a.vararg.arg)
    if a.kwarg is not None:
        assigned.add(a.kwarg.arg)
    return assigned - declared


# ---------------------------------------------------------------------
# Import resolution (level-aware, unlike Module.imports)
# ---------------------------------------------------------------------

def _import_stem(importer, level, dotted) -> str:
    """The path an import names, without ``.py``/``/__init__.py``:
    relative imports anchor at the importer's package, absolute ones
    are just the dotted path (``repro.faults`` -> ``repro/faults``)."""
    tail = dotted.replace(".", "/") if dotted else ""
    if level == 0:
        return tail
    base = _dirname(_norm(importer.path))
    for _ in range(level - 1):
        base = _dirname(base)
    return f"{base}/{tail}" if tail else base


def _names_owner(stem: str, owner: str) -> bool:
    """An import stem names the owner module (a file or a package)."""
    return _is_owner(stem + ".py", owner) \
        or _is_owner(stem + "/__init__.py", owner)


class _ImportResolver:
    """Resolve from-imports to project modules by actual file path."""

    def __init__(self, project):
        self.index = {_norm(m.path): m for m in project.modules}

    def module_for(self, importer, level, dotted):
        stem = _import_stem(importer, level, dotted)
        if not stem:
            return None
        if level > 0:
            return self.index.get(stem + ".py") \
                or self.index.get(stem + "/__init__.py")
        for path, m in self.index.items():
            if _is_owner(path, stem + ".py") \
                    or _is_owner(path, stem + "/__init__.py"):
                return m
        return None

    def function_target(self, importer, name):
        """``(module, func)`` for a name imported as a function."""
        for level, src, orig, alias in importer.import_records:
            if alias != name:
                continue
            m = self.module_for(importer, level, src)
            if m is not None:
                func = m.functions.get(orig)
                if func is not None:
                    return (m, func)
        return None

    def module_alias(self, importer, alias):
        """Project module bound to ``alias`` by ``from pkg import mod``."""
        for level, src, orig, asname in importer.import_records:
            if asname != alias:
                continue
            dotted = f"{src}.{orig}" if src else orig
            m = self.module_for(importer, level, dotted)
            if m is not None:
                return m
        return None


# ---------------------------------------------------------------------
# The owner boundary
# ---------------------------------------------------------------------

_OWNERS = {owner for owner, _lock, _api in GUARDED_BY.values()}


def _access_kind(node, parents) -> str:
    """``"write"`` when a store, ``del`` or mutating method call ends
    the ``.attr``/``[key]`` chain rooted at ``node``, else ``"read"``."""
    while isinstance(up := parents.get(node), (ast.Attribute,
                                               ast.Subscript)) \
            and up.value is node:
        call = parents.get(up)
        if isinstance(up, ast.Attribute) and up.attr in MUTATORS \
                and isinstance(call, ast.Call) and call.func is up:
            return "write"
        node = up
    return "write" if isinstance(getattr(node, "ctx", None),
                                 (ast.Store, ast.Del)) else "read"


def _foreign_accesses(mod) -> list:
    """``(kind, name, node, context)`` for every guarded name ``mod``
    reaches through an owner it is not: ``from <owner> import NAME``
    (an "import"), the bare name such an import binds, and
    ``alias.NAME`` with ``alias`` bound to the owner module."""
    path = _norm(mod.path)
    foreign = {n: e[0] for n, e in GUARDED_BY.items()
               if not _is_owner(path, e[0])}
    owners, bare, found = {}, {}, []
    for level, src, orig, alias in mod.import_records:
        stem = _import_stem(mod, level, src)
        if orig in foreign and _names_owner(stem, foreign[orig]):
            bare[alias] = orig
        sub = f"{stem}/{orig}" if stem else orig
        if any(_names_owner(sub, o) for o in _OWNERS):
            owners[alias] = sub
    if not (bare or owners):
        return []
    parents = {c: p for p in ast.walk(mod.tree)
               for c in ast.iter_child_nodes(p)}
    for node in parents:
        if isinstance(node, ast.ImportFrom):
            stem = _import_stem(mod, node.level, node.module or "")
            found += [(node, a.name) for a in node.names if a.name in foreign
                      and _names_owner(stem, foreign[a.name])]
        elif isinstance(node, ast.Name) and node.id in bare:
            found.append((node, bare[node.id]))
        elif isinstance(node, ast.Attribute) and node.attr in foreign \
                and isinstance(node.value, ast.Name) \
                and node.value.id in owners \
                and _names_owner(owners[node.value.id], foreign[node.attr]):
            found.append((node, node.attr))
    out = []
    for node, name in found:
        scope = node
        while scope is not None and not isinstance(scope, ast.FunctionDef):
            scope = parents.get(scope)
        out.append(("import" if isinstance(node, ast.ImportFrom)
                     else _access_kind(node, parents), name, node,
                     scope.name if scope is not None else "<module>"))
    return out


# ---------------------------------------------------------------------
# The concurrency summary engine
# ---------------------------------------------------------------------

class ConcurrencySummaryEngine(SummaryEngine):
    """A :class:`SummaryEngine` whose sub-interpreters carry the lock
    model, and whose resolution scope extends across modules into the
    state owners (``cache.lookup`` inlines into ``api._classify``)."""

    def __init__(self, project, configs, resolver):
        super().__init__(project)
        self.configs = configs          # norm path -> (Module, config)
        self.resolver = resolver

    def _config(self, mod):
        entry = self.configs.get(_norm(mod.path))
        return entry[1] if entry is not None else None

    def resolve(self, module, name):
        if module is None:
            return None
        if name in module.functions:
            return (module, module.functions[name])
        target = self.resolver.function_target(module, name)
        if target is not None and self._config(target[0]) is not None:
            return target
        return None

    def resolve_attr(self, module, alias, attr):
        m = self.resolver.module_alias(module, alias) \
            if module is not None else None
        if m is None or self._config(m) is None or attr not in m.functions:
            return None
        return (m, m.functions[attr])

    def _make_interpreter(self, mod, func):
        sub = super()._make_interpreter(mod, func)
        self.configure(sub, mod, func)
        return sub

    def configure(self, interp, mod, func, cls=None):
        """Install the lock model for one function (or method)."""
        cfg = self._config(mod)
        if cfg is None:
            return
        shadows = _local_shadows(func)
        interp.guarded = {k: v for k, v in cfg.guarded.items()
                          if k not in shadows}
        interp.lock_table = dict(cfg.lock_table)
        interp.reentrant_locks = set(cfg.reentrant)
        interp.tls_names = cfg.tls_names - shadows
        interp.module_globals = cfg.module_globals - shadows
        if cls is not None:
            for attr, lid in cfg.class_locks.get(cls, {}).items():
                interp.lock_table[f"self.{attr}"] = lid
            interp.guarded.update(cfg.class_guarded.get(cls, {}))


# ---------------------------------------------------------------------
# Root selection and the shared pass
# ---------------------------------------------------------------------

def _roots(mod):
    """Yield ``(display name, class or None, func)`` entry points.

    Public module functions and public methods are roots; private ones
    are only roots when nothing in the module calls them by name (a
    callback like the memo's weakref ``_forget`` has no direct caller
    but runs on arbitrary threads).  ``__init__`` and other dunders are
    exempt: construction happens-before sharing.  Nested ``def``s are
    always roots.
    """
    called = {call_name(n) for n in ast.walk(mod.tree)
              if isinstance(n, ast.Call)}
    for fname, func in sorted(mod.functions.items()):
        if not (fname.startswith("_") and fname in called):
            yield fname, None, func
        yield from _nested(fname, None, func)
    for cname, cnode in sorted(mod.classes.items()):
        methods = {n.name: n for n in cnode.body
                   if isinstance(n, ast.FunctionDef)}
        self_called = set()
        for m in methods.values():
            for node in ast.walk(m):
                if isinstance(node, ast.Call) \
                        and isinstance(node.func, ast.Attribute) \
                        and isinstance(node.func.value, ast.Name) \
                        and node.func.value.id == "self":
                    self_called.add(node.func.attr)
        for mname, m in sorted(methods.items()):
            if not (mname.startswith("__")
                    or mname.startswith("_") and mname in self_called):
                yield f"{cname}.{mname}", cname, m
            yield from _nested(f"{cname}.{mname}", cname, m)


def _nested(outer, cls, func):
    """Nested ``def``s are roots of their own: a closure runs after the
    enclosing ``with`` has exited, so it starts with an empty lockset."""
    for node in ast.walk(func):
        if node is not func and isinstance(node, ast.FunctionDef):
            yield f"{outer}.{node.name}", cls, node


def _is_generator(func) -> bool:
    return any(isinstance(n, (ast.Yield, ast.YieldFrom))
               for n in ast.walk(func))


@dataclass
class _Run:
    mod: object
    name: str
    interp: object
    generator: bool


def _scan_pragmas(mod) -> dict:
    out = {}
    for i, line in enumerate(mod.source_lines, 1):
        m = _PRAGMA_RE.search(line)
        if m is not None:
            out[i] = (m.group(1), m.group(2).strip())
    return out


def _concurrency(project: Project) -> dict:
    """The shared concurrency pass, computed once per project.

    Scope: modules that own guarded state, define locks or
    thread-locals, import STATE_LOCK, or import directly from such a
    module (the dispatch seam and front-door callers).  Everything
    else has no lock obligations and is skipped — except by the owner
    boundary scan, which covers every module.
    """
    cache = getattr(project, "_laconc_cache", None)
    if cache is not None:
        return cache
    resolver = _ImportResolver(project)
    all_cfgs = {_norm(mod.path): (mod, _module_config(mod))
                for mod in project.modules}
    configs = {p: entry for p, entry in all_cfgs.items()
               if entry[1].relevant}
    base_paths = set(configs)
    for mod in project.modules:
        p = _norm(mod.path)
        if p in configs:
            continue
        for level, src, orig, _alias in mod.import_records:
            hit = resolver.module_for(mod, level, src)
            if hit is None or _norm(hit.path) not in base_paths:
                dotted = f"{src}.{orig}" if src else orig
                hit = resolver.module_for(mod, level, dotted)
            if hit is not None and _norm(hit.path) in base_paths:
                configs[p] = all_cfgs[p]
                break
    engine = ConcurrencySummaryEngine(project, configs, resolver)
    runs = []
    for p in sorted(configs):
        mod, _cfg = configs[p]
        for name, cls, func in _roots(mod):
            interp = FlowInterpreter(module=mod, func=func,
                                     substrate=frozenset(),
                                     summaries=engine, depth=0)
            engine.configure(interp, mod, func, cls=cls)
            env = {}
            a = func.args
            for par in (list(a.posonlyargs) + list(a.args)
                        + list(a.kwonlyargs)):
                env[par.arg] = V.UNKNOWN
            interp._exec_block(body_statements(func), env)
            runs.append(_Run(mod=mod, name=name, interp=interp,
                             generator=_is_generator(func)))
    foreign = {}
    for mod in project.modules:
        accs = _foreign_accesses(mod)
        if accs:
            foreign[_norm(mod.path)] = (mod, accs)
    pragmas = {p: _scan_pragmas(mod)
               for p, (mod, _c) in {**configs, **foreign}.items()}
    cache = {"runs": runs, "pragmas": pragmas, "configs": configs,
             "engine": engine, "foreign": foreign}
    project._laconc_cache = cache
    return cache


# ---------------------------------------------------------------------
# Pragma plumbing
# ---------------------------------------------------------------------

def _pragma_at(data, path, lineno, *kinds) -> bool:
    entry = data["pragmas"].get(_norm(path), {}).get(lineno)
    return entry is not None and entry[0] in kinds and bool(entry[1])


def _access_pragma(data, access, *kinds) -> bool:
    """A justified pragma of one of ``kinds`` covers the access: on its
    own line, or on the call site it was first replayed through (the
    guarded API's invocation)."""
    return _pragma_at(data, access.path,
                      getattr(access.node, "lineno", 0), *kinds) \
        or access.site is not None \
        and _pragma_at(data, access.site_path,
                       getattr(access.site, "lineno", 0), *kinds)


def _reached_lines(data) -> set:
    reached = data.get("_reached")
    if reached is not None:
        return reached
    reached = set()
    for run in data["runs"]:
        for a in run.interp.accesses:
            reached.add((_norm(a.path), getattr(a.node, "lineno", 0)))
            if a.site is not None:
                reached.add((_norm(a.site_path),
                             getattr(a.site, "lineno", 0)))
    for path, (_mod, accs) in data["foreign"].items():
        reached.update((path, node.lineno)
                       for kind, _n, node, _c in accs if kind == "read")
    data["_reached"] = reached
    return reached


def _pragma_findings(data, kind, code) -> list:
    """A pragma must justify itself and must be load-bearing: one with
    no justification text, or on a line no reached guarded access
    matches, is a finding under its own rule."""
    findings = []
    reached = _reached_lines(data)
    for path, table in sorted(data["pragmas"].items()):
        for lineno, (k, just) in sorted(table.items()):
            if k != kind:
                continue
            if not just:
                findings.append(Finding(
                    code=code,
                    message=f"`# laflow: {kind}` needs a justification "
                            "on the same line "
                            f"(`# laflow: {kind} — <why>`)",
                    path=path, line=lineno, col=0, context="pragma"))
            elif (path, lineno) not in reached:
                findings.append(Finding(
                    code=code,
                    message=f"unused `# laflow: {kind}` pragma: the "
                            "analysis reaches no guarded access on "
                            "this line",
                    path=path, line=lineno, col=0, context="pragma"))
    return findings


# ---------------------------------------------------------------------
# LA023 — lockset consistency
# ---------------------------------------------------------------------

def check_la023(project: Project):
    """Outside its owner a guarded name is never imported or written,
    and read only under a justified ``# laflow: benign-race`` pragma;
    inside the owner every read and write happens with its lock held,
    interprocedurally — a nested ``def`` starting with an empty lockset,
    since it runs after the enclosing ``with`` has exited — with the
    same pragma for deliberate unlocked fast-path reads (every pragma
    verified to be load-bearing)."""
    data = _concurrency(project)
    findings = []
    seen: set = set()
    for path, (mod, accs) in sorted(data["foreign"].items()):
        for kind, name, node, context in accs:
            key = (name, path, node.lineno)
            if key in seen or (kind == "read" and _pragma_at(
                    data, path, node.lineno, "benign-race")):
                continue
            seen.add(key)
            owner, _lock, api = GUARDED_BY[name]
            fix = " or mark the line `# laflow: benign-race — <why>`" \
                if kind == "read" else " instead"
            findings.append(Finding(
                code="LA023",
                message=f"{kind} of {name} outside its owner {owner}; "
                        f"go through {api}{fix}",
                path=mod.path, line=node.lineno, col=node.col_offset,
                context=context))
    for run in data["runs"]:
        for a in run.interp.accesses:
            if a.lock in {l for l, _ in a.locks}:
                continue
            if _access_pragma(data, a, "benign-race"):
                continue
            key = (a.name, _norm(a.path), getattr(a.node, "lineno", 0))
            if key in seen:
                continue
            seen.add(key)
            findings.append(Finding(
                code="LA023",
                message=f"{a.kind} of {a.name} without holding "
                        f"{a.lock}; hold the lock or mark the line "
                        "`# laflow: benign-race — <why>`",
                path=a.path, line=getattr(a.node, "lineno", 1),
                col=getattr(a.node, "col_offset", 0),
                context=run.name))
    findings += _pragma_findings(data, "benign-race", "LA023")
    return findings


# ---------------------------------------------------------------------
# LA024 — atomicity of check-then-act
# ---------------------------------------------------------------------

def check_la024(project: Project):
    """A read of a guarded name in one lock region followed by a write
    in a disjoint region is a split check-then-act: the state can
    change between the two acquisitions.  Generator bodies are exempt
    (save/restore context managers bracket caller code by design), and
    a justified ``# laflow: atomic-split`` pragma on either access (or
    the root call site) accepts a verified-benign split."""
    data = _concurrency(project)
    findings = []
    seen: set = set()
    for run in data["runs"]:
        if run.generator:
            continue
        accs = run.interp.accesses
        for i, r in enumerate(accs):
            if r.kind != "read":
                continue
            r_regs = {reg for l, reg in r.locks if l == r.lock}
            if not r_regs:
                continue        # unlocked read: LA023's problem
            if _access_pragma(data, r, "atomic-split", "benign-race"):
                continue
            for w in accs[i + 1:]:
                if w.name != r.name or w.kind != "write":
                    continue
                w_regs = {reg for l, reg in w.locks if l == w.lock}
                if not w_regs or (r_regs & w_regs):
                    continue
                if _access_pragma(data, w, "atomic-split", "benign-race"):
                    continue
                key = (r.name, _norm(r.path),
                       getattr(r.node, "lineno", 0),
                       _norm(w.path), getattr(w.node, "lineno", 0))
                if key in seen:
                    continue
                seen.add(key)
                findings.append(Finding(
                    code="LA024",
                    message=f"check-then-act on {r.name} split across "
                            f"two {w.lock} regions (read at "
                            f"{os.path.basename(r.path)}:"
                            f"{getattr(r.node, 'lineno', 0)}): the "
                            "state can change between the regions; "
                            "merge them or mark "
                            "`# laflow: atomic-split — <why>`",
                    path=w.path, line=getattr(w.node, "lineno", 1),
                    col=getattr(w.node, "col_offset", 0),
                    context=run.name))
    findings += _pragma_findings(data, "atomic-split", "LA024")
    return findings


# ---------------------------------------------------------------------
# LA025 — lock-order cycles
# ---------------------------------------------------------------------

def check_la025(project: Project):
    """The static lock-acquisition graph must be acyclic, and a
    non-re-entrant lock may not be re-acquired while held.
    STATE_LOCK's RLock re-entrancy is modelled, so nested
    ``with STATE_LOCK:`` (a locked API calling another) stays clean."""
    data = _concurrency(project)
    findings = []
    seen: set = set()
    edges: dict = {}
    for run in data["runs"]:
        for q in run.interp.acquires:
            if q.lock in q.held:
                if not q.reentrant:
                    key = ("self", q.lock, _norm(q.path),
                           getattr(q.node, "lineno", 0))
                    if key in seen:
                        continue
                    seen.add(key)
                    findings.append(Finding(
                        code="LA025",
                        message=f"non-re-entrant lock {q.lock} "
                                "acquired while already held "
                                "(self-deadlock)",
                        path=q.path, line=getattr(q.node, "lineno", 1),
                        col=getattr(q.node, "col_offset", 0),
                        context=run.name))
                continue
            for h in sorted(q.held):
                edges.setdefault((h, q.lock), (q, run))
    graph: dict = {}
    for (a, b) in edges:
        graph.setdefault(a, set()).add(b)

    def reaches(src, dst):
        stack, visited = [src], set()
        while stack:
            n = stack.pop()
            if n == dst:
                return True
            if n in visited:
                continue
            visited.add(n)
            stack.extend(graph.get(n, ()))
        return False

    for (a, b), (q, run) in sorted(edges.items()):
        if not reaches(b, a):
            continue
        comp = frozenset(n for n in graph
                         if reaches(a, n) and reaches(n, a)) | {a, b}
        if comp in seen:
            continue
        seen.add(comp)
        findings.append(Finding(
            code="LA025",
            message="lock-order cycle between "
                    f"{', '.join(sorted(comp))}: here {a} is held "
                    f"while acquiring {b}, elsewhere the order "
                    "reverses; pick one global acquisition order",
            path=q.path, line=getattr(q.node, "lineno", 1),
            col=getattr(q.node, "col_offset", 0),
            context=run.name))
    return findings


# ---------------------------------------------------------------------
# LA026 — thread-local escape
# ---------------------------------------------------------------------

def check_la026(project: Project):
    """Values derived from thread-local state (deadline stacks, calllog
    frames) must stay per-thread: storing one into a module global or a
    long-lived shared container leaks state across requests."""
    data = _concurrency(project)
    findings = []
    seen: set = set()
    for run in data["runs"]:
        for e in run.interp.escapes:
            key = (e.source, e.target, _norm(e.path),
                   getattr(e.node, "lineno", 0))
            if key in seen:
                continue
            seen.add(key)
            findings.append(Finding(
                code="LA026",
                message=f"value derived from thread-local {e.source} "
                        f"is stored into module-level {e.target}; "
                        "thread-local state must not escape into "
                        "long-lived shared containers",
                path=e.path, line=getattr(e.node, "lineno", 1),
                col=getattr(e.node, "col_offset", 0),
                context=run.name))
    return findings
