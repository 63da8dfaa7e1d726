"""AST project model for ``lalint``.

The model never imports the code under analysis.  It parses every
``*.py`` file it is pointed at and derives, per module:

* the top-level functions and which of them are public ``la_*`` drivers,
* per-function 1-based argument positions (the LINFO convention),
* a simple alias map (``n = d.shape[0]`` makes ``n`` stand for ``d``),
* helper delegation — ``la_sysv`` implemented as
  ``return _indef_driver("LA_SYSV", sysv, a, b, uplo, ipiv, info)``
  is analysed through the helper with positions remapped via the call
  site,
* which names come from the ``lapack77`` substrate, and
* a reporter classification fixpoint: functions that *always* report
  through ``erinfo`` on every exit path versus those that *sometimes*
  do (used by LA001's path analysis).
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field

__all__ = ["Project", "Module", "DriverImpl", "neg_literal",
           "call_name", "names_in"]

#: ``la_*`` helpers that are not drivers (workspace-size queries).
NON_DRIVER_LA = {"la_ws_gels", "la_ws_gelss"}

#: Seed of the always-reporting fixpoint.
REPORTER_SEED = {"erinfo", "xerbla"}


def call_name(node: ast.AST) -> str | None:
    """Dotted-free name of a call target (``f(...)`` or ``m.f(...)``)."""
    if not isinstance(node, ast.Call):
        return None
    f = node.func
    if isinstance(f, ast.Name):
        return f.id
    if isinstance(f, ast.Attribute):
        return f.attr
    return None


def neg_literal(node: ast.AST) -> int | None:
    """Value of a literal negative int (``-3`` parses as USub(3))."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub) \
            and isinstance(node.operand, ast.Constant) \
            and isinstance(node.operand.value, int):
        return -node.operand.value
    if isinstance(node, ast.Constant) and isinstance(node.value, int) \
            and node.value < 0:
        return node.value
    return None


def int_literal(node: ast.AST) -> int | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, int) \
            and not isinstance(node.value, bool):
        return node.value
    neg = neg_literal(node)
    return neg


def names_in(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def is_info_value_store(stmt: ast.AST) -> bool:
    """``info.value = ...`` counts as reporting (fallback bookkeeping)."""
    if not isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
        return False
    targets = stmt.targets if isinstance(stmt, ast.Assign) \
        else [stmt.target]
    for t in targets:
        if isinstance(t, ast.Attribute) and t.attr == "value" \
                and isinstance(t.value, ast.Name) and t.value.id == "info":
            return True
    return False


@dataclass
class Module:
    path: str
    tree: ast.Module
    functions: dict = field(default_factory=dict)   # name -> FunctionDef
    classes: dict = field(default_factory=dict)     # name -> ClassDef
    imports: dict = field(default_factory=dict)     # name -> module str
    #: Raw ``from``-import records ``(level, module, name, asname)`` —
    #: unlike :attr:`imports` these keep the relative level, so the
    #: concurrency pass can resolve ``from . import cache`` to the
    #: actual project file instead of guessing by bare name.
    import_records: list = field(default_factory=list)
    source_lines: tuple = ()                        # for pragma scans
    all_literal: list | None = None                 # None = absent
    all_dynamic: bool = False
    all_node: ast.AST | None = None
    substrate_names: set = field(default_factory=set)

    @property
    def is_substrate(self) -> bool:
        p = self.path.replace(os.sep, "/")
        return "/lapack77/" in p or p.endswith("/lapack77")

    @property
    def is_f77_compat(self) -> bool:
        """The ``F77_LAPACK`` compatibility layer keeps the FORTRAN 77
        convention — ``info`` is the return value and argument errors
        raise through XERBLA — so the F90 wrapper-contract rules do not
        apply to its ``la_*`` functions."""
        p = self.path.replace(os.sep, "/")
        return "/f77/" in p or p.endswith("/f77")

    def drivers(self):
        if self.is_f77_compat:
            return {}
        return {n: f for n, f in self.functions.items()
                if n.startswith("la_") and n not in NON_DRIVER_LA}


@dataclass
class DriverImpl:
    """Where a driver's contract logic actually lives.

    For plain drivers ``func`` is the driver itself and ``posmap`` maps
    each of its own parameters to its 1-based position.  For delegating
    drivers ``func`` is the helper and ``posmap`` maps *helper*
    parameter names to positions in the public driver's signature.
    """

    driver: str
    module: Module
    func: ast.FunctionDef
    impl_module: Module
    posmap: dict            # impl param name -> 1-based driver position
    delegated: bool = False
    callmap: dict = field(default_factory=dict)
    # callmap: helper param name -> substrate kernel bound at the
    # delegation site (``_indef_expert(srname, sytrf, sytrs, ...)``),
    # so laflow can resolve calls through those parameters.


def param_positions(func: ast.FunctionDef) -> dict:
    """1-based positions of all positional/keyword parameters."""
    args = list(func.args.posonlyargs) + list(func.args.args)
    return {a.arg: i + 1 for i, a in enumerate(args)}


def param_defaults(func: ast.FunctionDef) -> dict:
    """Map param name -> default AST node (positional params only)."""
    args = list(func.args.posonlyargs) + list(func.args.args)
    defaults = list(func.args.defaults)
    out = {}
    for a, d in zip(args[len(args) - len(defaults):], defaults):
        out[a.arg] = d
    for a, d in zip(func.args.kwonlyargs, func.args.kw_defaults):
        if d is not None:
            out[a.arg] = d
    return out


def body_statements(func: ast.FunctionDef):
    """Function body with a leading docstring stripped."""
    body = func.body
    if body and isinstance(body[0], ast.Expr) \
            and isinstance(body[0].value, ast.Constant) \
            and isinstance(body[0].value.value, str):
        return body[1:]
    return body


def alias_map(func: ast.FunctionDef, params: set) -> dict:
    """Map local names to the set of parameters they derive from.

    Handles the codebase's idioms: ``n = a.shape[0]``, ``t =
    trans.upper()``, ``m, n = a.shape``, ``ku = rows - 2 * kl - 1``
    (transitively through earlier aliases).  Conditional expressions
    contribute the union of both arms.
    """
    aliases = {p: {p} for p in params}
    assigns = sorted(
        (n for n in ast.walk(func) if isinstance(n, ast.Assign)),
        key=lambda n: n.lineno)

    def sources(node):
        out = set()
        for name in names_in(node):
            out |= aliases.get(name, set())
        return out

    for _ in range(2):   # two passes settle chains like rows -> ku
        for stmt in assigns:
            src = sources(stmt.value)
            if not src:
                continue
            for target in stmt.targets:
                elts = [target] if isinstance(target, ast.Name) \
                    else list(getattr(target, "elts", []))
                for elt in elts:
                    if isinstance(elt, ast.Name):
                        aliases.setdefault(elt.id, set())
                        aliases[elt.id] |= src
    return aliases


class Project:
    """All parsed modules plus cross-module lookup tables."""

    def __init__(self):
        self.modules: list[Module] = []
        self.functions: dict = {}        # name -> (Module, FunctionDef)
        self.always_reporting: set = set(REPORTER_SEED)
        self.sometimes_reporting: set = set()

    # -- loading ----------------------------------------------------

    @classmethod
    def load(cls, paths) -> "Project":
        proj = cls()
        for path in _expand(paths):
            proj._load_file(path)
        proj._classify_reporters()
        return proj

    def _load_file(self, path: str) -> None:
        with open(path, "r", encoding="utf-8") as fh:
            source = fh.read()
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError:
            return
        mod = Module(path=path, tree=tree,
                     source_lines=tuple(source.splitlines()))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                mod.functions[node.name] = node
            elif isinstance(node, ast.ClassDef):
                mod.classes[node.name] = node
            elif isinstance(node, ast.Assign):
                for t in node.targets:
                    if isinstance(t, ast.Name) and t.id == "__all__":
                        mod.all_node = node
                        lits = _literal_strs(node.value)
                        if lits is None:
                            mod.all_dynamic = True
                        else:
                            mod.all_literal = lits
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                src = node.module or ""
                for alias in node.names:
                    name = alias.asname or alias.name
                    mod.imports[name] = src
                    mod.import_records.append(
                        (node.level, src, alias.name, name))
                    parts = src.split(".")
                    # Direct substrate imports and registry-dispatched
                    # proxies (repro.backends.kernels) both count as
                    # "the lapack77 call" for the call-ordering and
                    # catalogue rules (LA004/LA006).
                    if "lapack77" in parts or \
                            ("backends" in parts and
                             parts[-1] == "kernels"):
                        mod.substrate_names.add(name)
        self.modules.append(mod)
        for name, func in mod.functions.items():
            self.functions.setdefault(name, (mod, func))

    # -- driver implementations ------------------------------------

    def driver_impls(self):
        """Yield a :class:`DriverImpl` for every public driver."""
        for mod in self.modules:
            for name, func in sorted(mod.drivers().items()):
                yield self._resolve_impl(name, func, mod)

    def _resolve_impl(self, name, func, mod) -> DriverImpl:
        own = param_positions(func)
        body = body_statements(func)
        if len(body) == 1 and isinstance(body[0], ast.Return) \
                and isinstance(body[0].value, ast.Call):
            call = body[0].value
            helper = call_name(call)
            if helper and helper in self.functions \
                    and helper.startswith("_"):
                hmod, hfunc = self.functions[helper]
                posmap = self._map_call(call, hfunc, own)
                if posmap is not None:
                    callmap = self._map_callables(
                        call, hfunc, mod.substrate_names)
                    return DriverImpl(driver=name, module=mod, func=hfunc,
                                      impl_module=hmod, posmap=posmap,
                                      delegated=True, callmap=callmap)
        return DriverImpl(driver=name, module=mod, func=func,
                          impl_module=mod, posmap=own)

    @staticmethod
    def _map_call(call, hfunc, caller_positions) -> dict | None:
        """Map helper params to driver positions via the call site."""
        hparams = list(hfunc.args.posonlyargs) + list(hfunc.args.args)
        posmap = {}
        for i, arg in enumerate(call.args):
            if i >= len(hparams):
                return None
            if isinstance(arg, ast.Name) and arg.id in caller_positions:
                posmap[hparams[i].arg] = caller_positions[arg.id]
        for kw in call.keywords:
            if kw.arg and isinstance(kw.value, ast.Name) \
                    and kw.value.id in caller_positions:
                posmap[kw.arg] = caller_positions[kw.value.id]
        return posmap

    @staticmethod
    def _map_callables(call, hfunc, substrate_names) -> dict:
        """Map helper params to substrate kernels passed at the site."""
        hparams = list(hfunc.args.posonlyargs) + list(hfunc.args.args)
        callmap = {}
        for i, arg in enumerate(call.args):
            if i < len(hparams) and isinstance(arg, ast.Name) \
                    and arg.id in substrate_names:
                callmap[hparams[i].arg] = arg.id
        for kw in call.keywords:
            if kw.arg and isinstance(kw.value, ast.Name) \
                    and kw.value.id in substrate_names:
                callmap[kw.arg] = kw.value.id
        return callmap

    # -- reporter classification -----------------------------------

    def _classify_reporters(self) -> None:
        changed = True
        while changed:
            changed = False
            for name, (mod, func) in self.functions.items():
                if name in self.always_reporting:
                    continue
                if self._always_reports(func):
                    self.always_reporting.add(name)
                    changed = True
        changed = True
        while changed:
            changed = False
            for name, (mod, func) in self.functions.items():
                if name in self.sometimes_reporting:
                    continue
                if self._sometimes_reports(func):
                    self.sometimes_reporting.add(name)
                    changed = True

    def stmt_reports(self, stmt: ast.stmt) -> bool:
        """Does this simple statement unconditionally report?"""
        if is_info_value_store(stmt):
            return True
        if isinstance(stmt, (ast.Expr, ast.Assign, ast.Return,
                             ast.AugAssign, ast.AnnAssign, ast.Raise)):
            for node in ast.walk(stmt):
                if call_name(node) in self.always_reporting:
                    return True
        return False

    def expr_reports(self, expr: ast.AST | None, always_only=False) -> bool:
        if expr is None:
            return False
        pool = self.always_reporting if always_only \
            else self.always_reporting | self.sometimes_reporting
        return any(call_name(node) in pool for node in ast.walk(expr))

    def _always_reports(self, func: ast.FunctionDef) -> bool:
        ok, fell_through, reported = self._walk(body_statements(func),
                                                False)
        if not ok:
            return False
        return reported if fell_through else True

    def _walk(self, stmts, reported, on_uncovered=None):
        """Walk a block; return ``(all_exits_reported, fell_through,
        reported_at_end)``.

        ``on_uncovered`` (LA001) receives each ``return`` statement that
        exits without a report having been issued on its path.
        """
        ok = True
        for stmt in stmts:
            if isinstance(stmt, ast.Return):
                covered = reported or self.expr_reports(stmt.value,
                                                        always_only=True)
                if not covered and on_uncovered is not None:
                    on_uncovered(stmt)
                return ok and covered, False, reported
            if isinstance(stmt, ast.Raise):
                return ok, False, reported
            if isinstance(stmt, ast.If):
                if _is_info_guard(stmt):
                    # ``if info is not None: info.value = ...`` — the
                    # store half of the ERINFO protocol; counts as an
                    # unconditional report (erinfo itself raises only
                    # for error-class codes when info is omitted).
                    reported = True
                    continue
                branch_in = reported or self.expr_reports(stmt.test)
                b_ok, b_fell, b_rep = self._walk(stmt.body, branch_in,
                                                 on_uncovered)
                e_ok, e_fell, e_rep = self._walk(stmt.orelse, reported,
                                                 on_uncovered)
                ok = ok and b_ok and e_ok
                if not b_fell and not e_fell:
                    return ok, False, reported
                if b_fell and e_fell:
                    reported = b_rep and e_rep
                else:
                    reported = b_rep if b_fell else e_rep
                continue
            if isinstance(stmt, (ast.For, ast.While, ast.With, ast.Try)):
                for block in _sub_blocks(stmt):
                    b_ok, _, _ = self._walk(block, reported, on_uncovered)
                    ok = ok and b_ok
                continue
            if self.stmt_reports(stmt):
                reported = True
        return ok, True, reported

    def _sometimes_reports(self, func: ast.FunctionDef) -> bool:
        pool = self.always_reporting | self.sometimes_reporting
        for node in ast.walk(func):
            if call_name(node) in pool:
                return True
            if isinstance(node, ast.stmt) and is_info_value_store(node):
                return True
        return False


def _is_info_guard(stmt: ast.If) -> bool:
    """Match ``if info is not None: <only info.value stores>``."""
    test = stmt.test
    if not (isinstance(test, ast.Compare) and len(test.ops) == 1
            and isinstance(test.ops[0], (ast.IsNot, ast.NotEq))
            and isinstance(test.left, ast.Name)
            and test.left.id == "info"
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value is None):
        return False
    if stmt.orelse:
        return False
    return all(isinstance(s, (ast.Assign, ast.AugAssign, ast.AnnAssign))
               for s in stmt.body) \
        and any(is_info_value_store(s) for s in stmt.body)


def _sub_blocks(stmt):
    blocks = [getattr(stmt, "body", []), getattr(stmt, "orelse", [])]
    blocks.append(getattr(stmt, "finalbody", []))
    for handler in getattr(stmt, "handlers", []):
        blocks.append(handler.body)
    return [b for b in blocks if b]


def _literal_strs(node) -> list | None:
    if isinstance(node, (ast.List, ast.Tuple)):
        out = []
        for elt in node.elts:
            if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                out.append(elt.value)
            else:
                return None
        return out
    return None


def _expand(paths):
    seen = []
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs[:] = sorted(d for d in dirs
                                 if d not in ("__pycache__", ".git"))
                for name in sorted(files):
                    if name.endswith(".py"):
                        seen.append(os.path.join(root, name))
        elif path.endswith(".py"):
            seen.append(path)
    return seen
