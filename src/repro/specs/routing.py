"""The structure→driver routing table, derived from the spec registry.

The dispatch front end (:mod:`repro.dispatch_front`) probes a matrix
for structure and asks this module which driver serves a
``(problem_kind, structure, dtype)`` triple best.  There is no
hand-written ``if structure == "spd": la_posv`` ladder anywhere — the
table below is computed entirely from the ``problem_kind`` /
``structure`` fields each :class:`~repro.specs.model.DriverSpec`
declares (lalint rule LA022 forbids rebuilding it by hand), so adding a
structure-aware driver to the registry is all it takes to extend the
front door.

Structures form a refinement lattice: a diagonal matrix is also
triangular, tridiagonal, banded and general; an SPD matrix is also
symmetric.  :data:`REFINEMENTS` encodes the "is also" chains, and
:func:`route` walks a probe's structure through its chain until a
registered driver claims it — so a structure with no dedicated driver
(for a given verb or dtype domain) degrades to the nearest more general
one instead of failing.  ``la_syev`` being real-only, for example,
makes a complex *symmetric* (non-Hermitian) eigenproblem fall through
``symmetric`` to ``general``/``la_geev`` purely from the spec dtype
domains.
"""

from __future__ import annotations

from .registry import SPECS

__all__ = [
    "STRUCTURES", "PROBLEM_KINDS", "REFINEMENTS", "refinement_chain",
    "routing_table", "candidates", "route", "render_routing",
    "splice_routing", "BEGIN_MARK", "END_MARK",
]

#: The structure labels the probe can report, most to least specific.
STRUCTURES = ("diagonal", "triangular", "tridiagonal", "spd", "hpd",
              "banded", "symmetric", "hermitian", "general")

#: The front-door verbs.
PROBLEM_KINDS = ("solve", "lstsq", "eig")

#: structure -> the more general structures it *is also*, nearest first.
#: A diagonal matrix routes as triangular before tridiagonal: one
#: substitution sweep beats a pivoted tridiagonal elimination.
REFINEMENTS = {
    "diagonal": ("triangular", "tridiagonal", "banded", "general"),
    "triangular": ("general",),
    "tridiagonal": ("banded", "general"),
    "banded": ("general",),
    "spd": ("symmetric", "general"),
    "hpd": ("hermitian", "general"),
    "symmetric": ("general",),
    "hermitian": ("general",),
    "general": (),
}


def refinement_chain(structure):
    """``structure`` followed by its refinements, most specific first."""
    if structure not in REFINEMENTS:
        raise ValueError("unknown structure {!r}; known: {}".format(
            structure, ", ".join(STRUCTURES)))
    return (structure,) + REFINEMENTS[structure]


def _claims(kind=None):
    """Specs declaring front-door metadata, in registry order."""
    return [s for s in SPECS.values() if s.problem_kind is not None
            and (kind is None or s.problem_kind == kind)]


def routing_table():
    """``{problem_kind: {structure: [spec, ...]}}`` from the registry.

    Only structures some spec explicitly claims appear; the refinement
    chains make the rest reachable at :func:`route` time.  Solves never
    call this: :data:`_LADDERS` derives every candidate ladder from it
    once, at import.
    """
    table = {}
    for spec in _claims():
        row = table.setdefault(spec.problem_kind, {})
        for label in spec.structure:
            row.setdefault(label, []).append(spec)
    return table


def _serves_dtype(spec, iscomplex):
    return spec.dtypes != ("real" if iscomplex else "complex")


def _ladder(row, structure, iscomplex):
    """The specs of one routing-table row that could serve the pair,
    best first: at each structure on the refinement chain, the specs
    claiming it (registry order) whose dtype domain covers the input."""
    out = []
    for label in refinement_chain(structure):
        out.extend(s for s in row.get(label, ())
                   if _serves_dtype(s, iscomplex) and s not in out)
    return tuple(out)


def _derive_ladders():
    table = routing_table()
    return {(kind, structure, iscomplex):
            _ladder(table.get(kind, {}), structure, iscomplex)
            for kind in table for structure in STRUCTURES
            for iscomplex in (False, True)}


#: ``(kind, structure, iscomplex) -> (spec, ...)``: every candidate
#: ladder, derived once from the frozen registry.
_LADDERS = _derive_ladders()


def candidates(kind, structure, iscomplex=False):
    """Every spec that could serve the triple, best first, as a tuple.

    Walks the refinement chain and, at each structure, takes the specs
    claiming it (registry order) whose dtype domain covers the input.
    """
    try:
        return _LADDERS[kind, structure, bool(iscomplex)]
    except KeyError:
        if kind not in {k for k, _, _ in _LADDERS}:
            raise ValueError("unknown problem kind {!r}; known: {}".format(
                kind, ", ".join(PROBLEM_KINDS))) from None
        refinement_chain(structure)     # raises for an unknown label
        raise


def route(kind, structure, iscomplex=False):
    """The winning spec for ``(problem_kind, structure, dtype domain)``.

    Raises ``LookupError`` when no registered driver claims any
    structure on the refinement chain — which cannot happen for the
    shipped registry, where every chain ends in ``general`` and every
    verb has a general-structure driver.
    """
    found = candidates(kind, structure, iscomplex)
    if not found:
        raise LookupError(
            "no driver routes ({!r}, {!r}, {})".format(
                kind, structure, "complex" if iscomplex else "real"))
    return found[0]


# -- the generated Users' Guide table ---------------------------------

BEGIN_MARK = "<!-- BEGIN GENERATED ROUTING TABLE -->"
END_MARK = "<!-- END GENERATED ROUTING TABLE -->"

_HEADER = ("| Probed structure | `repro.solve` | `repro.lstsq` | "
           "`repro.eig` |\n|---|---|---|---|\n")


def _cell(kind, structure):
    real = route(kind, structure, iscomplex=False)
    cplx = route(kind, structure, iscomplex=True)
    if real is cplx:
        return f"`{real.name}`"
    return f"`{real.name}` / `{cplx.name}` (complex)"


def render_routing() -> str:
    """The structure→driver table as a markdown fragment."""
    out = [
        "_This table is generated from the `problem_kind`/`structure`\n"
        "fields of the driver-spec registry — do not edit it by hand.\n"
        "Regenerate with `PYTHONPATH=src python -m repro.specs\n"
        "--write-routing` after changing the registry._\n\n",
        _HEADER,
    ]
    for structure in STRUCTURES:
        if structure in ("spd", "hpd"):
            # One row: the probe reports spd for real, hpd for complex.
            if structure == "hpd":
                continue
            solve = (f"`{route('solve', 'spd').name}` "
                     f"(trial Cholesky factor reused while the array "
                     f"is unchanged, same backend)")
            lstsq = f"`{route('lstsq', 'spd').name}`"
            eig = (f"`{route('eig', 'spd').name}` / "
                   f"`{route('eig', 'hpd', iscomplex=True).name}` "
                   "(complex)")
            out.append(f"| spd / hpd | {solve} | {lstsq} | {eig} |\n")
            continue
        out.append("| {} | {} | {} | {} |\n".format(
            structure, _cell("solve", structure),
            _cell("lstsq", structure), _cell("eig", structure)))
    return "".join(out)


def splice_routing(text: str) -> str:
    """Replace the marked region of the guide with a fresh render."""
    begin = text.index(BEGIN_MARK) + len(BEGIN_MARK)
    end = text.index(END_MARK)
    return text[:begin] + "\n" + render_routing() + text[end:]
