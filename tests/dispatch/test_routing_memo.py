"""The routing ladders are derived once, at import, from the frozen
registry: every cached ladder must equal a fresh derivation from
``routing_table()``, and no caller can edit one."""

import pytest

from repro.specs import routing
from repro.specs.routing import (PROBLEM_KINDS, STRUCTURES, candidates,
                                 refinement_chain, route, routing_table)

TRIPLES = [(kind, structure, iscomplex) for kind in PROBLEM_KINDS
           for structure in STRUCTURES for iscomplex in (False, True)]


def _fresh(kind, structure, iscomplex):
    """The ladder walked from a freshly built routing table."""
    row = routing_table()[kind]
    out = []
    for label in refinement_chain(structure):
        for spec in row.get(label, ()):
            domain_ok = spec.dtypes != ("real" if iscomplex else "complex")
            if domain_ok and spec not in out:
                out.append(spec)
    return tuple(out)


def test_every_cached_ladder_matches_a_fresh_derivation():
    assert len(TRIPLES) == 3 * 9 * 2
    assert set(routing._LADDERS) == set(TRIPLES)
    for triple in TRIPLES:
        want = _fresh(*triple)
        assert want, triple
        assert candidates(*triple) == want, triple
        assert route(*triple) is want[0], triple


def test_returned_ladders_cannot_change_the_next_route():
    before = {t: route(*t) for t in TRIPLES}
    ladder = candidates("solve", "spd")
    assert isinstance(ladder, tuple)
    with pytest.raises(TypeError):
        ladder[0] = ladder[-1]
    # The docs' table is rebuilt per call; editing it routes nothing.
    table = routing_table()
    table["solve"]["spd"].reverse()
    table["eig"].clear()
    assert {t: route(*t) for t in TRIPLES} == before


def test_unknown_kind_and_structure_still_raise():
    with pytest.raises(ValueError, match="problem kind"):
        candidates("factor", "general")
    with pytest.raises(ValueError, match="structure"):
        candidates("solve", "sparse")
