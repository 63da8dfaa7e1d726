"""laflow self-tests: LA011–LA014 and LA017–LA020 fire on their seeded
fixtures (exact marker lines), stay quiet on the conforming twins, and
the interprocedural machinery (summary memoization, helper-call value
threading, allocation-site remapping, checkpoint replay) is exercised
against a driver that routes its work through helpers.

The dataflow fixtures live under ``fixtures/flow/repro/core/`` so the
spec-bound rules (which only police the core driver package) pick them
up.  ``fixtures/flow/repro/lapack77/stub.py``
is the substrate stub whose ``def`` signatures give the LA018/LA019
effect signatures their kernel parameter order — the fixtures that need
effects are loaded together with it.
"""

import os
import textwrap

from repro.analysis import Project, run_rules
from repro.analysis.flow import (DriverFlow, SummaryEngine,
                                 front_door_sites, kernel_effects,
                                 spec_dim_formulas)
from repro.analysis.flow import values as V
from repro.analysis.flow.rules import _classify_check, _shadowed_checks
from repro.specs.model import ArgSpec, Check, DriverSpec
from repro.specs.registry import SPECS

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "fixtures")
FLOW = os.path.join(FIXTURES, "flow", "repro", "core")
FRONT = os.path.join(FIXTURES, "flow", "repro", "dispatch_front")
STUB = os.path.join(FIXTURES, "flow", "repro", "lapack77", "stub.py")
REPO = os.path.dirname(os.path.dirname(HERE))


def _findings(paths, code=None):
    found = run_rules(Project.load(paths))
    if code is not None:
        found = [f for f in found if f.code == code]
    return found


def _marked_lines(path, code):
    with open(path, "r", encoding="utf-8") as fh:
        return sorted(i for i, line in enumerate(fh, 1)
                      if f"lint: {code}" in line)


def _assert_matches_markers(path, code, extra=()):
    found = _findings([path, *extra], code)
    got = sorted(f.line for f in found)
    want = _marked_lines(path, code)
    assert got == want, f"{code}: findings at {got}, markers at {want}"
    return found


def _flow_fixture(name):
    return os.path.join(FLOW, name)


# -- the abstract interpreter itself ----------------------------------

def test_interpreter_seeds_and_tracks_the_gesv_body():
    path = _flow_fixture("good_la011.py")
    project = Project.load([path])
    (impl,) = [i for i in project.driver_impls()
               if i.driver == "la_gesv"]
    flow = DriverFlow(impl, SPECS["la_gesv"]).run()
    # n = a.shape[0] resolves to the spec's rows2d(a) formula.
    assert ("n", V.atom(("rows", "a")), flow.dim_defs[0][2]) \
        in flow.dim_defs
    assert spec_dim_formulas(SPECS["la_gesv"])["n"] \
        == V.atom(("rows", "a"))
    # The pivot buffer allocation is recorded with symbolic length n
    # and an integer dtype.
    (site,) = flow.allocs
    assert site.shape == (V.atom(("rows", "a")),)
    assert site.dtype == V.DT_INT
    # gesv(a, b) is a sink receiving both caller arrays.
    (sink,) = flow.sinks
    assert sink.callee == "gesv"
    origins = set()
    for val in sink.values:
        if isinstance(val, V.ArrayVal):
            origins |= val.origins
    assert origins == {"a", "b"}
    # ipiv[:] = buf is a write aliasing the declared output.
    assert any(w.names == frozenset({"ipiv"}) for w in flow.writes)


# -- rule true positives (marker-pinned) and clean twins --------------

def test_la011_fires_on_seeded_violations():
    found = _assert_matches_markers(_flow_fixture("bad_la011.py"),
                                    "LA011")
    messages = " | ".join(f.message for f in found)
    assert "cols(a)" in messages and "rows(a)" in messages
    assert "allocation stored into ipiv" in messages


def test_la012_fires_on_seeded_violations():
    found = _assert_matches_markers(_flow_fixture("bad_la012.py"),
                                    "LA012")
    assert "ipiv" in found[0].message
    assert found[0].context == "la_gesv"


def test_la013_fires_on_seeded_violations():
    found = _assert_matches_markers(_flow_fixture("bad_la013.py"),
                                    "LA013")
    assert "float64" in found[0].message


def test_la014_fires_on_seeded_violations():
    found = _assert_matches_markers(_flow_fixture("bad_la014.py"),
                                    "LA014")
    assert "intent(in)" in found[0].message
    assert "mutate a" in found[0].message


def test_la017_fires_on_seeded_violations():
    found = _assert_matches_markers(_flow_fixture("bad_la017.py"),
                                    "LA017")
    assert "error exit -3" in found[0].message
    assert "unreachable" in found[0].message
    assert "ipiv" in found[0].message
    assert "optlen" in found[0].message
    assert found[0].context == "la_gesv"


# -- LA017 over the dispatch front door's borrowed ladders ------------

def test_la017_front_door_fires_on_borrowed_ladder_violations():
    path = os.path.join(FRONT, "bad_front_door.py")
    found = _assert_matches_markers(path, "LA017")
    by_ctx = {f.context: f for f in found}
    lu = by_ctx["la_gesv"]
    assert "front-door _solve_lu" in lu.message
    assert "unreachable" in lu.message
    assert "ipiv" in lu.message
    chol = by_ctx["la_posv"]
    assert "front-door _solve_chol" in chol.message
    assert "always fires" in chol.message
    assert "omits b" in chol.message
    assert "-2" in chol.message


def test_la017_front_door_bad_fixture_only_fires_la017():
    found = _findings([os.path.join(FRONT, "bad_front_door.py")])
    assert {f.code for f in found} == {"LA017"}


def test_la017_front_door_good_fixture_is_quiet():
    assert _findings([os.path.join(FRONT, "good_front_door.py")]) == []


def test_front_door_sites_skips_unmappable_replays():
    project = Project.load([os.path.join(FRONT,
                                         "good_front_door.py")])
    sites = list(front_door_sites(project, SPECS))
    # _replay's dynamic driver name is statically unmappable and the
    # whole function is skipped; only the la_posv replay remains.
    assert [(func.name, driver)
            for _, func, driver, _, _ in sites] \
        == [("_solve_chol", "la_posv")]
    _, _, _, spec, calls = sites[0]
    assert spec is SPECS["la_posv"]
    assert calls[0][1] == {"a", "b", "uplo"}


def test_shipped_front_door_keeps_every_borrowed_exit_live():
    """The acceptance seam: the shipped dispatch front borrows at least
    one validation ladder (the cached-Cholesky la_posv replay) and the
    full LA017 pass stays empty over it."""
    src = os.path.join(REPO, "src", "repro")
    project = Project.load([src])
    sites = list(front_door_sites(project, SPECS))
    assert ("la_posv" in {driver for _, _, driver, _, _ in sites})
    found = [f for f in run_rules(project, select={"LA017"})]
    assert found == [], "\n".join(f.render() for f in found)


def test_la018_fires_on_seeded_violations():
    found = _assert_matches_markers(_flow_fixture("bad_la018.py"),
                                    "LA018", extra=[STUB])
    assert "may overlap" in found[0].message
    assert "alias a" in found[0].message
    assert "written in place" in found[0].message


def test_la019_fires_on_seeded_violations():
    found = _assert_matches_markers(_flow_fixture("bad_la019.py"),
                                    "LA019", extra=[STUB])
    assert "operand b of kernel gesv" in found[0].message
    assert "snapshot_set" in found[0].message


def test_la020_fires_on_seeded_violations():
    found = _assert_matches_markers(_flow_fixture("bad_la020.py"),
                                    "LA020")
    assert "factor -> solve" in found[0].message
    assert "deadlines.check" in found[0].message
    assert "getrf" in found[0].message


def test_bad_flow_fixtures_only_fire_their_own_rule():
    for name, code in [("bad_la011.py", "LA011"),
                       ("bad_la012.py", "LA012"),
                       ("bad_la013.py", "LA013"),
                       ("bad_la014.py", "LA014"),
                       ("bad_la017.py", "LA017"),
                       ("bad_la020.py", "LA020")]:
        found = _findings([_flow_fixture(name)])
        assert {f.code for f in found} == {code}, name
    for name, code in [("bad_la018.py", "LA018"),
                       ("bad_la019.py", "LA019")]:
        found = _findings([_flow_fixture(name), STUB])
        assert {f.code for f in found} == {code}, name


def test_good_flow_fixtures_are_clean():
    for name in ("good_la011.py", "good_la012.py", "good_la013.py",
                 "good_la014.py"):
        assert _findings([_flow_fixture(name)]) == [], name
    # The LA017-LA020 twins load together with the substrate stub so
    # the effect signatures (and LA006's import audit) see its defs.
    for name in ("good_la017.py", "good_la018.py", "good_la019.py",
                 "good_la020.py"):
        assert _findings([_flow_fixture(name), STUB]) == [], name


# -- interprocedural machinery: summaries, effects, classifier --------

_HELPER_DRIVER = """\
    import numpy as np

    from repro.errors import Info, erinfo
    from repro.backends.kernels import gesv
    from repro.resilience import deadlines
    from repro.specs import validate_args

    __all__ = ["la_gesv"]


    def _pivot_buffer(n):
        return np.zeros(n, dtype=np.intp)


    def _entry_guard(srname, info):
        deadlines.check(srname, "entry", info)


    def la_gesv(a, b, ipiv=None, info=None):
        srname = "LA_GESV"
        exc = None
        linfo = validate_args("la_gesv", a=a, b=b, ipiv=ipiv)
        if linfo == 0:
            _entry_guard(srname, info)
            n = a.shape[0]
            buf = _pivot_buffer(n)
            extra = _pivot_buffer(n)
            _, linfo = gesv(a, b)
            if ipiv is not None:
                ipiv[:] = buf
        erinfo(linfo, srname, info, exc=exc)
        return b
    """


def _helper_flow(tmp_path):
    pkg = tmp_path / "repro" / "core"
    pkg.mkdir(parents=True)
    path = pkg / "driver.py"
    path.write_text(textwrap.dedent(_HELPER_DRIVER), encoding="utf-8")
    project = Project.load([str(path)])
    (impl,) = [i for i in project.driver_impls()
               if i.driver == "la_gesv"]
    engine = SummaryEngine(project)
    flow = DriverFlow(impl, SPECS["la_gesv"], summaries=engine).run()
    return engine, flow


def test_summary_memoization_interprets_each_helper_once(tmp_path):
    engine, flow = _helper_flow(tmp_path)
    # _pivot_buffer is called twice with the same abstract input (the
    # spec dimension n) but interpreted once; _entry_guard once.
    assert engine.computed == 2


def test_helper_return_value_threads_into_the_caller(tmp_path):
    engine, flow = _helper_flow(tmp_path)
    # Each _pivot_buffer call instantiates a *fresh* caller allocation
    # site (an allocation per call, even on a memo hit), carrying the
    # helper's symbolic shape and dtype.
    assert len(flow.allocs) == 2
    for site in flow.allocs:
        assert site.shape == (V.atom(("rows", "a")),)
        assert site.dtype == V.DT_INT
    # The first call's return value flows through buf into the
    # ipiv[:] = buf store with its remapped allocation index.
    (write,) = [w for w in flow.writes
                if w.names == frozenset({"ipiv"})]
    assert isinstance(write.value, V.ArrayVal)
    assert write.value.allocs == frozenset({flow.allocs[0].index})


def test_helper_checkpoints_replay_at_depth_one(tmp_path):
    engine, flow = _helper_flow(tmp_path)
    (mark,) = flow.checkpoints
    assert mark.stage == "entry"
    assert mark.depth == 1      # LA020 only credits depth-0 checkpoints


def test_kernel_effects_derive_from_spec_intents():
    project = Project.load([STUB])
    effects = kernel_effects(project, SPECS)
    gesv = effects["gesv"]
    assert gesv.params == ("a", "b")
    assert gesv.arrays == frozenset({"a", "b"})
    assert gesv.written == frozenset({"a", "b"})
    lagge = effects["lagge"]
    assert "a" in lagge.written and "d" not in lagge.written
    # Slot alignment covers positionals and keywords alike.
    slots = gesv.slots((1,), (("b", 2),))
    assert slots == {"a": 1, "b": 2}


_LA017_SPEC = DriverSpec(
    "la_x", "§T", "synthetic classifier subject",
    args=(ArgSpec("a", 1),
          ArgSpec("ipiv", 3, kind="vector", required=False,
                  intent="out")),
    dims=(("n", "rows2d", "a"),))


def test_la017_classifier_mirrors_engine_semantics():
    spec = _LA017_SPEC
    every = {"a", "ipiv", "w", "trans"}
    # A missing optional-length arg enters as None and disarms the
    # check forever; a missing square arg violates unconditionally.
    assert _classify_check(Check(-3, "optlen", ("ipiv",), "n"),
                           spec, {"a"}) == "never"
    assert _classify_check(Check(-3, "optlen", ("ipiv",), "n"),
                           spec, every) == "ok"
    assert _classify_check(Check(-1, "square", ("a",)),
                           spec, set()) == "always"
    assert _classify_check(Check(-1, "square", ("a",)),
                           spec, every) == "ok"
    # reqlen: one side missing always fires, both missing never does
    # (the -1 sentinels agree).
    assert _classify_check(Check(-4, "reqlen", ("w",), "n"),
                           spec, {"a"}) == "always"
    assert _classify_check(Check(-4, "reqlen", ("w",), "n"),
                           spec, set()) == "never"
    # flag in "first" mode is satisfied by str(None) when "N" is legal.
    assert _classify_check(
        Check(-2, "flag", ("trans",),
              params={"options": ("N", "T"), "mode": "first"}),
        spec, set()) == "ok"
    assert _classify_check(
        Check(-2, "flag", ("uplo",),
              params={"options": ("U", "L")}),
        spec, set()) == "always"
    # lsame(None, 'F') is False: the fact guard never opens.
    assert _classify_check(Check(-5, "fact_requires", ("fact",)),
                           spec, set()) == "never"


def test_la017_shadowed_checks_detects_duplicates():
    dup = DriverSpec(
        "la_x", "§T", "synthetic", args=_LA017_SPEC.args,
        dims=_LA017_SPEC.dims,
        checks=(Check(-1, "square", ("a",)),
                Check(-2, "optlen", ("ipiv",), "n"),
                Check(-3, "square", ("a",))))
    ((shadowed, first),) = _shadowed_checks(dup)
    assert shadowed.code == -3 and first.code == -1
    assert _shadowed_checks(_LA017_SPEC) == []


# -- the shipped tree passes the new rules ----------------------------

def test_shipped_tree_clean_under_flow_rules():
    src = os.path.join(REPO, "src", "repro")
    found = _findings([src])
    flow_findings = [f for f in found if f.code >= "LA011"]
    assert flow_findings == [], \
        "\n".join(f.render() for f in flow_findings)


def test_shipped_gesvd_writes_its_ww_output():
    """The LA012 true positive this PR fixed must stay fixed: la_gesvd
    now threads the bidiagonal superdiagonal into ww."""
    src = os.path.join(REPO, "src", "repro", "core", "eigen.py")
    assert _findings([src], "LA012") == []
