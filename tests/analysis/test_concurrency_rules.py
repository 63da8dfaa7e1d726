"""LA023–LA026 self-tests: the concurrency rules fire on their seeded
fixtures (exact marker lines), stay quiet on the conforming twins, and
the lock-model machinery behind them — locksets joining at branch
merges, locksets propagating through memoized cross-module summaries,
nested ``def``s starting with an empty lockset, STATE_LOCK
re-entrancy, the ``guarded_by`` registry with its owner boundary, and
pragma verification — is exercised against synthesized module trees.

The fixtures live flat under ``fixtures/concurrency/``.  The lock-model
ones declare their own lock and a ``_LAFLOW_GUARDED`` table, the
declarative opt-in for guarded state outside the shipped registry; the
``*_la023_owner_*`` ones are foreign modules reaching (or not) into the
shipped registry's state, linted alone.
"""

import os
import textwrap

from repro.analysis import Project, run_rules
from repro.analysis.flow import (GUARDED_BY, check_la023, check_la024,
                                 check_la025, check_la026)

HERE = os.path.dirname(os.path.abspath(__file__))
CONC = os.path.join(HERE, "fixtures", "concurrency")
REPO = os.path.dirname(os.path.dirname(HERE))

CHECKS = {"LA023": check_la023, "LA024": check_la024,
          "LA025": check_la025, "LA026": check_la026}


def _fixture(name):
    return os.path.join(CONC, name)


def _findings(paths, code):
    return CHECKS[code](Project.load(list(paths)))


def _marked_lines(path, code):
    with open(path, "r", encoding="utf-8") as fh:
        return sorted(i for i, line in enumerate(fh, 1)
                      if f"lint: {code}" in line)


def _assert_matches_markers(name, code):
    path = _fixture(name)
    got = sorted(f.line for f in _findings([path], code))
    want = _marked_lines(path, code)
    assert got == want, f"{code}: findings at {got}, markers at {want}"


# -- fixtures fire exactly on their markers ----------------------------

def test_la023_fires_on_seeded_violations():
    _assert_matches_markers("bad_la023.py", "LA023")


def test_la024_fires_on_seeded_violations():
    _assert_matches_markers("bad_la024.py", "LA024")


def test_la025_fires_on_seeded_violations():
    _assert_matches_markers("bad_la025.py", "LA025")


def test_la026_fires_on_seeded_violations():
    _assert_matches_markers("bad_la026.py", "LA026")


def test_la023_owner_boundary_fires_on_config_state():
    _assert_matches_markers("bad_la023_owner_config.py", "LA023")
    found = _findings([_fixture("bad_la023_owner_config.py")], "LA023")
    messages = " | ".join(f.message for f in found)
    for name in ("_POLICY", "_SELECTED", "_BLOCK_SIZES", "set_policy()"):
        assert name in messages
    assert "import of _POLICY" in messages


def test_la023_owner_boundary_fires_on_resilience_state():
    _assert_matches_markers("bad_la023_owner_resilience.py", "LA023")
    found = _findings([_fixture("bad_la023_owner_resilience.py")],
                      "LA023")
    messages = " | ".join(f.message for f in found)
    for name in ("_BREAKERS", "_RESILIENCE", "_ARMED", "_CHAOS",
                 "set_resilience()", "chaos_active()"):
        assert name in messages
    assert "write of CHAOS_ACTIVE" in messages
    assert "read of CHAOS_ACTIVE" in messages


def test_good_concurrency_fixtures_are_clean():
    for name in ("good_la023.py", "good_la024.py", "good_la025.py",
                 "good_la026.py", "good_la023_owner_config.py",
                 "good_la023_owner_resilience.py"):
        for code in CHECKS:
            assert _findings([_fixture(name)], code) == [], (name, code)
        assert run_rules(Project.load([_fixture(name)])) == [], name


def test_bad_concurrency_fixtures_only_fire_their_own_rule():
    for name, code in (("bad_la023.py", "LA023"),
                       ("bad_la024.py", "LA024"),
                       ("bad_la025.py", "LA025"),
                       ("bad_la026.py", "LA026"),
                       ("bad_la023_owner_config.py", "LA023"),
                       ("bad_la023_owner_resilience.py", "LA023")):
        found = run_rules(Project.load([_fixture(name)]))
        assert {f.code for f in found} == {code}, (name, found)


# -- the lock model itself ---------------------------------------------

def test_branch_merge_drops_one_armed_locks():
    # ``one_armed_join`` acquires only on one arm; the merged lockset
    # after the ``if`` must not still hold the lock.
    found = _findings([_fixture("bad_la023.py")], "LA023")
    assert any(f.context == "one_armed_join" for f in found)


def test_both_arm_acquisition_survives_the_merge():
    # ``both_arms`` in the good twin acquires on *both* arms — the
    # must-intersection keeps the lock and the guarded read is clean.
    assert _findings([_fixture("good_la023.py")], "LA023") == []


def test_reentrant_state_lock_is_not_a_cycle():
    # ``with STATE_LOCK:`` nested inside ``with STATE_LOCK:`` models the
    # RLock: no self-deadlock finding, unlike LOCK_A in the bad twin.
    assert _findings([_fixture("good_la025.py")], "LA025") == []
    found = _findings([_fixture("bad_la025.py")], "LA025")
    assert any("self-deadlock" in f.message for f in found)
    assert any("lock-order cycle" in f.message for f in found)


def test_interprocedural_split_reports_at_the_act(tmp_path=None):
    # ``split_across_helpers`` locks correctly inside each helper; only
    # the lockset threaded through both summaries exposes the split.
    found = _findings([_fixture("bad_la024.py")], "LA024")
    assert any(f.context == "split_across_helpers" for f in found)


# -- synthesized owner trees (the shipped registry, not _LAFLOW_GUARDED)

def _write_tree(tmp_path, files):
    paths = []
    for rel, body in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(body))
        paths.append(str(path))
    return Project.load([str(tmp_path)])


def test_owner_suffix_derivation_guards_policy(tmp_path):
    # A module whose path matches a registry owner suffix inherits the
    # entry without declaring _LAFLOW_GUARDED.
    project = _write_tree(tmp_path, {
        "repro/policy.py": """\
            _POLICY = object()

            def set_policy_badly(value):
                global _POLICY
                _POLICY = value
            """,
    })
    found = check_la023(project)
    assert [f.line for f in found] == [5]
    assert "_POLICY" in found[0].message
    assert "STATE_LOCK" in found[0].message


def test_la023_owner_mutation_requires_the_lock(tmp_path):
    project = _write_tree(tmp_path, {
        "repro/policy.py": """\
            from ._sync import STATE_LOCK

            _POLICY = object()          # top-level init: allowed

            def set_policy(value):
                _POLICY.mode = value    # unlocked mutation

            def set_policy_locked(value):
                with STATE_LOCK:
                    _POLICY.mode = value
            """,
    })
    found = check_la023(project)
    # The finding points at the unlocked store, not the locked one.
    assert [f.line for f in found] == [6]
    assert "without holding STATE_LOCK" in found[0].message


def test_la023_breaker_owner_mutation_requires_the_lock(tmp_path):
    project = _write_tree(tmp_path, {
        "repro/resilience/breaker.py": """\
            from .._sync import STATE_LOCK

            _BREAKERS = {}              # top-level init: allowed

            def trip(key):
                _BREAKERS[key] = 1      # unlocked mutation

            def trip_locked(key):
                with STATE_LOCK:
                    _BREAKERS[key] = 1
            """,
    })
    found = check_la023(project)
    assert [f.line for f in found] == [6]
    assert "_BREAKERS" in found[0].message


def test_la023_nested_def_loses_the_lexical_lock(tmp_path):
    # The closure runs after ``make_setter`` has left the ``with``.
    project = _write_tree(tmp_path, {
        "repro/policy.py": """\
            from ._sync import STATE_LOCK

            _POLICY = object()

            def make_setter():
                with STATE_LOCK:
                    def setter(value):
                        _POLICY.mode = value    # runs unlocked
                    return setter
            """,
    })
    found = check_la023(project)
    assert [(f.line, f.context) for f in found] == \
        [(8, "make_setter.setter")]


def test_la023_thread_local_deadline_stack_is_lock_exempt(tmp_path):
    # The owner mutates its threading.local without the lock; a foreign
    # module may not touch it at all.
    owner = {
        "repro/resilience/deadlines.py": """\
            import threading

            _DEADLINES = threading.local()

            def _stack():
                _DEADLINES.stack = []       # thread-local: no lock needed
                return _DEADLINES.stack
            """,
    }
    assert check_la023(_write_tree(tmp_path / "owner", owner)) == []
    project = _write_tree(tmp_path / "foreign", {
        **owner,
        "repro/resilience/dispatch.py": """\
            from . import deadlines

            def peek():
                return deadlines._DEADLINES.stack
            """,
    })
    found = check_la023(project)
    assert [(f.path.endswith("dispatch.py"), f.line) for f in found] == \
        [(True, 4)]
    assert "read of _DEADLINES" in found[0].message


def test_la023_foreign_access_through_a_relative_import(tmp_path):
    # The seam's own shape: ``from .. import faults`` in a foreign
    # module.  Writes are findings even under the lock; the one
    # justified read is not, and its pragma counts as load-bearing.
    project = _write_tree(tmp_path, {
        "repro/faults.py": """\
            import threading

            STATE_LOCK = threading.RLock()

            CHAOS_ACTIVE = False
            _CHAOS = {}

            def chaos_active():
                with STATE_LOCK:
                    return CHAOS_ACTIVE
            """,
        "repro/resilience/dispatch.py": """\
            from .. import faults
            from ..faults import STATE_LOCK

            def arm():
                with STATE_LOCK:
                    faults.CHAOS_ACTIVE = True

            def drop(routine):
                faults._CHAOS.pop(routine, None)

            def armed():
                return faults.CHAOS_ACTIVE

            def gate():
                return faults.CHAOS_ACTIVE  # laflow: benign-race — gate
            """,
    })
    found = check_la023(project)
    found.sort(key=lambda f: f.line)
    assert [(f.line, f.message.split(" outside")[0]) for f in found] == \
        [(6, "write of CHAOS_ACTIVE"), (9, "write of _CHAOS"),
         (12, "read of CHAOS_ACTIVE")]
    assert all(f.path.endswith("dispatch.py") for f in found)
    assert "chaos_active()" in found[0].message


def test_cross_module_summary_propagates_the_callers_lockset(tmp_path):
    # The helper mutates guarded state with no lock of its own — its
    # summary, replayed into a locked cross-module caller, inherits the
    # caller's lockset (the shipped breaker._sync shape)...
    cache_body = """\
        import threading

        STATE_LOCK = threading.RLock()

        _ENTRIES = {}

        def _bump(key):
            _ENTRIES[key] = _ENTRIES.get(key, 0) + 1

        def bump_locked(key):
            with STATE_LOCK:
                _bump(key)
        """
    clean = _write_tree(tmp_path / "clean", {
        "repro/dispatch_front/cache.py": cache_body,
        "repro/dispatch_front/api.py": """\
            from .cache import STATE_LOCK, _bump

            def locked_front(key):
                with STATE_LOCK:
                    _bump(key)
            """,
    })
    assert check_la023(clean) == []
    # ... while an unlocked cross-module caller leaves the helper's
    # guarded accesses bare, reported at the helper's own line.
    dirty = _write_tree(tmp_path / "dirty", {
        "repro/dispatch_front/cache.py": cache_body,
        "repro/dispatch_front/api.py": """\
            from .cache import _bump

            def unlocked_front(key):
                _bump(key)
            """,
    })
    found = check_la023(dirty)
    assert found and all(f.path.endswith("cache.py") for f in found)
    assert {f.line for f in found} == {8}
    assert {f.context for f in found} == {"unlocked_front"}


def test_pragma_requires_a_justification(tmp_path):
    project = _write_tree(tmp_path, {
        "mod.py": """\
            import threading

            STATE_LOCK = threading.RLock()

            _LAFLOW_GUARDED = {"_T": "STATE_LOCK"}

            _T = {}

            def f(key):
                with STATE_LOCK:
                    return _T.get(key)  # laflow: benign-race
            """,
    })
    found = check_la023(project)
    assert [f.line for f in found] == [11]
    assert "justification" in found[0].message


# -- the registry and the shipped tree ---------------------------------

def test_guarded_by_covers_the_la015_la016_tables():
    # Every name the retired syntactic owner rules policed is still in
    # the one table, with the same owner and API hint; the thread-local
    # deadline stack keeps its foreign-access ban but needs no lock.
    retired = {
        "_POLICY": ("repro/policy.py",
                    "get_policy()/set_policy()/exception_policy()"),
        "_SELECTED": ("repro/backends/__init__.py",
                      "get_backend_name()/set_backend()/use_backend()"),
        "_BLOCK_SIZES": ("repro/config.py", "ilaenv()/set_block_size()/"
                         "block_size_override()"),
        "_MIN_BLOCK": ("repro/config.py", "ilaenv()/set_block_size()/"
                       "block_size_override()"),
        "_CROSSOVER": ("repro/config.py", "ilaenv()/set_block_size()/"
                       "block_size_override()"),
        "_BREAKERS": ("repro/resilience/breaker.py",
                      "admit()/record_failure()/record_success()/"
                      "breaker_state()/states()/reset_breakers()"),
        "_RESILIENCE": ("repro/resilience/config.py",
                        "get_resilience()/set_resilience()/"
                        "resilience_policy()"),
        "_ARMED": ("repro/resilience/deadlines.py",
                   "repro.deadline()/remaining()/check()"),
        "_DEADLINES": ("repro/resilience/deadlines.py",
                       "repro.deadline()/remaining()/check()"),
        "_CHAOS": ("repro/faults.py", "chaos_install()/chaos_remove()/"
                   "chaos_clear()/chaos_fault()"),
    }
    for name, (owner, api) in retired.items():
        lock = None if name == "_DEADLINES" else "STATE_LOCK"
        assert GUARDED_BY[name] == (owner, lock, api), name
    # Every entry names its owner API.
    assert all(api for _owner, _lock, api in GUARDED_BY.values())


def test_shipped_tree_is_concurrency_clean():
    # Also proves every shipped pragma is load-bearing: a pragma no
    # reached access matches is itself a finding.
    project = Project.load([os.path.join(REPO, "src", "repro")])
    for code, check in CHECKS.items():
        assert check(project) == [], code
