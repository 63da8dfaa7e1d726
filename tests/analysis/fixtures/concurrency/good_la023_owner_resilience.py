"""LA023 owner-boundary clean fixture: the resilience state only through
its APIs, and one justified fast-path flag read."""

from repro import deadline, faults, healthcheck
from repro.faults import chaos, chaos_clear
from repro.resilience import (breaker_states, get_resilience,
                              reset_breakers, resilience_policy,
                              set_resilience)


def tighten():
    return set_resilience(retries=0, breaker_threshold=2)


def scoped_solve(run):
    with resilience_policy(breaker_cooldown=0.1):
        with deadline(5.0):
            return run()


def drill(run):
    with chaos("gesv", fail_next=2):
        run()
    chaos_clear()
    report = healthcheck()
    reset_breakers()
    return report, breaker_states(), get_resilience().retries


def chaos_armed():
    return faults.CHAOS_ACTIVE  # laflow: benign-race — advisory flag; chaos_fault() re-checks under the lock
