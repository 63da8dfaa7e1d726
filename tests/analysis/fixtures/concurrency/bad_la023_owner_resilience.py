"""LA023 owner-boundary fixture: a foreign module reaching around the
resilience APIs into breakers, policy, deadline arming and chaos state."""

from repro.resilience.breaker import _BREAKERS  # lint: LA023

from repro import faults
from repro.resilience import config, deadlines


def force_close(backend, routine):
    _BREAKERS.pop((backend, routine), None)     # lint: LA023


def crank_retries(n):
    config._RESILIENCE.retries = n              # lint: LA023


def disarm_deadlines():
    deadlines._ARMED = 0                        # lint: LA023


def silence_chaos(routine):
    faults._CHAOS.pop(routine, None)            # lint: LA023


def force_chaos():
    faults.CHAOS_ACTIVE = True                  # lint: LA023


def chaos_armed():
    return faults.CHAOS_ACTIVE                  # lint: LA023
