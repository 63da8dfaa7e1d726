"""LA023 owner-boundary fixture: a foreign module reaching around the
setters into the process-global policy/backend/blocking state."""

from repro.policy import _POLICY                # lint: LA023

from repro import backends, config


def force_propagate():
    _POLICY.nonfinite = "propagate"             # lint: LA023


def flip_backend(name):
    backends._SELECTED = name                   # lint: LA023


def tune(nb):
    config._BLOCK_SIZES["getrf"] = nb           # lint: LA023
