"""One front door: structure-detecting auto-dispatch.

``repro.solve(a, b)``, ``repro.lstsq(a, b)`` and ``repro.eig(a)`` probe
the operand's structure (:mod:`~repro.dispatch_front.probe`), reuse an
unchanged SPD operand's factor (:mod:`~repro.dispatch_front.cache`), derive the
best registered driver from the DriverSpec registry's declarative
routing metadata (:mod:`repro.specs.routing`) and execute it through
the ordinary backend/resilience seams (:mod:`~repro.dispatch_front.api`)
— the LAPACK90 generic-interface idea taken one step further: the
paper's generic drivers dispatch on *type and rank*; the front door
also dispatches on *mathematical structure*.
"""

from .api import Explanation, eig, lstsq, solve
from .cache import invalidate as invalidate_structure_cache
from .cache import stats as structure_cache_stats
from .probe import Structure, probe, probe_stack

__all__ = ["solve", "lstsq", "eig", "Explanation", "Structure",
           "probe", "probe_stack", "invalidate_structure_cache",
           "structure_cache_stats"]
