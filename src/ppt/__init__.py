"""Primality testing via quadratic non-residues and binomial congruences.

The package decides primality with three related algorithms (an explicit
non-residue test, a no-search variant backed by canonical divisor
polynomials, and a randomized Miller-Rabin hybrid), each producing a
verdict whose compositeness mechanism re-verifies from its own fields.

import ppt loads the scalar core: ppt.algorithms and ppt.ntcore. The
polynomial battery, ppt.checks with ppt.canonical and ppt.polyring, loads
as one unit the first time anything needs it; its names are those of
ppt.algorithms._BATTERY.
"""

# The public names of ppt are each of these modules' __all__, the battery's
# names in algorithms._BATTERY, and _HARNESS.
from . import algorithms, ntcore
from .algorithms import *
from .ntcore import *

__version__ = "0.1.0"

# Resolved from ppt.harness on first use (PEP 562), so that importing ppt
# does not load the batch harness.
_HARNESS = {"BatchStats", "generate_carmichaels", "load_dataset", "run_batch"}

# from ppt import * binds every eager and battery name, and the modules.
__all__ = [*algorithms.__all__, *ntcore.__all__, *sorted(sum(algorithms._BATTERY.values(), ())),
           "algorithms", "canonical", "checks", "ntcore", "polyring"]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


def __getattr__(name: str):
    for module, names in algorithms._BATTERY.items():
        if name in names:
            if not algorithms._battery_loaded:
                algorithms._load_battery()
            return getattr(globals()[module], name)
    if name in _HARNESS:
        from . import harness

        return getattr(harness, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
