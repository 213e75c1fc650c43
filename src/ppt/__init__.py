"""Primality testing via quadratic non-residues and binomial congruences.

The package decides primality with three related algorithms (an explicit
non-residue test, a no-search variant backed by canonical divisor
polynomials, and a randomized Miller-Rabin hybrid), each producing a
verdict whose compositeness mechanism re-verifies from its own fields.
"""

# The public names of ppt are each of these modules' __all__, and _HARNESS.
from .algorithms import *
from .canonical import *
from .checks import *
from .ntcore import *
from .polyring import *

__version__ = "0.1.0"

# Resolved from ppt.harness on first use (PEP 562), so that importing ppt
# does not load the batch harness.
_HARNESS = {"BatchStats", "Dataset", "TrialResult", "generate_carmichaels",
            "load_dataset", "run_batch", "trial_division"}


def __getattr__(name: str):
    if name in _HARNESS:
        from . import harness

        return getattr(harness, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
