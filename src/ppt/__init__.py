"""Primality testing via quadratic non-residues and binomial congruences.

The package decides primality with three related algorithms (an explicit
non-residue test, a no-search variant backed by canonical divisor
polynomials, and a randomized Miller-Rabin hybrid), each producing a
verdict whose compositeness mechanism re-verifies from its own fields.

import ppt loads the scalar core: ppt.algorithms and ppt.ntcore. The
polynomial battery, ppt.checks with ppt.canonical and ppt.polyring, loads
as one unit the first time anything needs it.
"""

# The public names of ppt are each of these modules' __all__, _BATTERY and
# _HARNESS.
from . import algorithms, ntcore
from .algorithms import *
from .ntcore import *

__version__ = "0.1.0"

# The battery's names by module, resolved on first use (PEP 562), so that
# importing ppt, and every scalar decision, does not compile the battery.
_BATTERY = {
    "canonical": {"CanonicalParams", "FindResult", "canonical_params",
                  "cyclotomic_prime_power", "factor_prime_power", "find_qnr_or_m",
                  "psi_of", "upsilon_of"},
    "checks": {"PgpcReport", "bcc", "ecc", "fgpc_check", "pgpc_check", "pgpc_condition"},
    "polyring": {"Poly", "QuotientRing", "mbec_remainder", "poly_powmod"},
}

# Resolved from ppt.harness on first use (PEP 562), so that importing ppt
# does not load the batch harness.
_HARNESS = {"BatchStats", "generate_carmichaels", "load_dataset", "run_batch"}

# from ppt import * binds every eager and battery name, and the modules.
__all__ = [*algorithms.__all__, *ntcore.__all__, *sorted(set().union(*_BATTERY.values())),
           "algorithms", "canonical", "checks", "ntcore", "polyring"]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


def __getattr__(name: str):
    for module, names in _BATTERY.items():
        if name in names:
            from . import checks  # noqa: F401 (it imports canonical and polyring)

            return getattr(globals()[module], name)
    if name in _HARNESS:
        from . import harness

        return getattr(harness, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
