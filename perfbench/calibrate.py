"""A fixed calibration kernel that reads the host's current speed.

The benchmark shares a few cores of a host whose speed for the same code
changes by up to 1.6x over minutes and flips between levels within a
second, so a raw wall time cannot tell a change in the program from a
change in the host. The kernel is a fixed piece of work, independent of
the library, in the three shapes the deciders' work takes: a Python-level
polynomial product over a 512-bit modulus (polyring), a builtin modular
power (the scalar checks and the yardstick), and small-integer
interpreter work with calls and a dict (per-call overhead). run.py reads
it next to every timed call and scales each time by REF_S / reading, so
that its times read as they would at the reference speed.

The host slows interpreted code more than builtin big-integer code, so
calls that are builtin pow, the yardstick and every call of the workloads
in run.POW_CALLS, are scaled by the kernel's pow part alone
(POW_REF_S / pow reading).
"""

from __future__ import annotations

import time

# Seconds the kernel and its pow part take on a 2-vCPU KVM Xeon (2.1 GHz)
# in its faster state; they only set the scale on which normalised times read.
REF_S = 0.55e-3
POW_REF_S = 0.21e-3

_N = (1 << 512) - 569
_A = tuple(pow(3, i + 1, _N) for i in range(8))
_B = tuple(pow(5, i + 1, _N) for i in range(8))


def _poly() -> int:
    r = [0] * 15
    for _ in range(18):
        for i, x in enumerate(_A):
            for j, y in enumerate(_B):
                r[i + j] = (r[i + j] + x * y) % _N
    return sum(r)


def _pow() -> int:
    return pow(7, _N >> 330, _N)


def _step(d: dict, k: int) -> int:
    d[k & 63] = d.get(k & 63, 0) + k
    return d[k & 63] & 1


def _small() -> int:
    d: dict[int, int] = {}
    s = 0
    for k in range(850):
        s += _step(d, k * 2654435761)
    return s


def kernel() -> int:
    return (_poly() + _pow() + _small()) % _N


def reading() -> tuple[float, float]:
    """Seconds the kernel takes now, and of that its pow part."""
    clock = time.perf_counter
    t0 = clock()
    _poly()
    t1 = clock()
    _pow()
    t2 = clock()
    _small()
    return clock() - t0, t2 - t1
