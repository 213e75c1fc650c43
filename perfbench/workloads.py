"""Seeded input generators for the three benchmark workloads.

Each generator turns a seed into a list of Items (n with its sympy.isprime
label) and checks its own class mix before returning, so that no seed can
silently drop a branch of the deciders. The library only ever sees the
integers; the labels are the oracle the run compares verdicts against.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from dataclasses import dataclass

import sympy

from make_pool import POOL_PATH, SCALAR_CLASSES, random_in_class
from ppt.algorithms import find_qnr
from ppt.canonical import find_qnr_or_m
from ppt.harness import generate_carmichaels


class MixError(AssertionError):
    """A generated workload does not have the class mix it promises."""


@dataclass(frozen=True)
class Item:
    n: int
    prime: bool
    tag: str


@dataclass(frozen=True)
class Workload:
    """Inputs plus what lazy set-up needs: the m values and the deepest scan."""

    name: str
    items: tuple[Item, ...]
    m_values: tuple[int, ...]
    deep_n: int


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise MixError(what)


def _random_bits(rng: random.Random, bits: int) -> int:
    return rng.getrandbits(bits) | (1 << (bits - 1))


def _m_exit(n: int) -> int | None:
    """m when find_qnr_or_m(n) exits with a parameter, else None."""
    if n % 24 != 1 or n < 25:
        return None
    return find_qnr_or_m(n).m


def _finish(name: str, items: list[Item]) -> Workload:
    ms = sorted({m for m in map(_m_exit, (it.n for it in items)) if m is not None})
    deep_n, depth = 0, 0
    for it in items:
        if it.n & 7 == 1 and math.isqrt(it.n) ** 2 != it.n:
            d = find_qnr(it.n).iterations
            if d > depth:
                deep_n, depth = it.n, d
    return Workload(name, tuple(items), tuple(ms), deep_n)


# ---------------------------------------------------------------- scalar_big

# bits -> primes (and as many composites) per class; 78:24 keeps the
# 1024:2048 ratio near 3:1, so p50 lies among the 1024-bit inputs and
# p90 among the 2048-bit primes.
SCALAR_QUOTA = {1024: 13, 2048: 4}


def scalar_class(n: int) -> str | None:
    r = n % 24
    for cls, residues in SCALAR_CLASSES.items():
        if r in residues:
            return cls
    return None


def check_scalar_big(items: list[Item]) -> None:
    got = Counter((it.n.bit_length(), scalar_class(it.n), it.prime) for it in items)
    want = Counter(
        {
            (bits, cls, prime): k
            for bits, k in SCALAR_QUOTA.items()
            for cls in SCALAR_CLASSES
            for prime in (True, False)
        }
    )
    _require(got == want, f"scalar_big mix {dict(got)} != {dict(want)}")
    _require(
        any(it.n & 7 == 3 for it in items) and any(it.n & 7 == 5 for it in items),
        "scalar_big lacks n = 3 or n = 5 mod 8",
    )


def scalar_big(seed: int) -> Workload:
    rng = random.Random(f"scalar_big/{seed}")
    pool = json.loads(POOL_PATH.read_text())
    items = []
    for bits, k in SCALAR_QUOTA.items():
        for cls, residues in SCALAR_CLASSES.items():
            for p in rng.sample(pool[str(bits)][cls], k):
                items.append(Item(p, sympy.isprime(p), f"{bits}/{cls}/prime"))
            for _ in range(k):
                while True:
                    n = random_in_class(rng, bits, residues)
                    if n.bit_length() == bits and not sympy.isprime(n):
                        break
                items.append(Item(n, False, f"{bits}/{cls}/composite"))
    check_scalar_big(items)
    return _finish("scalar_big", items)


# ------------------------------------------------------------ battery_1mod24

# n = 1 mod A and n = r mod B (r from the tuple) steers find_qnr_or_m to
# exit with m: A makes every smaller prime continue the walk with a large
# enough degree, and a quadratic residue r != 1 mod B ends it at m.
M_FORCING = {
    5: (24, 5, (4,)),
    9: (120, 7, (2, 4)),
    7: (720, 7, (2, 4)),
    16: (2520, 11, (3, 4, 5, 9)),
    11: (5040, 11, (3, 4, 5, 9)),
    13: (55440, 13, (3, 4, 9, 10, 12)),
    17: (1441440, 17, (2, 4, 8, 9, 13, 15, 16)),
}
# bits -> m -> primes (and as many composites); 78:26 is 3:1. Cheap m
# values dominate so that a pass stays near 10 s and a run can repeat it;
# the costly 11, 13 and 17 appear at 256 bits only.
BATTERY_QUOTA = {
    256: {5: 16, 9: 8, 7: 5, 16: 5, 11: 2, 13: 2, 17: 1},
    512: {5: 7, 9: 2, 7: 2, 16: 2},
}


def check_battery(items: list[Item]) -> None:
    got = Counter((it.n.bit_length(), _m_exit(it.n), it.prime) for it in items)
    want = Counter(
        {
            (bits, m, prime): k
            for bits, quota in BATTERY_QUOTA.items()
            for m, k in quota.items()
            for prime in (True, False)
        }
    )
    _require(got == want, f"battery_1mod24 mix {dict(got)} != {dict(want)}")


def _forced(rng: random.Random, bits: int, m: int, prime: bool) -> int:
    a, b, residues = M_FORCING[m]
    while True:
        n = _random_bits(rng, bits)
        r = rng.choice(residues)
        n -= n % (a * b)
        n += next(x for x in range(1, a * b, a) if x % b == r)
        if n.bit_length() == bits and _m_exit(n) == m and sympy.isprime(n) == prime:
            return n


def battery_1mod24(seed: int) -> Workload:
    rng = random.Random(f"battery_1mod24/{seed}")
    items = [
        Item(_forced(rng, bits, m, prime), prime, f"{bits}/m{m}/{'prime' if prime else 'composite'}")
        for bits, quota in BATTERY_QUOTA.items()
        for m, k in quota.items()
        for prime in (True, False)
        for _ in range(k)
    ]
    check_battery(items)
    return _finish("battery_1mod24", items)


# ---------------------------------------------------------------- small_many

# The frozen inputs of the test suite (tests/conftest.py), copied so that
# the workload does not change when the tests move.
CONFTEST = {
    "N22": 129545102216217601,
    "HC1": 443372888629441,
    "HC2": 97723892848682923994567734100095132801,
    "NHC": 3317044064679887385961981,
    "ARN": 12530759607784496010584573923,
    "N17": 14283595418401,
    "CAR": 3215031751,
    "NC": 6368689,
}
# Inputs that reach the polynomial battery (n = 1 mod 24 with an m exit,
# which every deep-scan member is) stay near 5% of the decisions and of the
# certificates, so that no p90 sits on the edge of that costly cluster.
SMALL_RANDOM = 2000
SMALL_PRIMES = 800
# How many of the random odd numbers and of the random primes reach the
# battery: their natural shares (2.2% and 4.5%), held fixed, because one
# such input costs as much as 30-100 others and a seed-to-seed swing in
# their number moved decide_nps and fermat_ratio by several per cent.
SMALL_RANDOM_M = 44
SMALL_PRIMES_M = 36
SMALL_DEEP = 60
DEEP_MIN_K, DEEP_MAX_K = 5, 11
CARMICHAEL_LIMIT = 10**6


def _odd_primes(k: int) -> list[int]:
    return [int(sympy.prime(i)) for i in range(2, k + 2)]


def deep_depth(n: int) -> int:
    """How many leading odd primes are quadratic residues mod n."""
    k = 0
    for p in _odd_primes(DEEP_MAX_K + 1):
        if sympy.jacobi_symbol(p, n) != 1:
            break
        k += 1
    return k


def _deep(rng: random.Random, k: int, prime: bool) -> int:
    """n = 1 mod 8 with the first k odd primes all residues, below 2**64."""
    ps = _odd_primes(k)
    mod, base = 8, 1
    for p in ps:
        r = pow(rng.randrange(1, p), 2, p)
        base = int(sympy.ntheory.modular.crt([mod, p], [base, r])[0])
        mod *= p
    while True:
        n = base + mod * rng.randrange(1, (1 << 64) // mod)
        if sympy.isprime(n) == prime:
            return n


def _with_m_exits(count: int, count_m: int, draw) -> list[int]:
    """The first count draws of which exactly count_m exit find_qnr_or_m with m."""
    out, left = [], {True: count_m, False: count - count_m}
    while left[True] or left[False]:
        n = draw()
        m_exit = _m_exit(n) is not None
        if left[m_exit]:
            out.append(n)
            left[m_exit] -= 1
    return out


def check_small(items: list[Item]) -> None:
    tags = Counter(it.tag.split("/")[0] for it in items)
    _require(tags["random"] == SMALL_RANDOM, "small_many random odd count")
    _require(tags["prime"] == SMALL_PRIMES, "small_many random prime count")
    for tag, count_m in (("random", SMALL_RANDOM_M), ("prime", SMALL_PRIMES_M)):
        got = sum(_m_exit(it.n) is not None for it in items if it.tag == tag)
        _require(got == count_m, f"small_many has {got} {tag} inputs with an m exit, not {count_m}")
    ns = {it.n for it in items}
    _require(set(CONFTEST.values()) <= ns, "small_many lacks a conftest constant")
    deep = [it for it in items if it.tag.startswith("deep/")]
    _require(len(deep) == SMALL_DEEP, "small_many deep-scan count")
    _require(
        all(deep_depth(it.n) >= DEEP_MIN_K and it.n & 7 == 1 for it in deep),
        "small_many deep-scan member is not deep",
    )
    _require(any(it.prime for it in deep), "small_many has no deep-scan prime")
    carm = [it for it in items if it.tag == "carmichael"]
    _require(len(carm) >= 40 and not any(it.prime for it in carm), "small_many Carmichaels")
    exits = Counter()
    for it in items:
        if it.n % 24 == 1 and it.tag.startswith("random"):
            fr = find_qnr_or_m(it.n)
            exits["qnr" if fr.qnr else "m" if fr.m else "divisor"] += 1
    _require(exits["qnr"] > 0 and exits["m"] > 0, "small_many lacks 1 mod 24 exits")


def small_many(seed: int) -> Workload:
    rng = random.Random(f"small_many/{seed}")
    items = []
    for n in _with_m_exits(SMALL_RANDOM, SMALL_RANDOM_M, lambda: _random_bits(rng, rng.randint(20, 64)) | 1):
        items.append(Item(n, sympy.isprime(n), "random"))
    primes = _with_m_exits(
        SMALL_PRIMES, SMALL_PRIMES_M, lambda: int(sympy.nextprime(_random_bits(rng, rng.randint(20, 63))))
    )
    for n in primes:
        items.append(Item(n, True, "prime"))
    for c in generate_carmichaels(CARMICHAEL_LIMIT):
        items.append(Item(c, sympy.isprime(c), "carmichael"))
    for name, n in CONFTEST.items():
        items.append(Item(n, sympy.isprime(n), f"conftest/{name}"))
    for i in range(SMALL_DEEP):
        k = rng.randint(DEEP_MIN_K, DEEP_MAX_K)
        prime = i % 2 == 0
        items.append(Item(_deep(rng, k, prime), prime, f"deep/k{k}"))
    check_small(items)
    return _finish("small_many", items)


WORKLOADS = {
    "scalar_big": scalar_big,
    "battery_1mod24": battery_1mod24,
    "small_many": small_many,
}
