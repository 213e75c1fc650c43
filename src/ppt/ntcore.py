"""Arbitrary-precision integer number theory primitives.

Pure functions over Python ints: Jacobi symbol, exact integer square root,
odd-part decomposition, one strong-probable-prime round, prime stepping,
and a quadratic-residue census for small moduli.
"""

from __future__ import annotations

import math
from typing import NamedTuple

__all__ = [
    "MrOutcome",
    "count_qnr",
    "isqrt",
    "jacobi",
    "lof_tpow",
    "miller_rabin_base",
    "next_prime",
]


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a | n) in {-1, 0, +1} for odd n >= 3.

    a may be any integer; it is reduced mod n first. Computed with the
    binary reciprocity loop, so neither argument is factored. Returns 0
    exactly when gcd(a, n) > 1.
    """
    if n < 3 or not n & 1:
        raise ValueError("jacobi: modulus must be odd and >= 3")
    a %= n
    result = 1
    while a:
        tz = (a & -a).bit_length() - 1
        if tz & 1 and n & 7 in (3, 5):
            result = -result
        a >>= tz
        if a & 3 == 3 and n & 3 == 3:
            result = -result
        a, n = n % a, a
    return result if n == 1 else 0


def isqrt(n: int) -> tuple[int, bool]:
    """(floor(sqrt(n)), exact) with exactness verified by multiplication."""
    if n < 0:
        raise ValueError("isqrt: negative input")
    s = math.isqrt(n)
    return s, s * s == n


def lof_tpow(z: int) -> tuple[int, int]:
    """Split z >= 1 into (delta, t) with z = delta * 2**t and delta odd."""
    if z < 1:
        raise ValueError("lof_tpow: input must be >= 1")
    t = (z & -z).bit_length() - 1
    return z >> t, t


class MrOutcome(NamedTuple):
    """Result of one strong-pseudoprime round; value is the root or base."""

    witness: bool
    witness_kind: str | None = None
    value: int = 0


def miller_rabin_base(n: int, a: int) -> MrOutcome:
    """One strong-pseudoprime round at base a for odd n >= 3.

    Reports how compositeness surfaced: either a nontrivial square root of
    unity met while squaring a**delta, or a failed Fermat test.
    """
    if n < 3 or not n & 1:
        raise ValueError("miller_rabin_base: modulus must be odd and >= 3")
    delta, t = lof_tpow(n - 1)
    b = pow(a, delta, n)
    s = b
    for _ in range(t):
        s = b * b % n
        if s == 1 and b != 1 and b != n - 1:
            return MrOutcome(True, "nontrivial_root", b)
        b = s
    if s != 1:
        return MrOutcome(True, "fermat", a % n)
    return MrOutcome(False)


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# Smallest composite that is a strong pseudoprime to every base above; the
# strong test with these bases is a primality proof strictly below it.
_MR_DETERMINISTIC_BOUND = 3317044064679887385961981


def _is_prime_det(n: int) -> bool:
    """Deterministic primality for n below _MR_DETERMINISTIC_BOUND."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < 41 * 41:  # the least composite with no prime factor up to 37
        return True
    if n >= _MR_DETERMINISTIC_BOUND:
        raise ValueError("next_prime: beyond the deterministic range")
    return not any(miller_rabin_base(n, a).witness for a in _MR_BASES)


def next_prime(p: int) -> int:
    """Smallest prime strictly greater than p."""
    if p < 2:
        return 2
    c = (p + 1) | 1
    while not _is_prime_det(c):
        c += 2
    return c


def count_qnr(n: int) -> tuple[int, int]:
    """Census of [1, n) by Jacobi symbol: (count of -1, count of +1).

    Requires n odd, >= 3, and not a perfect square; for such n both counts
    equal phi(n)/2. Exhaustive scan, intended for small n only.
    """
    if n < 3 or not n & 1:
        raise ValueError("count_qnr: modulus must be odd and >= 3")
    s = math.isqrt(n)
    if s * s == n:
        raise ValueError("count_qnr: modulus must not be a perfect square")
    neg = pos = 0
    for a in range(1, n):
        j = jacobi(a, n)
        if j < 0:
            neg += 1
        elif j > 0:
            pos += 1
    return neg, pos
