"""Arbitrary-precision integer number theory primitives.

Pure functions over Python ints: Jacobi symbol, one strong-probable-prime
round, prime stepping, the one list of primes that every walk over small
primes reads (_prime), and the scalar tail (_tail): Euler's criterion,
then (1 + sqrt(q))**n in Z_n[sqrt(q)], whose elements are pairs
a + b*sqrt(q) reduced mod n, with sqrt(q)**2 = q. That binomial defect is
the one power of the ring the package needs, so _pow serves the base
1 + sqrt(q) only. The deciders' scalar routes and ppt.checks' ecc and bcc
call _tail.
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = [
    "MrOutcome",
    "jacobi",
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


class MrOutcome(NamedTuple):
    """Result of one strong-pseudoprime round; value is the root or base."""

    witness: bool
    witness_kind: str | None = None
    value: int = 0


def miller_rabin_base(n: int, a: int) -> MrOutcome:
    """One strong-pseudoprime round at base a for odd n >= 3.

    Reports how compositeness surfaced: either a nontrivial square root of
    unity met while squaring a**delta (n - 1 = delta * 2**t, delta odd), or
    a failed Fermat test.
    """
    if n < 3 or not n & 1:
        raise ValueError("miller_rabin_base: modulus must be odd and >= 3")
    t = ((n - 1) & (1 - n)).bit_length() - 1
    delta = (n - 1) >> t
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


# The primes 2, 3, 5, ... in order; _prime extends it with next_prime.
_primes: list[int] = [2]


def _prime(i: int) -> int:
    """The i-th prime, 0-based: _prime(0) == 2, _prime(1) == 3."""
    while len(_primes) <= i:
        _primes.append(next_prime(_primes[-1]))
    return _primes[i]


# The least bit length of n from which _pow takes each step's cross term
# from squares: the width from which that form reads no slower than the
# product form under Python 3.10-3.13 (BENCH_scalar_square.json).
_SQUARES_FROM = 480


def _pow(q: int, n: int, e: int) -> tuple[int, int]:
    """(1 + sqrt(q))**e mod n, n >= 2, by left-to-right binary squaring.

    Every integer in q's class mod n gives the same power; _tail passes
    the least-absolute one (n - 2 as -2), so that a small or signed q
    multiplies as a short integer. A set bit's multiply by 1 + sqrt(q),
    (sa + sb*sqrt(q))*(1 + sqrt(q)) = sa + sb*q + (sa + sb)*sqrt(q), folds
    into the square before its reduction, so each bit reduces each
    coordinate with one % n (e = 1 returns the base).

    The square of ra + rb*sqrt(q) is ra**2 + rb**2*q + 2*ra*rb*sqrt(q).
    Below _SQUARES_FROM bits of n a step takes 2*ra*rb as one product.
    From there on it takes ra**2 + rb**2 - (ra - rb)**2, reusing the two
    squares the rational coordinate needs: CPython squares a number
    faster than it multiplies two, and from that width the saving repays
    the extra additions. The difference, not (ra + rb)**2: |ra - rb| < n,
    where ra + rb can take one more machine digit than n. It is squared
    as d * d, since Python 3.10's d ** 2 costs more. The form is chosen
    once per call.
    """
    if e == 0:
        return 1 % n, 0
    ra = rb = 1
    if n.bit_length() < _SQUARES_FROM:
        for bit in bin(e)[3:]:
            sa, sb = ra * ra + rb * rb * q, 2 * ra * rb
            if bit == "1":
                ra, rb = (sa + sb * q) % n, (sa + sb) % n
            else:
                ra, rb = sa % n, sb % n
        return ra, rb
    for bit in bin(e)[3:]:
        a2, b2, d = ra * ra, rb * rb, ra - rb
        sa, sb = a2 + b2 * q, a2 + b2 - d * d
        if bit == "1":
            ra, rb = (sa + sb * q) % n, (sa + sb) % n
        else:
            ra, rb = sa % n, sb % n
    return ra, rb


def _tail(q: int, n: int, j: int, pair: bool = True) -> tuple[int, int, int]:
    """(euler, a, b) at q and odd n >= 3, in one pass: euler = q**((n-1)/2)
    - j mod n for j = (q | n), or 0 where j = 0 skips the criterion; then,
    if pair is set and euler is zero, the binomial defect (1 + sqrt(q))**n
    - 1 - q**((n-1)/2)*sqrt(q) = a + b*sqrt(q), else (a, b) = (0, 0).

    Both powers take q's least-absolute residue s (n - 2 as -2): the Euler
    power raises |s| and negates the result when s < 0 and (n-1)/2 is odd.
    """
    e = n >> 1
    s = (q + e) % n - e
    h = pow(abs(s), e, n)
    if s < 0 and e & 1:
        h = -h % n
    euler = (h - j) % n if j else 0
    if euler or not pair:
        return euler, 0, 0
    a, b = _pow(s, n, n)
    return 0, (a - 1) % n, (b - h) % n
