"""Reference arithmetic for the tests, independent of the ppt package.

Pairs a + b*sqrt(q) in Z_n[sqrt(q)], odd n >= 3, with sqrt(q)**2 = q:
a context, elements reduced mod n on construction, the schoolbook
product, right-to-left square-and-multiply built from that product alone,
and conjugation. Polynomials as lists of coefficients, ascending: the
schoolbook product, long division by a monic divisor and a power built
from those two, mod n or, at n = 0, over Z. Then the primality oracle: a
sieve of Eratosthenes. It imports nothing from ppt, so ppt's ladders and
deciders can be checked against it.
"""

from __future__ import annotations

import math
from typing import NamedTuple


class QuadCtx(NamedTuple("QuadCtx", [("n", int), ("q", int)])):
    """Ring context: odd modulus n >= 3 and the residue q under the radical."""

    __slots__ = ()

    def __new__(cls, n: int, q: int) -> QuadCtx:
        if n < 3 or not n & 1:
            raise ValueError("QuadCtx: modulus must be odd and >= 3")
        return tuple.__new__(cls, (n, q % n))

    def element(self, a: int, b: int) -> QuadInt:
        return QuadInt(a, b, self)

    def one_plus_root(self) -> QuadInt:
        return QuadInt(1, 1, self)


class QuadInt(NamedTuple("QuadInt", [("a", int), ("b", int), ("ctx", QuadCtx)])):
    """Element a + b*sqrt(q) of Z_n[sqrt(q)], both coordinates reduced mod n."""

    __slots__ = ()

    def __new__(cls, a: int, b: int, ctx: QuadCtx) -> QuadInt:
        return tuple.__new__(cls, (a % ctx.n, b % ctx.n, ctx))

    def __str__(self) -> str:
        return f"{self.a} + {self.b}*sqrt({self.ctx.q})"


def quad_mul(x: QuadInt, y: QuadInt) -> QuadInt:
    """Product of two elements of the same ring."""
    if x.ctx != y.ctx:
        raise ValueError("quad_mul: context mismatch")
    q = x.ctx.q
    return QuadInt(x.a * y.a + x.b * y.b * q, x.a * y.b + x.b * y.a, x.ctx)


def quad_pow(x: QuadInt, e: int) -> QuadInt:
    """x**e for e >= 0 (x**0 is the ring identity), by right-to-left
    square and multiply over quad_mul."""
    if e < 0:
        raise ValueError("quad_pow: exponent must be >= 0")
    acc = x.ctx.element(1, 0)
    while e:
        if e & 1:
            acc = quad_mul(acc, x)
        x = quad_mul(x, x)
        e >>= 1
    return acc


def conjugate(x: QuadInt) -> QuadInt:
    """a + b*sqrt(q) -> a - b*sqrt(q)."""
    return QuadInt(x.a, -x.b, x.ctx)


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    """a * b over Z, schoolbook, len(a) + len(b) - 1 coefficients."""
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_rem(p: list[int], div: list[int], n: int = 0) -> list[int]:
    """p mod the monic div, one leading term at a time: len(div) - 1
    coefficients, in [0, n) at n >= 2 and over Z at n = 0."""
    k = len(div) - 1
    p = [*p, *[0] * (k - len(p))]
    while len(p) > k:
        t = p.pop() % n if n else p.pop()  # reduced, so no term outgrows n**2
        for j, c in enumerate(div[:-1], len(p) - k):
            p[j] -= t * c
    return [c % n for c in p] if n else p


def poly_pow(base: list[int], e: int, div: list[int], n: int = 0) -> list[int]:
    """base**e mod div as poly_rem gives it, e >= 0, by right-to-left square
    and multiply over poly_mul."""
    acc, sq = poly_rem([1], div, n), poly_rem(base, div, n)
    while e:
        if e & 1:
            acc = poly_rem(poly_mul(acc, sq), div, n)
        sq = poly_rem(poly_mul(sq, sq), div, n)
        e >>= 1
    return acc


def prime_flags(limit: int) -> bytearray:
    """Sieve of Eratosthenes for limit >= 2: a bytearray whose byte k is 1
    if k is prime and 0 otherwise, for 0 <= k < limit."""
    flags = bytearray([0, 0]) + bytearray([1]) * (limit - 2)
    for p in range(2, math.isqrt(limit - 1) + 1):
        if flags[p]:
            flags[p * p::p] = bytes(len(range(p * p, limit, p)))
    return flags
