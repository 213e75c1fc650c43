"""Reference arithmetic for the tests, independent of the ppt package.

Pairs a + b*sqrt(q) in Z_n[sqrt(q)], odd n >= 3, with sqrt(q)**2 = q:
a context, elements reduced mod n on construction, the schoolbook
product, right-to-left square-and-multiply built from that product alone,
and conjugation. Then the primality oracle: a sieve of Eratosthenes. It
imports nothing from ppt, so ppt's ladders and deciders can be checked
against it.
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


def prime_flags(limit: int) -> bytearray:
    """Sieve of Eratosthenes for limit >= 2: a bytearray whose byte k is 1
    if k is prime and 0 otherwise, for 0 <= k < limit."""
    flags = bytearray([0, 0]) + bytearray([1]) * (limit - 2)
    for p in range(2, math.isqrt(limit - 1) + 1):
        if flags[p]:
            flags[p * p::p] = bytes(len(range(p * p, limit, p)))
    return flags
