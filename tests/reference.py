"""Reference arithmetic for the tests, independent of the ppt package.

Pairs a + b*sqrt(q) in Z_n[sqrt(q)], odd n >= 3, with sqrt(q)**2 = q:
a context, elements reduced mod n on construction, the schoolbook
product, right-to-left square-and-multiply built from that product alone,
and conjugation. Polynomials as lists of coefficients, ascending: the
schoolbook product, long division by a monic divisor and a power built
from those two, mod n or, at n = 0, over Z, and Psi_m from Upsilon_m by
its even/odd split. Then the primality oracle: a sieve of Eratosthenes.
It imports nothing from ppt, so ppt's ladders and deciders can be checked
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


def psi_by_parity(ups: list[int]) -> list[int]:
    """Psi_m from the coefficients of Upsilon_m(t) = C0(t**2) + t*C1(t**2):
    with t**2 -> u**2 + 4, C0 if C1 vanishes and (u**2 + 4)*C1**2 - C0**2
    otherwise, with a positive leading coefficient and no trailing zeros."""
    base = [4, 0, 1]
    halves = []
    for part in (ups[0::2], ups[1::2]):
        acc = [0]
        for c in reversed(part):  # acc * (u**2 + 4) + c, by Horner
            acc = poly_mul(acc, base)
            acc[0] += c
        halves.append(acc)
    c0, c1 = halves
    if any(c1):
        a, b = poly_mul(base, poly_mul(c1, c1)), poly_mul(c0, c0)
        size = max(len(a), len(b))
        c0 = [x - y for x, y in zip(a + [0] * (size - len(a)), b + [0] * (size - len(b)))]
    while c0 and not c0[-1]:
        c0.pop()
    return [-c for c in c0] if c0 and c0[-1] < 0 else c0


def prime_flags(limit: int) -> bytearray:
    """Sieve of Eratosthenes for limit >= 2: a bytearray whose byte k is 1
    if k is prime and 0 otherwise, for 0 <= k < limit."""
    flags = bytearray([0, 0]) + bytearray([1]) * (limit - 2)
    for p in range(2, math.isqrt(limit - 1) + 1):
        if flags[p]:
            flags[p * p::p] = bytes(len(range(p * p, limit, p)))
    return flags
