"""Arithmetic in the quadratic extension ring Z_n[sqrt(q)].

Elements are pairs a + b*sqrt(q) with both coordinates reduced mod an odd
modulus n >= 3. Multiplication uses sqrt(q)**2 = q; no inverses are needed
by any caller, so none are provided. One ladder, _pow, computes every power
in Z_n[sqrt(q)]: quad_pow's and the binomial defect's in ppt.checks.
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = ["QuadCtx", "QuadInt", "conjugate", "quad_mul", "quad_pow"]


class QuadCtx(NamedTuple("QuadCtx", [("n", int), ("q", int)])):
    """Ring context: odd modulus n >= 3 and the residue q under the radical,
    checked and reduced by every construction (_make and _replace too)."""

    __slots__ = ()

    def __new__(cls, n: int, q: int) -> QuadCtx:
        if n < 3 or not n & 1:
            raise ValueError("QuadCtx: modulus must be odd and >= 3")
        return tuple.__new__(cls, (n, q % n))

    _make = classmethod(lambda cls, fields: cls(*fields))

    def element(self, a: int, b: int) -> "QuadInt":
        return QuadInt(a, b, self)

    def one_plus_root(self) -> "QuadInt":
        return QuadInt(1, 1, self)


class QuadInt(NamedTuple("QuadInt", [("a", int), ("b", int), ("ctx", QuadCtx)])):
    """Element a + b*sqrt(q) of Z_n[sqrt(q)], both coordinates reduced mod n."""

    __slots__ = ()

    def __new__(cls, a: int, b: int, ctx: QuadCtx) -> QuadInt:
        n = ctx.n
        return tuple.__new__(cls, (a % n, b % n, ctx))

    _make = classmethod(lambda cls, fields: cls(*fields))

    @property
    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __str__(self) -> str:
        return f"{self.a} + {self.b}*sqrt({self.ctx.q})"


def _pow(a: int, b: int, q: int, n: int, e: int) -> tuple[int, int]:
    """(a + b*sqrt(q))**e mod n, n >= 2, by binary squaring.

    q enters as a least-absolute residue (n - 2 as -2) and the base as
    given, so a small or signed one multiplies as a short integer; each
    step reduces each coordinate with one % n (e = 1 returns the base).
    """
    if e == 0:
        return 1 % n, 0
    h = n >> 1
    q = (q + h) % n - h
    ra, rb = a, b
    for bit in bin(e)[3:]:
        ra, rb = (ra * ra + rb * rb * q) % n, 2 * ra * rb % n
        if bit == "1":
            ra, rb = (ra * a + rb * b * q) % n, (ra * b + rb * a) % n
    return ra, rb


def quad_mul(x: QuadInt, y: QuadInt) -> QuadInt:
    """Product of two elements of the same ring."""
    if x.ctx != y.ctx:
        raise ValueError("quad_mul: context mismatch")
    q = x.ctx.q
    return QuadInt(x.a * y.a + x.b * y.b * q, x.a * y.b + x.b * y.a, x.ctx)


def quad_pow(x: QuadInt, e: int) -> QuadInt:
    """x**e for e >= 0 (x**0 is the ring identity)."""
    if e < 0:
        raise ValueError("quad_pow: exponent must be >= 0")
    a, b = _pow(x.a, x.b, x.ctx.q, x.ctx.n, e)
    return QuadInt(a, b, x.ctx)


def conjugate(x: QuadInt) -> QuadInt:
    """a + b*sqrt(q) -> a - b*sqrt(q)."""
    return QuadInt(x.a, -x.b, x.ctx)
