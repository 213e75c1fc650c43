"""Arithmetic in the quadratic extension ring Z_n[sqrt(q)].

Elements are pairs a + b*sqrt(q) with both coordinates reduced mod an odd
modulus n >= 3. Multiplication uses sqrt(q)**2 = q; no inverses are needed
by any caller, so none are provided. One ladder, _pow, computes every power
in every rank-2 ring Z_n[r] with r**2 = q + p*r at any n >= 2: with p = 0
for quad_pow, ppt.checks and ppt.polyring.euler_poly_check, and with the
linear term of a degree-2 divisor for ppt.polyring's powers modulo it.
QuadCtx alone still requires odd n.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["QuadCtx", "QuadInt", "conjugate", "norm", "quad_mul", "quad_pow"]


@dataclass(frozen=True)
class QuadCtx:
    """Ring context: odd modulus n >= 3 and the residue q under the radical."""

    n: int
    q: int

    def __post_init__(self) -> None:
        if self.n < 3 or not self.n & 1:
            raise ValueError("QuadCtx: modulus must be odd and >= 3")
        object.__setattr__(self, "q", self.q % self.n)

    def element(self, a: int, b: int) -> "QuadInt":
        return QuadInt(a, b, self)

    def one_plus_root(self) -> "QuadInt":
        return QuadInt(1, 1, self)


@dataclass(frozen=True)
class QuadInt:
    """Element a + b*sqrt(q) of Z_n[sqrt(q)]."""

    a: int
    b: int
    ctx: QuadCtx

    def __post_init__(self) -> None:
        n = self.ctx.n
        object.__setattr__(self, "a", self.a % n)
        object.__setattr__(self, "b", self.b % n)

    @property
    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __str__(self) -> str:
        return f"{self.a} + {self.b}*sqrt({self.ctx.q})"


def _pow(a: int, b: int, q: int, p: int, n: int, e: int) -> tuple[int, int]:
    """(a + b*r)**e with r*r = q + p*r mod n, n >= 2, by binary squaring.

    q and p enter as least-absolute residues (n - 2 as -2) and the base as
    given, so a small or signed one multiplies as a short integer; each
    step reduces each coordinate with one % n (e = 1 returns the base).
    """
    if e == 0:
        return 1 % n, 0
    h = n >> 1
    q, p = (q + h) % n - h, (p + h) % n - h
    c = a + b * p
    ra, rb = a, b
    for bit in bin(e)[3:]:
        ra, rb = (ra * ra + rb * rb * q) % n, rb * (2 * ra + p * rb) % n
        if bit == "1":
            ra, rb = (ra * a + rb * b * q) % n, (ra * b + rb * c) % n
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
    a, b = _pow(x.a, x.b, x.ctx.q, 0, x.ctx.n, e)
    return QuadInt(a, b, x.ctx)


def conjugate(x: QuadInt) -> QuadInt:
    """a + b*sqrt(q) -> a - b*sqrt(q)."""
    return QuadInt(x.a, -x.b, x.ctx)


def norm(x: QuadInt) -> int:
    """x times its conjugate: a**2 - q*b**2 mod n (multiplicative)."""
    n, q = x.ctx.n, x.ctx.q
    return (x.a * x.a - q * x.b * x.b) % n
