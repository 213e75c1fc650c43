"""Dense univariate polynomials over Z_n and quotient-ring arithmetic.

Coefficients are stored ascending by degree with the leading coefficient
nonzero; the zero polynomial has an empty coefficient tuple. A modulus of 0
denotes signed integer coefficients (used by the canonical constructions
before reduction at a concrete modulus).

Products and reductions go through one kernel: a fold table of x**j mod
the divisor (j = k..2k-1, k = deg divisor), built with each QuotientRing
from the divisor's least-absolute residues mod n, so its entries stay small
for the canonical divisors however wide n is (at most 31 bits up to m = 17,
44 bits at m = 23). A ladder step squares on raw integers, each cross
product once, multiplies by a linear base x or 1+x in O(k), and folds back
to k coefficients with one % n each.

Powers run on the smallest ring that gives the same residue exactly:

1. x modulo an even divisor P(x**2) is w**(e >> 1) modulo P(w), placed on
   the even or odd coefficients by the parity of e;
2. modulo a degree-2 divisor t**2 + c1*t + c0, quadext._pow, which
   serves every relation r**2 = q + p*r at any n >= 2 (only QuadCtx
   requires odd n), computes it with q = -c0 and p = -c1;
3. every other power runs on the fold table.
"""

from __future__ import annotations

from functools import lru_cache
from operator import mul

from .quadext import _pow

__all__ = [
    "Poly",
    "QuotientRing",
    "euler_poly_check",
    "mbec_remainder",
    "poly_mulmod",
    "poly_powmod",
    "quotient_ring",
]


class Poly:
    """Immutable dense polynomial; `coeffs` ascending, trailing term nonzero."""

    __slots__ = ("coeffs", "n")

    def __init__(self, coeffs, n: int = 0):
        if n < 0:
            raise ValueError("Poly: modulus must be >= 0")
        if n:
            cs = [c % n for c in coeffs]
        else:
            cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "n", n)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def reduced(self, n: int) -> "Poly":
        """The same polynomial with coefficients reduced mod n."""
        if n < 2:
            raise ValueError("Poly.reduced: modulus must be >= 2")
        return Poly(self.coeffs, n)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs and self.n == other.n

    def __hash__(self) -> int:
        return hash((self.coeffs, self.n))

    def __repr__(self) -> str:
        return f"Poly({list(self.coeffs)!r}, n={self.n})"

    def pretty(self, var: str = "x") -> str:
        """Human form with signs and implicit unit coefficients.

        Example: coefficients [7, 0, 14, 0, 7, 0, 1] render as
        'u^6 + 7u^4 + 14u^2 + 7' with var='u'.
        """
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                stem = var if k == 1 else f"{var}^{k}"
                body = stem if mag == 1 else f"{mag}{stem}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


class QuotientRing:
    """Z_n[x] / <divisor(x)> for a monic divisor of degree >= 1."""

    __slots__ = ("divisor", "n", "_cols", "_half")

    def __init__(self, divisor: Poly, n: int | None = None):
        if n is None:
            n = divisor.n
        if n < 2:
            raise ValueError("QuotientRing: modulus must be >= 2")
        if divisor.n not in (0, n):
            raise ValueError("QuotientRing: modulus mismatch")
        d = divisor if divisor.n == n else Poly(divisor.coeffs, n)
        if d.degree < 1:
            raise ValueError("QuotientRing: divisor degree must be >= 1")
        if d.coeffs[-1] != 1:
            raise ValueError("QuotientRing: divisor must be monic")
        object.__setattr__(self, "divisor", d)
        object.__setattr__(self, "n", n)
        cols = _fold_columns(d.coeffs, n, 2 * d.degree - 1)
        object.__setattr__(self, "_cols", cols)
        even = d.degree >= 4 and not any(d.coeffs[1::2])
        half = QuotientRing(Poly(d.coeffs[::2], n)) if even else None
        object.__setattr__(self, "_half", half)  # P(w) for d = P(x**2)

    def __setattr__(self, name, value):
        raise AttributeError("QuotientRing is immutable")

    def element(self, coeffs) -> Poly:
        """Coefficients reduced into the ring (mod n, then mod divisor)."""
        return Poly(self._reduce(list(coeffs)), self.n)

    def _reduce(self, p: list[int]) -> list[int]:
        """p reduced to deg(divisor) coefficients; extends p."""
        k = self.divisor.degree
        p += [0] * (k - len(p))
        cols = self._cols
        if len(p) > 2 * k:
            cols = _fold_columns(self.divisor.coeffs, self.n, len(p) - 1)
        return _fold(p, cols, self.n)

    def __repr__(self) -> str:
        return f"QuotientRing({self.divisor!r})"


def _fold_columns(div: tuple[int, ...], n: int, top: int) -> list[tuple]:
    """Fold table of the monic divisor div, read by columns; top >= deg div.

    Entry [i][j - k] is the coefficient of x**i in x**j mod the divisor, for
    j = k..top, kept as a least-absolute residue mod n: folding a wide
    coefficient then costs a product with a short integer, not with a
    full-width residue.
    """
    h = n >> 1
    low = [(c + h) % n - h for c in div[:-1]]
    row = [-c for c in low]  # x**k
    rows = [row]
    for _ in range(len(low), top):
        t = row[-1]
        row = [0, *row[:-1]]
        if t:
            row = [(a - t * c + h) % n - h for a, c in zip(row, low)]
        rows.append(row)
    return list(zip(*rows))


def _fold(p: list[int], cols: list[tuple], n: int) -> list[int]:
    """p mod <divisor, n> as k = len(cols) coefficients, one % n each.

    p holds at least k raw integers, and its degree is at most the table's
    top degree.
    """
    hi = p[len(cols):]
    return [(c + sum(map(mul, col, hi))) % n for c, col in zip(p, cols)]


def _square(a: list[int]) -> list[int]:
    """a**2 over Z, each cross product computed once."""
    out = [0] * (2 * len(a) - 1)
    for i, x in enumerate(a):
        if x:
            out[2 * i] += x * x
            x2 = x << 1
            for j, y in enumerate(a[i + 1:], 2 * i + 1):
                out[j] += x2 * y
    return out


def _product(a: list[int], b: list[int]) -> list[int]:
    """a * b over Z, schoolbook."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def _power(b: list[int], e: int, cols: list[tuple], n: int) -> list[int]:
    """b**e mod <divisor, n> for reduced b, by a left-to-right ladder.

    Each step squares and folds once. On a set bit a linear b = c0 + c1*x
    multiplies the raw square, which the table folds one degree higher,
    for O(k) work and no extra fold; any other b multiplies the folded
    square and folds again.
    """
    if e == 0:
        return [1] + [0] * (len(cols) - 1)
    c0, c1, *rest = b + [0]
    linear = not any(rest)
    cur = b
    for bit in bin(e)[3:]:
        sq = _square(cur)
        if bit == "1":
            if not linear:
                sq = _product(_fold(sq, cols, n), b)
            elif c0 == 0 and c1 == 1:
                sq = [0, *sq]  # times x: a shift
            else:
                sq = [c0 * u + c1 * v for u, v in zip([*sq, 0], [0, *sq])]
        cur = _fold(sq, cols, n)
    return cur


def _ring_power(ring: QuotientRing, base: list[int], e: int) -> list[int]:
    """base**e in the ring, on the smallest ring that gives it exactly."""
    b = ring._reduce(base)
    k, n = len(b), ring.n
    if ring._half is not None and b == [0, 1] + [0] * (k - 2):
        out = [0] * k
        out[e & 1::2] = _ring_power(ring._half, [0, 1], e >> 1)
        return out
    if k == 2:  # b is reduced, so _pow's e = 1 returns a ring element
        c0, c1 = ring.divisor.coeffs[:2]
        return list(_pow(*b, -c0, -c1, n, e))
    return _power(b, e, ring._cols, n)


def _coeffs(ring: QuotientRing, p: Poly, what: str) -> list[int]:
    """p's coefficients for use in the ring; the modulus must agree."""
    if p.n not in (0, ring.n):
        raise ValueError(f"{what}: modulus mismatch")
    return list(p.coeffs)


def poly_mulmod(ring: QuotientRing, p1: Poly, p2: Poly) -> Poly:
    """p1 * p2 reduced in the quotient ring."""
    a = _coeffs(ring, p1, "poly_mulmod")
    b = _coeffs(ring, p2, "poly_mulmod")
    return ring.element(_product(a, b))


def poly_powmod(ring: QuotientRing, base: Poly, e: int) -> Poly:
    """base**e reduced in the quotient ring, e >= 0."""
    if e < 0:
        raise ValueError("poly_powmod: exponent must be >= 0")
    b = _coeffs(ring, base, "poly_powmod")
    return Poly(_ring_power(ring, b, e), ring.n)


@lru_cache(maxsize=8)
def quotient_ring(d: Poly, n: int) -> QuotientRing:
    """QuotientRing(d, n), shared by the calls that use the same divisor.

    A battery takes up to three powers modulo each divisor; the ring, its
    fold table and its half ring are built once for them, not per power.
    """
    return QuotientRing(d, n)


def mbec_remainder(n: int, d: Poly) -> Poly:
    """Remainder of (1+x)**n - 1 - x**n in Z_n[x]/<d(x)>.

    Zero exactly when the binomial congruence holds modulo d at modulus n.
    d must be monic of degree >= 1; integer-coefficient d is reduced mod n,
    and a d reduced under another modulus is refused.
    """
    if n < 3 or not n & 1:
        raise ValueError("mbec_remainder: modulus must be odd and >= 3")
    ring = quotient_ring(d, n)
    a = _ring_power(ring, [1, 1], n)
    b = _ring_power(ring, [0, 1], n)
    out = [u - v for u, v in zip(a, b)]
    out[0] -= 1
    return Poly(out, n)


def euler_poly_check(n: int, q: int) -> int | None:
    """x**(n-1) in Z_n[x]/<x**2 - q> when constant, else None.

    The ring is Z_n[sqrt(q)], so the quadratic ring's ladder computes it. For
    prime n with (q | n) nonzero the value is q**((n-1)/2) mod n by the
    reduction x**2 = q; a non-constant remainder is reported, not resolved.
    """
    if n < 3 or not n & 1:
        raise ValueError("euler_poly_check: modulus must be odd and >= 3")
    c0, c1 = _pow(0, 1, q, 0, n, n - 1)
    return None if c1 else c0
