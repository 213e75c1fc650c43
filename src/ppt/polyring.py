"""Dense univariate polynomials over Z_n and quotient-ring arithmetic.

Coefficients are stored ascending by degree with the leading coefficient
nonzero; the zero polynomial has an empty coefficient tuple. A modulus of 0
denotes signed integer coefficients (used by the canonical constructions
before reduction at a concrete modulus).

A ring is its divisor's table plus n: the fold table of x**j mod the
divisor (j = k..2k-1, k = deg divisor), the ladders its rings have used
and, for an even divisor P(x**2), the table of P(w). The caller's form of
the divisor decides where the table lives. A divisor over Z with leading
coefficient 1, as the canonical divisors are, keeps one table over Z for
its rings at every n, whatever its width; its entries are congruent to the
reduced ones, so every residue is the same. A divisor given mod n gets a
table of least-absolute residues mod n with each ring. A ladder step
squares on raw integers and folds back to k coefficients with one % n
each.

Powers run on the smallest ring that gives the same residue exactly:

1. x modulo an even divisor P(x**2) is w**(e >> 1) modulo P(w), placed on
   the even or odd coefficients by the parity of e;
2. x or 1 + x, the bases the battery raises, modulo a divisor of degree
   2.._MAX_UNROLLED runs on a ladder generated as straight-line Python for
   the ring's shape: its degree k, the base, and the pattern, the places
   of its fold table that are nonzero, so a divisor over Z has one shape
   at every n. The k coefficients live in locals, the fold has a term only
   for each place of the pattern, and a set bit multiplies by the base
   before the fold (for x, a shift of the fold's inputs). The square takes
   one of two forms, chosen by k alone: below _KARATSUBA_FROM the
   schoolbook square, each cross product one multiply, and from it on one
   Karatsuba level, three squares of the halves in that form. No form
   depends on n's size: CPython multiplies ints by Karatsuba only from 70
   digits (about 2,100 bits), so below that the level over the
   coefficients is the only one a ladder gets, and above it the two stack.
   Only the shape enters the source; n and the table entries are
   arguments, so one compiled function serves every ring of that shape. It
   is compiled on the first such power, kept in a bounded cache, and each
   table keeps the ladders its rings have used;
3. every other power, other linear bases included, runs on the list
   ladder, _power.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import zip_longest
from operator import mul
from typing import NamedTuple

__all__ = [
    "Poly",
    "QuotientRing",
    "mbec_remainder",
    "poly_powmod",
]


class Poly(NamedTuple("Poly", [("coeffs", tuple), ("n", int)])):
    """Immutable dense polynomial; `coeffs` ascending, trailing term nonzero,
    reduced and stripped by every construction (_make and _replace too)."""

    __slots__ = ()

    def __new__(cls, coeffs, n: int = 0) -> Poly:
        if n < 0:
            raise ValueError("Poly: modulus must be >= 0")
        if n:
            cs = [c % n for c in coeffs]
        else:
            cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return tuple.__new__(cls, (tuple(cs), n))

    _make = classmethod(lambda cls, fields: cls(*fields))

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


class _Table(NamedTuple):
    """A monic divisor's state, shared by its rings."""

    div: tuple[int, ...]
    cols: list[tuple]  # the fold table, read by columns (_fold_columns)
    ladders: dict  # base kind -> (ladder, fold)
    half: _Table | None  # P(w)'s, for an even divisor P(x**2) of degree >= 4


class QuotientRing:
    """Z_n[x] / <divisor(x)> for a monic divisor of degree >= 1: its table plus n.

    A divisor over Z with leading coefficient 1 keeps one table over Z for
    its rings at every n, at any width. A divisor given mod n, as
    Poly(div, n), gets a table of least-absolute residues with each ring:
    a caller whose divisor over Z has wide coefficients of its own (random
    256-bit ones, say) and serves few n passes it so, to keep the table's
    entries below n/2.
    """

    __slots__ = ("n", "_table")

    def __init__(self, divisor: Poly, n: int | None = None):
        if n is None:
            n = divisor.n
        if n < 2:
            raise ValueError("QuotientRing: modulus must be >= 2")
        if divisor.n not in (0, n):
            raise ValueError("QuotientRing: modulus mismatch")
        cs = divisor.coeffs
        # Leading coefficient 1 over Z: monic of the same degree at every n.
        if not divisor.n and len(cs) > 1 and cs[-1] == 1:
            table = _shared(cs)
        else:
            d = Poly(cs, n)
            if d.degree < 1:
                raise ValueError("QuotientRing: divisor degree must be >= 1")
            if d.coeffs[-1] != 1:
                raise ValueError("QuotientRing: divisor must be monic")
            table = _table(d.coeffs, n)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_table", table)

    def __setattr__(self, name, value):
        raise AttributeError("QuotientRing is immutable")

    @property
    def divisor(self) -> Poly:
        """The divisor, reduced mod n when read."""
        return Poly(self._table.div, self.n)

    def __repr__(self) -> str:
        return f"QuotientRing({self.divisor!r})"


def _times_x(p: list[int], div: tuple[int, ...]) -> list[int]:
    """x*p mod the monic div over Z, for p of len(div) - 1 coefficients (div's
    leading 1 may be left off): p shifted up, less p's top coefficient times div."""
    t, shifted = p[-1], [0, *p[:-1]]
    return [a - t * c for a, c in zip(shifted, div)] if t else shifted


def _fold_columns(div: tuple[int, ...], n: int, top: int) -> list[tuple]:
    """Fold table of the monic divisor div, read by columns; top >= deg div.

    Entry [i][j - k] is the coefficient of x**i in x**j mod the divisor, for
    j = k..top: over Z when n = 0, else kept as a least-absolute residue mod
    n. Folding a wide coefficient then costs a product with a short integer
    (for a canonical divisor, at any n), not with a full-width residue.
    """
    h = n >> 1
    low = tuple((c + h) % n - h for c in div[:-1]) if n else div[:-1]
    rows = [[-c for c in low]]  # x**k
    for _ in range(len(low), top):
        row = _times_x(rows[-1], low)
        rows.append([(a + h) % n - h for a in row] if n else row)
    return list(zip(*rows))


def _table(div: tuple[int, ...], n: int) -> _Table:
    """The _Table of div mod n (over Z at n = 0), with no ladders yet."""
    half = _table(div[::2], n) if len(div) > 4 and not any(div[1::2]) else None
    return _Table(div, _fold_columns(div, n, 2 * len(div) - 3), {}, half)


def _places(cols: list[tuple]) -> tuple:
    """The (i, j) places where the fold table cols is nonzero."""
    return tuple((i, j) for i, col in enumerate(cols) for j, f in enumerate(col) if f)


# 64 keeps the two divisors of a battery for thirty-two m values.
@lru_cache(maxsize=64)
def _shared(div: tuple[int, ...]) -> _Table:
    """_table(div, 0), shared by the rings of div at every n: an entry
    differs from the residue mod n it stands for by a multiple of n, so
    each fold gives the same residue. The half table is covered too:
    x**(2i) mod P(x**2) is w**i mod P(w)."""
    return _table(div, 0)


def _reduce(table: _Table, n: int, p: list[int]) -> list[int]:
    """p reduced to deg(divisor) coefficients."""
    cols = table.cols
    k = len(cols)
    if len(p) <= k:  # nothing to fold
        return [c % n for c in p] + [0] * (k - len(p))
    if len(p) > 2 * k:
        cols = _fold_columns(table.div, n, len(p) - 1)
    return _fold(p, cols, n)


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
    """b**e mod <divisor, n> for reduced b and e >= 1, left to right.

    Each step squares and folds; a set bit multiplies the folded square by
    b and folds again.
    """
    cur = b
    for bit in bin(e)[3:]:
        sq = _square(cur)
        if bit == "1":
            sq = _product(_fold(sq, cols, n), b)
        cur = _fold(sq, cols, n)
    return cur


# Largest ring degree whose linear-base powers run on a generated ladder.
# The source grows as k**2: generating and compiling it for a dense fold
# table takes about 0.4 ms at k = 4, 4 ms at 16, 14 ms at 32 and 44 ms at
# 64 (either form of the square; best of 7, 2.1 GHz Xeon, Python 3.11),
# which a 256-bit battery at that degree still repays; above it the list
# ladder serves.
_MAX_UNROLLED = 64


# Least ring degree whose generated square takes one Karatsuba level: from it
# on, every per-shape A/B at 256 and 512 bits in BENCH_karatsuba_square.json
# reads the level no slower than the schoolbook square, for both bases and
# for odd and even k; at k <= 5 it is up to 7% slower.
_KARATSUBA_FROM = 6


def _square_terms(v: list[str]) -> tuple[list[str], list[str]]:
    """The square of the polynomial whose coefficients are the locals v:
    lines that double each coefficient but the last, and each coefficient
    of the square as an expression, with each cross product once."""
    k = len(v)
    terms = []
    for m in range(2 * k - 1):
        t = [f"d{v[i]} * {v[m - i]}" for i in range(max(0, m - k + 1), (m + 1) // 2)]
        terms.append(" + ".join(t + [f"{v[m // 2]} * {v[m // 2]}"] * (m % 2 == 0)))
    return [f"d{x} = {x} + {x}" for x in v[:-1]], terms


def _square_source(k: int) -> list[str]:
    """Lines setting s0 .. s(2k-2) to the square of a0 + ... + a(k-1)x**(k-1).

    From degree _KARATSUBA_FROM on, one Karatsuba level: with h = ceil(k/2),
    L = a0 .. a(h-1) and H = ah .. a(k-1), (L + x**h H)**2 is
    L**2 + x**(2h) H**2 + x**h ((L + H)**2 - L**2 - H**2), three squares of
    about k/2 coefficients in place of one of k.
    """
    a = [f"a{i}" for i in range(k)]
    if k < _KARATSUBA_FROM:
        lines, s = _square_terms(a)
        return lines + [f"s{m} = {t}" for m, t in enumerate(s)]
    h = (k + 1) // 2
    lines = [f"c{i} = a{i} + a{h + i}" for i in range(k - h)]
    sums = [f"c{i}" for i in range(k - h)] + a[k - h:h]  # L + H
    (lp, p), (lq, q), (lc, c) = map(_square_terms, (a[:h], a[h:], sums))
    # s_m is P_m below h and Q_(m-2h) from 3h - 1 on (P = L**2, Q = H**2,
    # C = (L + H)**2). Between, with r_j = P_(h+j) - Q_j: s_(h+j) is
    # r_j + C_j - P_j and s_(2h+j) is C_(h+j) - r_j - Q_(h+j), for j < h - 1;
    # s_(2h-1) is C_(h-1) - P_(h-1) - Q_(h-1). At odd k, C's top is P's,
    # a(h-1)**2, so s_(3h-2) is Q_(h-2).
    lines += lp + lq + lc + [f"s{m} = {p[m]}" for m in range(h)]
    lines += [f"s{2 * h + i} = {q[i]}" for i in range(h - 1 - k % 2, len(q))]
    top = [f" - s{3 * h + j}" if h + j < len(q) else "" for j in range(-1, h - 1)]
    for j in range(h - 1):
        if k % 2 and j == h - 2:
            lines.append(f"s{h + j} = {p[h + j]} - s{2 * h + j} + {c[j]} - s{j}")
        else:
            lines += [f"r{j} = {p[h + j]} - ({q[j]})", f"s{h + j} = r{j} + {c[j]} - s{j}",
                      f"s{2 * h + j} = {c[h + j]} - r{j}{top[j + 1]}"]
    lines.append(f"s{2 * h - 1} = {c[h - 1]} - s{h - 1}{top[0]}")
    return lines


def _ladder_source(k: int, nz: tuple, kind: str) -> str:
    """Straight-line ladder for one shape, as the source of `ladder`.

    The shape is the ring degree k >= 2, the (i, j) places of the fold
    table that `fold` holds, in that order, and the base kind, "x" or
    "1+x", from which the ladder starts.
    """
    a = [f"a{i}" for i in range(k)]
    s = [f"s{i}" for i in range(2 * k - 1)]
    body = _square_source(k)

    def fold(lo: list, hi: list) -> list[str]:
        out = []
        for i in range(k):
            terms = [lo[i]] * (lo[i] is not None)
            terms += [f"f{i}_{j} * {hi[j]}" for i2, j in nz if i2 == i and j < len(hi)]
            out.append(f"a{i} = ({' + '.join(terms)}) % n" if terms else f"a{i} = 0")
        return out

    if kind == "x":  # t_j = s_(j-1): shift the fold's inputs
        pre, lo, hi = [], [None, *s[:k - 1]], s[k - 1:]
    else:  # 1 + x: t_j = s_j + s_(j-1)
        t = [s[0], *(f"{s[j]} + {s[j - 1]}" for j in range(1, 2 * k - 1)), s[-1]]
        lo, hi, pre = t[:k], t[k:], []
        for j in sorted({j for _, j in nz}):  # the t_j the fold reads
            if not hi[j].isidentifier():
                pre.append(f"t{k + j} = {hi[j]}")
                hi[j] = f"t{k + j}"
    lines = [
        "def ladder(bits, n, fold):",
        *[f"    {''.join(f'f{i}_{j}, ' for i, j in nz)}= fold"] * bool(nz),
        f"    {', '.join(a)} = {'0' if kind == 'x' else '1'}, 1{', 0' * (k - 2)}",
        "    for bit in bits:",
        *(f"        {x}" for x in body),
        "        if bit == '1':",
        *(f"            {x}" for x in pre + fold(lo, hi)),
        "        else:",
        *(f"            {x}" for x in fold(s[:k], s[k:])),
        f"    return [{', '.join(a)}]",
    ]
    return "\n".join(lines) + "\n"


# The batteries at every m <= 23 run on 25 shapes, the same at every n; 64
# leaves room for larger m and for divisors given mod n, whose shapes follow
# their own tables, and bounds the memory held.
@lru_cache(maxsize=64)
def _ladder(k: int, nz: tuple, kind: str):
    """The compiled ladder of one shape (see _ladder_source)."""
    scope: dict = {}
    exec(compile(_ladder_source(k, nz, kind), f"<ladder k={k} {kind}>", "exec"), scope)
    return scope["ladder"]


def _ring_power(table: _Table, n: int, base: list[int], e: int) -> list[int]:
    """base**e mod <divisor, n>, on the smallest ring that gives it exactly."""
    b = _reduce(table, n, base)
    k = len(b)
    if e == 0:
        return [1] + [0] * (k - 1)
    kind = None if any(b[2:]) else {(0, 1): "x", (1, 1): "1+x"}.get(tuple(b[:2]))
    if kind == "x" and table.half is not None:
        out = [0] * k
        out[e & 1::2] = _ring_power(table.half, n, [0, 1], e >> 1)
        return out
    if kind is None or k > _MAX_UNROLLED:
        return _power(b, e, table.cols, n)
    try:
        ladder, fold = table.ladders[kind]
    except KeyError:
        nz = _places(table.cols)
        fold = tuple(table.cols[i][j] for i, j in nz)
        ladder = _ladder(k, nz, kind)
        table.ladders[kind] = ladder, fold
    return ladder(bin(e)[3:], n, fold)


def _coeffs(ring: QuotientRing, p: Poly, what: str) -> list[int]:
    """p's coefficients for use in the ring; the modulus must agree."""
    if p.n not in (0, ring.n):
        raise ValueError(f"{what}: modulus mismatch")
    return list(p.coeffs)


def poly_powmod(ring: QuotientRing, base: Poly, e: int) -> Poly:
    """base**e reduced in the quotient ring, e >= 0."""
    if e < 0:
        raise ValueError("poly_powmod: exponent must be >= 0")
    b = _coeffs(ring, base, "poly_powmod")
    return Poly(_ring_power(ring._table, ring.n, b, e), ring.n)


def mbec_remainder(n: int, d: Poly, xn: Poly | None = None, x1n: Poly | None = None) -> Poly:
    """Remainder of (1+x)**n - 1 - x**n in Z_n[x]/<d(x)>.

    Zero exactly when the binomial congruence holds modulo d at modulus n.
    d must be monic of degree >= 1; integer-coefficient d is reduced mod n,
    and a d reduced under another modulus is refused. xn and x1n, when
    given, are x**n and (1+x)**n in that ring (any representatives), and
    are not recomputed: the battery hands in both modulo Upsilon_m where
    an exact rule over Z derives them from cond2's power. When both are
    records mod n below d's degree, the remainder is one subtraction, with
    no ring built.
    """
    if n < 3 or not n & 1:
        raise ValueError("mbec_remainder: modulus must be odd and >= 3")
    if (xn is not None and x1n is not None and xn.n == x1n.n == n and d.n in (0, n)
            and d.coeffs[-1:] == (1,)
            and len(d.coeffs) > max(len(xn.coeffs), len(x1n.coeffs), 1)):
        a, b = x1n.coeffs, xn.coeffs
    else:
        ring = QuotientRing(d, n)
        if xn is None:
            xn = poly_powmod(ring, Poly([0, 1]), n)
        if x1n is None:
            a = _ring_power(ring._table, n, [1, 1], n)
        else:
            a = _reduce(ring._table, n, _coeffs(ring, x1n, "mbec_remainder"))
        b = _reduce(ring._table, n, _coeffs(ring, xn, "mbec_remainder"))
    out = [u - v for u, v in zip_longest(a, b, fillvalue=0)] or [0]
    out[0] -= 1
    return Poly(out, n)
