"""Compositeness checks: Euler-criterion and binomial-congruence defects.

Each check returns the full defect rather than a boolean, so a nonzero
result doubles as a verifiable witness of compositeness. ecc and bcc read
the scalar defects from ntcore._tail, the tail the deciders run. The
polynomial variants test the same binomial congruence modulo the
canonical divisor polynomials attached to a parameter m.

This module, with the ppt.canonical and ppt.polyring it imports, is the
polynomial battery, which import ppt does not load: it is imported the
first time a decision or a verification needs it, or one of its names is
read from ppt or ppt.algorithms.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from operator import mul
from typing import NamedTuple

from .canonical import CanonicalParams, canonical_params
from .ntcore import _tail, jacobi
from .polyring import Poly, QuotientRing, _fold, _product, mbec_remainder, poly_powmod

__all__ = [
    "PgpcReport",
    "bcc",
    "ecc",
    "fgpc_check",
    "pgpc_check",
    "pgpc_condition",
]


def ecc(q: int, n: int) -> int:
    """Euler-criterion defect q**((n-1)/2) - (q | n) mod n, at odd n >= 3.

    Zero exactly when q**((n-1)/2) = (q | n) mod n. Raises when the Jacobi
    symbol vanishes, since gcd(q, n) > 1 already exposes a factor.
    """
    if j := jacobi(q, n):
        return _tail(q, n, j, pair=False)[0]
    raise ValueError("jacobi symbol is zero; gcd(q, n) is a factor")


def bcc(q: int, n: int) -> tuple[int, int]:
    """Binomial-congruence defect (a, b) of q at odd modulus n >= 3.

    Computes (1 + sqrt(q))**n - 1 - sqrt(q)**n = a + b*sqrt(q) in
    Z_n[sqrt(q)], where sqrt(q)**n reduces to the scalar multiple
    q**((n-1)/2) * sqrt(q).
    """
    if n < 3 or not n & 1:
        raise ValueError("bcc: modulus must be odd and >= 3")
    return _tail(q, n, 0)[1:]


class PgpcReport(NamedTuple):
    """Outcome of the four-condition polynomial battery for parameter m.

    Conditions are evaluated in order and short-circuit at the first
    failure, so `failed` fixes them all: cond1-cond4 read True before it,
    False at it and None (never evaluated) after it. For the failing
    condition the offending residue is kept as the witness, and what a
    prime would have given there as `expected`.
    """

    m: int
    failed: str | None
    witness: Poly | None
    expected: tuple[int, ...] | None

    def _state(self, i: int) -> bool | None:
        if self.failed is None:
            return True
        at = _CONDITIONS.index(self.failed)
        return None if i > at else i < at

    cond1 = property(lambda self: self._state(0))
    cond2 = property(lambda self: self._state(1))
    cond3 = property(lambda self: self._state(2))
    cond4 = property(lambda self: self._state(3))

    @property
    def all_hold(self) -> bool:
        return self.failed is None


_CONDITIONS = ("cond1", "cond2", "cond3", "cond4")


def _times_x(p: list[int], div: tuple[int, ...]) -> list[int]:
    """x*p mod the monic div over Z, for p of len(div) - 1 coefficients."""
    return [a - p[-1] * c for a, c in zip([0, *p[:-1]], div)]


def _galois_matrix(s: tuple[int, ...], div: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """sigma_r on Z[x]/div, div = Upsilon_m, as d rows over Z from s = s_r(x):
    row i holds the x**i coefficients of s**j for j < d, so that coefficient
    i of sigma_r(sum c_j x**j) is the dot product of row i with c."""
    col = [1] + [0] * (len(s) - 1)
    cols = [col]
    for _ in range(len(s) - 1):  # col*s mod Upsilon_m, by Horner in s
        acc = [0] * len(s)
        for c in reversed(s):
            acc = [a + c * b for a, b in zip(_times_x(acc, div), col)]
        cols.append(col := acc)
    return tuple(zip(*cols))


@lru_cache(maxsize=64)
def _plan(m: int) -> tuple[tuple, tuple | None]:
    """(images, walk): the battery's Galois data at m, built on first use.

    images[upsilon_side][r], r < m, is s_r(x) mod the divisor over Z (deg D
    coefficients), the image of its root under sigma_r: zeta -> zeta**r,
    zeta = exp(2*pi*i/m), r a unit mod m. Upsilon_m's root t = zeta + 1/zeta
    goes to V_r(t), with V_0 = 2, V_1 = t, V_j = t*V_(j-1) - V_(j-2); Psi_m's
    root u = zeta - 1/zeta to W_r(u) for odd r, with W_0 = 2, W_1 = u, W_j =
    u*W_(j-1) + W_(j-2), and to -W_(m-r)(u) for even r (odd m), all r in one pass.

    walk is cond1's (sigma_g, sigma_2, i2, i3) at an odd m with p_m >= 5,
    or m = 9, and None at every other m, where cond1's rule does not hold.
    g is the least generator of (Z/m)*/+-1, cyclic of order d for an odd
    prime power, and sigma_b depends on b mod +-1 only (V_-b = V_b). So
    sigma_g applied i < d times to y gives each conjugate of y once, the
    i2-th being sigma_2(y) and the i3-th sigma_3(y) (None at m = 9, where
    3 is no unit).
    """
    params = canonical_params(m)
    seqs = []
    for div, sign in ((params.psi.coeffs, 1), (params.upsilon.coeffs, -1)):
        one = [1] + [0] * (len(div) - 2)
        seq = [[2 * c for c in one], _times_x(one, div)]
        for _ in range(m - 1):
            seq.append([a + sign * b for a, b in zip(_times_x(seq[-1], div), seq[-2])])
        seqs.append(seq)
    psi, upsilon = seqs
    images = (tuple(tuple(psi[r]) if r & 1 else tuple(-c for c in psi[m - r]) for r in range(m)),
              tuple(map(tuple, upsilon[:m])))
    if not m & 1 or params.p_m == 3 and m != 9:
        return images, None
    for g in range(2, m):
        orbit = [1]
        while gcd(g, m) == 1 and (b := orbit[-1] * g % m) not in (1, m - 1):
            orbit.append(b)
        if len(orbit) == params.d:
            break
    pos = {min(b, m - b): i for i, b in enumerate(orbit)}
    div = params.upsilon.coeffs
    step = _galois_matrix(images[True][g], div)
    two = step if g == 2 else _galois_matrix(images[True][2], div)
    return images, (step, two, pos[2], pos.get(min(3, m - 3)))


_X = Poly([0, 1])


def _cond1_powers(n: int, params: CanonicalParams, xn: dict) -> tuple[Poly, Poly | None]:
    """x**n and (1+x)**n mod <Upsilon_m, n> from cond2's power, or the x**n
    ladder and None at an m or n the rule does not cover.

    The rule holds where _plan(m) has a walk, for odd n with p_m not
    dividing n. It raises x**n modulo Psi_m = P(x**2) into
    xn[False], which cond2 and cond4 then reuse; its odd coefficients are
    w**k mod P(w), k = (n-1)/2. P(w) = Upsilon_m(w + 2), so w -> t - 2 maps
    that to X = (t-2)**k mod <Upsilon_m, n>, below degree d, so no fold.

    Each sigma_b, b a unit mod m, is a ring endomorphism of Z[t]/Upsilon_m
    over Z, so sigma_b(X) = (V_b(t) - 2)**k mod <Upsilon_m, n> for every n.
    Over Z[t], V_4(t) - 2 = t**2 * (V_2(t) - 2) and V_3(t) - 2 =
    (1+t)**2 * (t - 2). So sigma_4(X) = t**(n-1) * sigma_2(X), and, for
    p_m >= 5, sigma_3(X) = (1+t)**(n-1) * X. The product of the d
    conjugates of X is its norm N = ((-1)**d * Upsilon_m(2))**k, with
    Upsilon_m(2) = Phi_m(1) = p_m, a unit mod n as p_m does not divide n,
    so X**-1 = prod_(b!=1) sigma_b(X) / N. Then t**n =
    t * sigma_2(sigma_2(X) * X**-1) and (1+t)**n = (1+t) * sigma_3(X) *
    X**-1. At m = 9, V_3(t) - 2 = -3 = N(t - 2) mod Upsilon_9, so
    (1+t)**(n-1) = prod_(b!=1) sigma_b(X), with no inverse.
    """
    d, ring = params.d, QuotientRing(params.upsilon, n)
    if not n % params.p_m or (walk := _plan(params.m)[1]) is None:
        return poly_powmod(ring, _X, n), None
    xn[False] = poly_powmod(QuotientRing(params.psi, n), _X, n)
    x = [0] * d
    for a in reversed(xn[False].coeffs[1::2]):  # x*(t - 2) + a, by Horner
        x = [u - 2 * v for u, v in zip([a, *x], x)]
    step, two, i2, i3 = walk
    cols = ring._table.cols
    conj = [[a % n for a in x]]  # sigma_g**i(X), i < d
    for _ in range(d - 1):
        conj.append([sum(map(mul, row, conj[-1])) % n for row in step])
    rest = conj[1]  # N * X**-1
    for y in conj[2:]:
        rest = _fold(_product(rest, y), cols, n)
    inv = pow(_fold(_product(conj[0], rest), cols, n)[0], -1, n)
    b = _fold(_product(conj[i2], rest), cols, n)  # N * sigma_2(X) * X**-1
    tn = [0, *(inv * sum(map(mul, row, b)) for row in two)]  # t * t**(n-1)
    if i3 is None:  # m = 9: rest is (1+t)**(n-1)
        a = rest
    else:  # at m = 5, sigma_3 = sigma_2
        a = [inv * v for v in (b if i3 == i2 else _fold(_product(conj[i3], rest), cols, n))]
    a = [u + v for u, v in zip([*a, 0], [0, *a])]  # (1+t) * (1+t)**(n-1)
    return Poly(_fold(tn, cols, n), n), Poly(_fold(a, cols, n), n)


def _condition(
    n: int, params: CanonicalParams, name: str, xn: dict
) -> tuple[Poly, tuple[int, ...]]:
    """pgpc_condition, with x**n modulo each divisor D kept in xn.

    cond1 hands mbec_remainder x**n and, where the rule holds, (1+x)**n
    modulo Upsilon_m, both from x**n modulo Psi_m (_cond1_powers); at the
    other m mbec_remainder runs the (1+x)**n ladder. cond2 always runs that
    ladder modulo Psi_m, where no such rule exists (README).

    cond3/cond4 start from x**n. With r = n mod m a unit and m >= 5,
    x -> s_r(x) (_plan's images) is a ring endomorphism of Z_n[x]/D for
    every n, since D(s_r(x)) = 0 mod D over Z. So if x**n = s_r(x) mod
    <D, n>, then x**(n**j) is the j-fold composite of s_r, which at j = d
    is c*x over Z, with c the expected constant (r**d = +-1 mod m); x is
    a unit (D(0) is +- a power of p_m), so x**(n**d - 1) = c exactly.
    Otherwise the power runs in full.
    """
    if name not in _CONDITIONS:
        raise ValueError(f"pgpc_condition: unknown condition {name!r}")
    if name == "cond1":
        xn[True], x1n = _cond1_powers(n, params, xn)
        return mbec_remainder(n, params.upsilon, xn[True], x1n), ()
    upsilon_side = name == "cond3"
    div = params.upsilon if upsilon_side else params.psi
    x = Poly([0, 1], n)
    if upsilon_side not in xn:
        xn[upsilon_side] = poly_powmod(QuotientRing(div, n), x, n)
    if name == "cond2":
        return mbec_remainder(n, div, xn[False]), ()
    m, p_m = params.m, params.p_m
    c = 1 % n if upsilon_side or p_m == 2 else jacobi(n, p_m) % n
    want = (c,) if c else ()
    if m >= 5 and n % p_m:
        if xn[upsilon_side].coeffs == Poly(_plan(m)[0][upsilon_side][n % m], n).coeffs:
            return Poly(want, n), want
    return poly_powmod(QuotientRing(div, n), x, n**params.d - 1), want


def pgpc_condition(
    n: int, params: CanonicalParams, name: str
) -> tuple[Poly, tuple[int, ...]]:
    """(residue, expected) of one battery condition at parameter m, odd n >= 3.

    1. (1+x)**n - 1 - x**n = 0 mod <Upsilon_m, n>
    2. (1+x)**n - 1 - x**n = 0 mod <Psi_m, n>
    3. x**(n**d - 1)        = 1 mod <Upsilon_m, n>, d = deg Upsilon_m
    4. x**(n**d - 1)        = c mod <Psi_m, n>, c = 1 if p_m = 2 else (n | p_m)

    The condition holds when the residue's coefficients equal `expected`.
    Condition 1 takes both of its powers from x**n modulo Psi_m where m
    and n allow it, and conditions 3 and 4 start from x**n (see _condition).
    """
    return _condition(n, params, name, {})


def pgpc_check(n: int, params: CanonicalParams) -> PgpcReport:
    """The four conditions of pgpc_condition in order, for odd n >= 3.

    x**n modulo each divisor is computed once and serves both of its
    conditions; it is dropped when the call returns.
    """
    xn: dict = {}
    for name in _CONDITIONS:
        residue, want = _condition(n, params, name, xn)
        if residue.coeffs != want:
            return PgpcReport(params.m, name, residue, want)
    return PgpcReport(params.m, None, None, None)


def fgpc_check(n: int, params: CanonicalParams) -> tuple[bool, Poly]:
    """Single-condition variant: the second battery condition alone.

    Returns (holds, remainder); the remainder is the witness when it fails.
    """
    rem, _ = pgpc_condition(n, params, "cond2")
    return rem.is_zero, rem
