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


@lru_cache(maxsize=1024)
def _galois_image(m: int, r: int, upsilon_side: bool) -> tuple[int, ...]:
    """s_r(x) mod the divisor over Z, deg D coefficients: sigma_r of its root.

    sigma_r sends zeta = exp(2*pi*i/m) to zeta**r, for r a unit mod m.
    Upsilon_m's root t = zeta + 1/zeta goes to zeta**r + zeta**-r =
    V_r(t), with V_0 = 2, V_1 = t, V_j = t*V_(j-1) - V_(j-2). Psi_m's
    root u = zeta - 1/zeta goes to zeta**r - zeta**-r, which for odd r is
    W_r(u), with W_0 = 2, W_1 = u, W_j = u*W_(j-1) + W_(j-2); for even r
    (odd m) it is -W_(m-r)(u).
    """
    params = canonical_params(m)
    div = (params.upsilon if upsilon_side else params.psi).coeffs
    sign, step = 1, -1 if upsilon_side else 1
    if not upsilon_side and not r & 1:
        sign, r = -1, m - r
    one = [1] + [0] * (len(div) - 2)
    prev, cur = [2 * c for c in one], _times_x(one, div)
    for _ in range(r - 1):
        prev, cur = cur, [a + step * b for a, b in zip(_times_x(cur, div), prev)]
    return tuple(sign * c for c in cur)


@lru_cache(maxsize=64)
def _galois_matrix(m: int, r: int) -> tuple[tuple[int, ...], ...]:
    """sigma_r on Z[x]/Upsilon_m as d rows over Z: row i holds the x**i
    coefficients of s_r(x)**j for j < d, so that sigma_r(sum c_j x**j)
    has coefficient i equal to the dot product of row i with c."""
    div = canonical_params(m).upsilon.coeffs
    s = _galois_image(m, r, True)
    col = [1] + [0] * (len(s) - 1)
    cols = [col]
    for _ in range(len(s) - 1):  # col*s mod Upsilon_m, by Horner in s
        acc = [0] * len(s)
        for c in reversed(s):
            acc = [a + c * b for a, b in zip(_times_x(acc, div), col)]
        cols.append(col := acc)
    return tuple(zip(*cols))


@lru_cache(maxsize=64)
def _conjugate_chain(m: int, backward: bool = False) -> tuple[int, int, tuple, tuple] | None:
    """(eps, k, first, step) relating x and 1 + x mod Upsilon_m over Z, or
    None when m has no such chain. Built on first use; the i-th conjugate
    is step applied i times to first's image, so the two matrices
    (_galois_matrix) serve every i.

    Forward: 1 + x = eps * prod_(i<k) sigma_(2**i*h)(x), h = (m+1)/2, with
    first = sigma_h and step = sigma_2. Backward: x = eps * prod_(i<k)
    sigma_(2*3**i)(1 + x), with first = sigma_2 and step = sigma_3.

    Let s_j = zeta**(j*h) - zeta**(-j*h), which depends on j mod m, with
    s_(-j) = -s_j and sigma_b(s_j) = s_(b*j). As zeta = zeta**(2*h),
    t = zeta + 1/zeta is s_4/s_2 and 1 + t is s_3/s_1. Forward, the
    factor sigma_b(t) = s_(4*b)/s_(2*b) at b = 2**i*h is
    s_(2**(i+1))/s_(2**i), so the product telescopes to s_(2**k)/s_1,
    which is eps*(1 + t) when 2**k = eps*3 mod m. Backward, the factor
    sigma_b(1 + t) = s_(3*b)/s_b at b = 2*3**i is s_(2*3**(i+1))/s_(2*3**i),
    so the product is s_(2*3**k)/s_2 = eps*t when 3**k = eps*2 mod m. A
    forward chain exists exactly when p_m >= 5 and 3 is in +-<2> mod m
    (5, 7, 11, 13, 19, 23, 25, 29, 37, ...), a backward one exactly when
    p_m >= 5 and 2 is in +-<3> (cond1 takes it at 17, 31, 43, 89, 113,
    127, 137, ..., which have no forward chain); neither at 9, 27 or a
    power of 2.
    """
    g, c, target = (3, 2, 2) if backward else (2, (m + 1) // 2, 3)
    b = g % m
    for k in range(1, m):
        if b in (target, m - target):
            return (1 if b == target else -1), k, _galois_matrix(m, c), _galois_matrix(m, g)
        b = g * b % m
    return None


# The two ladder bases, and (1+x)**r, r < 3, for the cube rule.
_X, _ONE_PLUS_X = Poly([0, 1]), Poly([1, 1])
_ONE_PLUS_X_POW = ([1], [1, 1], [1, 2, 1])


def _cond1_powers(n: int, params: CanonicalParams) -> tuple[Poly, Poly | None]:
    """x**n and (1+x)**n mod <Upsilon_m, n> from one ladder, or x**n and
    None at an m with no rule (a power of 2, 27, 41, 73, ...).

    Every step is exact over Z for every odd n, prime or not, p_m | n
    included, so the x**n that cond3 reads is the ladder's. Each sigma is
    a ring endomorphism of Z[x]/Upsilon_m over Z, so sigma(y**n) =
    sigma(y)**n mod <Upsilon_m, n>, and eps**n = eps for odd n:

    - with a forward chain (_conjugate_chain), the ladder gives x**n and
      (1+x)**n = eps * prod sigma(x**n);
    - with a backward chain only, the ladder gives (1+x)**n and
      x**n = eps * prod sigma((1+x)**n);
    - at m = 9, Upsilon_9 = x**3 - 3x + 1 gives (1+x)**3 = 3x(x + 2), and
      x + 2 = sigma_5(x)**2. So for n = 3a + r and y = x**a from the
      ladder, x**n = y**2 * (y * x**r) and (1+x)**n = sigma_5(y**2) *
      (3**a * y * (1+x)**r), where y * x**r is y shifted by r.

    Each product is folded once.
    """
    m = params.m
    ring = QuotientRing(params.upsilon, n)
    cols = ring._table.cols
    if m == 9:
        a, r = divmod(n, 3)
        y = list(poly_powmod(ring, _X, a).coeffs)
        y += [0] * (3 - len(y))
        y2 = _fold(_product(y, y), cols, n)
        z2 = [sum(map(mul, row, y2)) for row in _galois_matrix(9, 5)]
        v = _fold([0] * r + y, cols, n)
        scale = pow(3, a, n)
        u = _fold([scale * c for c in _product(_ONE_PLUS_X_POW[r], y)], cols, n)
        return Poly(_fold(_product(y2, v), cols, n), n), Poly(_fold(_product(z2, u), cols, n), n)
    forward = _conjugate_chain(m)
    chain = forward or _conjugate_chain(m, True)
    if chain is None:
        return poly_powmod(ring, _X, n), None
    eps, k, first, step = chain
    power = poly_powmod(ring, _X if forward else _ONE_PLUS_X, n)
    out = y = [sum(map(mul, row, power.coeffs)) % n for row in first]
    for _ in range(k - 1):
        y = [sum(map(mul, row, y)) % n for row in step]
        out = _fold(_product(out, y), cols, n)
    other = Poly([eps * c for c in out], n)
    return (power, other) if forward else (other, power)


def _condition(
    n: int, params: CanonicalParams, name: str, xn: dict
) -> tuple[Poly, tuple[int, ...]]:
    """pgpc_condition, with x**n modulo each divisor D kept in xn.

    cond1 hands mbec_remainder x**n and, where m has a rule, (1+x)**n
    modulo Upsilon_m, both from one ladder (_cond1_powers); at the other
    m mbec_remainder runs the (1+x)**n ladder. cond2 always runs that
    ladder modulo Psi_m, where no such rule exists (README).

    cond3/cond4 start from x**n. With r = n mod m a unit and m >= 5,
    x -> s_r(x) (_galois_image) is a ring endomorphism of Z_n[x]/D for
    every n, since D(s_r(x)) = 0 mod D over Z. So if x**n = s_r(x) mod
    <D, n>, then x**(n**j) is the j-fold composite of s_r, which at j = d
    is c*x over Z, with c the expected constant (r**d = +-1 mod m); x is
    a unit (D(0) is +- a power of p_m), so x**(n**d - 1) = c exactly.
    Otherwise the power runs in full.
    """
    if name not in _CONDITIONS:
        raise ValueError(f"pgpc_condition: unknown condition {name!r}")
    if name == "cond1":
        xn[True], x1n = _cond1_powers(n, params)
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
        if xn[upsilon_side].coeffs == Poly(_galois_image(m, n % m, upsilon_side), n).coeffs:
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
    Condition 1 takes (1+x)**n from x**n where m allows it, and conditions
    3 and 4 start from x**n (see _condition).
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
