"""Compositeness checks: Euler-criterion and binomial-congruence defects.

Each check returns the full defect rather than a boolean, so a nonzero
result doubles as a verifiable witness of compositeness. The polynomial
variants test the same binomial congruence modulo the canonical divisor
polynomials attached to a parameter m.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .canonical import CanonicalParams, canonical_params
from .ntcore import jacobi
from .polyring import Poly, QuotientRing, mbec_remainder, poly_powmod
from .quadext import _pow

__all__ = [
    "PgpcReport",
    "bcc",
    "ecc",
    "fgpc_check",
    "pgpc_check",
    "pgpc_condition",
]


def _tail(q: int, n: int, j: int, pair: bool = True) -> tuple[int, int, int]:
    """(euler, a, b) at q and odd n >= 3, in one pass: euler = q**((n-1)/2)
    - j mod n for j = (q | n), or 0 where j = 0 skips the criterion; then,
    if pair is set and euler is zero, the binomial defect (1 + sqrt(q))**n
    - 1 - q**((n-1)/2)*sqrt(q) = a + b*sqrt(q), else (a, b) = (0, 0).
    """
    h = pow(q, (n - 1) >> 1, n)
    euler = (h - j) % n if j else 0
    if euler or not pair:
        return euler, 0, 0
    a, b = _pow(1, 1, q, n, n)
    return 0, (a - 1) % n, (b - h) % n


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

    def times_x(p: list[int]) -> list[int]:  # x*p mod the monic divisor
        return [a - p[-1] * c for a, c in zip([0, *p[:-1]], div)]

    one = [1] + [0] * (len(div) - 2)
    prev, cur = [2 * c for c in one], times_x(one)
    for _ in range(r - 1):
        prev, cur = cur, [a + step * b for a, b in zip(times_x(cur), prev)]
    return tuple(sign * c for c in cur)


def _condition(
    n: int, params: CanonicalParams, name: str, xn: dict
) -> tuple[Poly, tuple[int, ...]]:
    """pgpc_condition, with x**n modulo each divisor D kept in xn.

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
    upsilon_side = name in ("cond1", "cond3")
    div = params.upsilon if upsilon_side else params.psi
    x = Poly([0, 1], n)
    if upsilon_side not in xn:
        xn[upsilon_side] = poly_powmod(QuotientRing(div, n), x, n)
    if name in ("cond1", "cond2"):
        return mbec_remainder(n, div, xn[upsilon_side]), ()
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
    Conditions 3 and 4 start from x**n (see _condition).
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
