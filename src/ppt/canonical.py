"""Canonical divisor polynomials and the parameter search for n = 1 mod 24.

For a prime power m = p**k >= 3 this module builds, over the integers:

* the cyclotomic polynomial Phi_m(x) (prime-power case only),
* Upsilon_m(t), the image of Phi_m under x + 1/x -> t (degree phi(m)/2),
* Psi_m(u), whose root is u = zeta - 1/zeta: Upsilon_m(u**2 + 2) for odd m
  (degree phi(m)), C0(u**2 + 4) for m = 2**k >= 8, where Upsilon_m(t) =
  C0(t**2) (degree phi(m)/2), and Psi_4 = u**2 + 4 (degree 2).

It also implements the search that, for n = 1 mod 24, produces either a
divisor of n, a small prime quadratic non-residue, or the parameter m that
minimizes deg Upsilon_m among the admissible prime powers examined.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import count
from typing import NamedTuple

from .ntcore import _prime, jacobi
from .polyring import Poly

__all__ = [
    "CanonicalParams",
    "FindResult",
    "canonical_params",
    "cyclotomic_prime_power",
    "factor_prime_power",
    "find_qnr_or_m",
    "psi_of",
    "upsilon_of",
]


def factor_prime_power(m: int) -> tuple[int, int]:
    """(p, k) with m = p**k, requiring m >= 3 and exactly one prime factor."""
    if m < 3:
        raise ValueError("factor_prime_power: m must be >= 3")
    p = next(p for p in map(_prime, count()) if m % p == 0 or p * p > m)
    if m % p:  # no prime up to sqrt(m) divides m
        p = m
    v, k = m, 0
    while v % p == 0:
        v //= p
        k += 1
    if v != 1:
        raise ValueError(f"factor_prime_power: {m} is not a prime power")
    return p, k


def _combine(a: list[int], b: list[int], c: int) -> list[int]:
    """a + c*b over Z, trailing zeros dropped."""
    if not c:
        return a
    out = a + [0] * (len(b) - len(a))
    for i, x in enumerate(b):
        out[i] += c * x
    while out and out[-1] == 0:
        out.pop()
    return out


def cyclotomic_prime_power(m: int) -> Poly:
    """Phi_m(x) = sum of x**(i * p**(k-1)) for i in [0, p), m = p**k."""
    p, k = factor_prime_power(m)
    step = p ** (k - 1)
    out = [0] * (step * (p - 1) + 1)
    for i in range(p):
        out[i * step] = 1
    return Poly(out, 0)


def upsilon_of(m: int) -> Poly:
    """Upsilon_m(t): Phi_m rewritten via x + 1/x -> t.

    Built against the basis p_0 = 2, p_1 = t, p_j = t*p_{j-1} - p_{j-2},
    which satisfies x**j + x**(-j) = p_j(x + 1/x). Monic of degree phi(m)/2.
    """
    phi = list(cyclotomic_prime_power(m).coeffs)
    d = (len(phi) - 1) // 2
    prev, cur = [2], [0, 1]
    ups = [phi[d]]
    for j in range(1, d + 1):
        if j > 1:
            prev, cur = cur, _combine([0, *cur], prev, -1)
        ups = _combine(ups, cur, phi[d + j])
    return Poly(ups, 0)


def psi_of(m: int) -> Poly:
    """Psi_m(u), monic, with root u = zeta - 1/zeta, zeta = exp(2*pi*i/m).

    For odd m, u**2 + 2 = zeta**2 + zeta**-2 is a root of Upsilon_m (zeta**2
    is a primitive m-th root too), reached from u and -u alike, so Psi_m(u) =
    Upsilon_m(u**2 + 2), of degree phi(m). For m = 2**k >= 8, Upsilon_m is
    even, C0(t**2), and t**2 = u**2 + 4, so Psi_m(u) = C0(u**2 + 4), of degree
    phi(m)/2 (that is Upsilon_(m/2)(u**2 + 2)). Upsilon_4 = t is odd: Psi_4 =
    u**2 + 4. Each composite is one Horner loop.
    """
    if m == 4:
        return Poly([4, 0, 1], 0)
    ups = upsilon_of(m).coeffs
    coeffs, c = (ups, 2) if m & 1 else (ups[::2], 4)
    psi: list[int] = []
    for a in reversed(coeffs):  # psi * (u**2 + c) + a
        psi = _combine([a, 0, *psi], psi, c)
    return Poly(psi, 0)


class CanonicalParams(NamedTuple):
    """The divisor polynomials and shape data attached to a prime power m."""

    m: int
    p_m: int
    k: int
    d: int
    upsilon: Poly
    psi: Poly


@lru_cache(maxsize=None)
def canonical_params(m: int) -> CanonicalParams:
    """Construct (and cache) the canonical data for prime power m >= 3."""
    p, k = factor_prime_power(m)
    ups = upsilon_of(m)
    psi = psi_of(m)
    d = ups.degree
    return CanonicalParams(m=m, p_m=p, k=k, d=d, upsilon=ups, psi=psi)


class FindResult(NamedTuple("FindResult", [("iterations", int), ("divisor", int | None),
                                           ("qnr", int | None), ("m", int | None)])):
    """Outcome of the parameter search: exactly one payload field is set,
    checked by every construction (_make and _replace too)."""

    __slots__ = ()

    def __new__(cls, iterations: int, divisor: int | None = None,
                qnr: int | None = None, m: int | None = None) -> FindResult:
        if (divisor is None) + (qnr is None) + (m is None) != 2:
            raise ValueError("FindResult: exactly one of divisor/qnr/m must be set")
        return tuple.__new__(cls, (iterations, divisor, qnr, m))

    _make = classmethod(lambda cls, fields: cls(*fields))


def find_qnr_or_m(n: int) -> FindResult:
    """Divisor of n, prime QNR mod n, or minimal-degree parameter m.

    Requires n = 1 mod 24 and n > 1. Walks the primes p = 2, 3, 5, ... while
    the running product of the p**(k-1) parts of n - 1 stays at most n - 1;
    for p | n - 1 it records the smallest inadmissible power p**k (that is,
    with p**k not dividing n - 1) scored by deg Upsilon; for any other p it
    either returns p as a quadratic non-residue of n (the residue n mod p is
    a non-residue mod p, which transfers by reciprocity since n = 1 mod 4)
    or lets p itself compete as a candidate parameter and stops.
    """
    if n < 25 or n % 24 != 1:
        raise ValueError("find_qnr_or_m: requires n > 1 with n mod 24 == 1")
    s = math.isqrt(n)
    if s * s == n:
        return FindResult(iterations=0, divisor=s)
    myprod = 1
    deg, m = n, None  # deg Upsilon_m; the first candidate, 2**k, beats n
    i = 0
    while myprod <= n - 1:
        p = _prime(i)
        i += 1
        r = n % p
        if r == 0:
            return FindResult(iterations=i, divisor=p)
        q = 1  # p**(k - 1), p**k the candidate parameter
        if r == 1:
            q, t = p, (n - 1) // p  # t = (n - 1) / q
            while t % p == 0:
                q, t = q * p, t // p
            myprod *= q
        elif jacobi(r, p) == -1:
            return FindResult(iterations=i, qnr=p)
        if (tdeg := (p - 1) * q >> 1) < deg:  # phi(p**k) / 2
            deg, m = tdeg, p * q
        if r != 1:
            break
    return FindResult(iterations=i, m=m)
