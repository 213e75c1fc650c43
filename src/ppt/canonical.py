"""Canonical divisor polynomials and the parameter search for n = 1 mod 24.

For a prime power m = p**k >= 3 this module builds, over the integers:

* the cyclotomic polynomial Phi_m(x) (prime-power case only),
* Upsilon_m(t), the image of Phi_m under x + 1/x -> t (degree phi(m)/2),
* Psi_m(u), the image of Upsilon_m under the further substitution
  t**2 -> u**2 + 4 (degree phi(m) for odd p, phi(m)/2 for p = 2).

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
from .polyring import Poly, _product

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
    """Psi_m(u): Upsilon_m pushed through t**2 -> u**2 + 4.

    Splitting Upsilon by t-parity as C0(t**2) + t*C1(t**2) gives
    Psi = C0 when C1 vanishes and (u**2+4)*C1**2 - C0**2 otherwise,
    normalized to a positive leading coefficient.
    """
    ups = list(upsilon_of(m).coeffs)
    d = len(ups) - 1
    base = [4, 0, 1]
    c0: list[int] = []
    c1: list[int] = []
    tpow = [1]
    for j in range(0, d + 1, 2):
        c0 = _combine(c0, tpow, ups[j])
        if j < d:
            c1 = _combine(c1, tpow, ups[j + 1])
        tpow = _product(tpow, base)
    if not c1:
        psi = c0
    else:
        psi = _combine(_product(base, _product(c1, c1)), _product(c0, c0), -1)
    if psi and psi[-1] < 0:
        psi = [-c for c in psi]
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
    deg: int | None = None
    m: int | None = None
    i = 0
    while myprod <= n - 1:
        p = _prime(i)
        i += 1
        r = n % p
        if r == 0:
            return FindResult(iterations=i, divisor=p)
        if r == 1:
            k, t = 2, (n - 1) // p  # t = (n - 1) / p**(k - 1)
            while t % p == 0:
                k, t = k + 1, t // p
            if p == 2:
                deg = 2 ** (k - 2)
                m = 2**k
            else:
                tdeg = ((p - 1) // 2) * p ** (k - 1)
                if tdeg < deg:
                    deg = tdeg
                    m = p**k
            myprod *= p ** (k - 1)
        else:
            if jacobi(r, p) == -1:
                return FindResult(iterations=i, qnr=p)
            if (p - 1) // 2 < deg:
                deg = (p - 1) // 2
                m = p
            break
    return FindResult(iterations=i, m=m)
