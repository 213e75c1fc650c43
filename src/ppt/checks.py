"""Compositeness checks: Euler-criterion and binomial-congruence defects.

Each check returns the full defect rather than a boolean, so a nonzero
result doubles as a verifiable witness of compositeness. The polynomial
variants test the same binomial congruence modulo the canonical divisor
polynomials attached to a parameter m.
"""

from __future__ import annotations

from dataclasses import dataclass

from .canonical import CanonicalParams
from .ntcore import jacobi
from .polyring import Poly, mbec_remainder, poly_powmod, quotient_ring
from .quadext import _pow

__all__ = [
    "PgpcReport",
    "bcc",
    "ecc",
    "fgpc_check",
    "pbpc",
    "pgpc_check",
    "pgpc_condition",
]


def _euler(q: int, n: int) -> tuple[int, int]:
    """(h, defect) with h = q**((n-1)/2) mod n and defect = h - (q | n)."""
    j = jacobi(q, n)
    if j == 0:
        raise ValueError("jacobi symbol is zero; gcd(q, n) is a factor")
    h = pow(q % n, (n - 1) >> 1, n)
    return h, (h - j) % n


def _binomial_defect(q: int, n: int, h: int) -> tuple[int, int]:
    """(1 + sqrt(q))**n - 1 - h*sqrt(q) for h = q**((n-1)/2) mod n."""
    a, b = _pow(1, 1, q, 0, n, n)
    return (a - 1) % n, (b - h) % n


def ecc(q: int, n: int) -> int:
    """Euler-criterion defect q**((n-1)/2) - (q | n) mod n, at odd n >= 3.

    Zero exactly when q**((n-1)/2) = (q | n) mod n. Raises when the Jacobi
    symbol vanishes, since gcd(q, n) > 1 already exposes a factor.
    """
    return _euler(q, n)[1]


def bcc(q: int, n: int) -> tuple[int, int]:
    """Binomial-congruence defect (a, b) of q at odd modulus n >= 3.

    Computes (1 + sqrt(q))**n - 1 - sqrt(q)**n = a + b*sqrt(q) in
    Z_n[sqrt(q)], where sqrt(q)**n reduces to the scalar multiple
    q**((n-1)/2) * sqrt(q).
    """
    if n < 3 or not n & 1:
        raise ValueError("bcc: modulus must be odd and >= 3")
    return _binomial_defect(q, n, pow(q, (n - 1) >> 1, n))


def pbpc(q: int, n: int) -> tuple[int, int, int]:
    """(euler, a, b): ecc's defect, then bcc's pair only if that is zero.

    Both share q**((n-1)/2); the pair reads (0, 0) when it is not
    computed. Raises as ecc does.
    """
    h, euler = _euler(q, n)
    if euler:
        return euler, 0, 0
    return (0, *_binomial_defect(q, n, h))


@dataclass(frozen=True)
class PgpcReport:
    """Outcome of the four-condition polynomial battery for parameter m.

    Conditions are evaluated in order and short-circuit at the first
    failure; a condition that was never evaluated reads None. For the
    failing condition the offending residue is kept as the witness, and
    what a prime would have given there as `expected`.
    """

    m: int
    cond1: bool | None
    cond2: bool | None
    cond3: bool | None
    cond4: bool | None
    failed: str | None
    witness: Poly | None
    expected: tuple[int, ...] | None

    @property
    def all_hold(self) -> bool:
        return (self.cond1, self.cond2, self.cond3, self.cond4) == (True,) * 4


_CONDITIONS = ("cond1", "cond2", "cond3", "cond4")


def pgpc_condition(
    n: int, params: CanonicalParams, name: str
) -> tuple[Poly, tuple[int, ...]]:
    """(residue, expected) of one battery condition at parameter m, odd n >= 3.

    1. (1+x)**n - 1 - x**n = 0 mod <Upsilon_m, n>
    2. (1+x)**n - 1 - x**n = 0 mod <Psi_m, n>
    3. x**(n**d - 1)        = 1 mod <Upsilon_m, n>, d = deg Upsilon_m
    4. x**(n**d - 1)        = c mod <Psi_m, n>, c = 1 if p_m = 2 else (n | p_m)

    The condition holds when the residue's coefficients equal `expected`.
    """
    if name not in _CONDITIONS:
        raise ValueError(f"pgpc_condition: unknown condition {name!r}")
    upsilon_side = name in ("cond1", "cond3")
    div = params.upsilon if upsilon_side else params.psi
    if name in ("cond1", "cond2"):
        return mbec_remainder(n, div), ()
    x = Poly([0, 1], n)
    residue = poly_powmod(quotient_ring(div, n), x, n**params.d - 1)
    p_m = params.p_m
    c = 1 % n if upsilon_side or p_m == 2 else jacobi(n, p_m) % n
    return residue, ((c,) if c else ())


def pgpc_check(n: int, params: CanonicalParams) -> PgpcReport:
    """The four conditions of pgpc_condition in order, for odd n >= 3."""
    for i, name in enumerate(_CONDITIONS):
        residue, want = pgpc_condition(n, params, name)
        if residue.coeffs != want:
            conds = [True] * i + [False] + [None] * (3 - i)
            return PgpcReport(params.m, *conds, name, residue, want)
    return PgpcReport(params.m, True, True, True, True, None, None, None)


def fgpc_check(n: int, params: CanonicalParams) -> tuple[bool, Poly]:
    """Single-condition variant: the second battery condition alone.

    Returns (holds, remainder); the remainder is the witness when it fails.
    """
    rem, _ = pgpc_condition(n, params, "cond2")
    return rem.is_zero, rem
