"""The scalar tail: Euler's criterion, then (1 + sqrt(q))**n in Z_n[sqrt(q)].

An element of the quadratic extension ring Z_n[sqrt(q)] is a pair
a + b*sqrt(q), both coordinates reduced mod n, with sqrt(q)**2 = q. The
one power the package needs is the binomial defect's (1 + sqrt(q))**n,
so _pow serves the base 1 + sqrt(q) only. _tail runs both scalar checks;
the deciders' scalar routes and ppt.checks' ecc and bcc call it.
"""

from __future__ import annotations


def _pow(q: int, n: int, e: int) -> tuple[int, int]:
    """(1 + sqrt(q))**e mod n, n >= 2, by left-to-right binary squaring.

    q enters as a least-absolute residue (n - 2 as -2), so a small or
    signed one multiplies as a short integer. A set bit's multiply by
    1 + sqrt(q), (sa + sb*sqrt(q))*(1 + sqrt(q)) = sa + sb*q + (sa +
    sb)*sqrt(q), folds into the square before its reduction, so each bit
    reduces each coordinate with one % n (e = 1 returns the base).
    """
    if e == 0:
        return 1 % n, 0
    h = n >> 1
    q = (q + h) % n - h
    ra = rb = 1
    for bit in bin(e)[3:]:
        sa, sb = ra * ra + rb * rb * q, 2 * ra * rb
        if bit == "1":
            ra, rb = (sa + sb * q) % n, (sa + sb) % n
        else:
            ra, rb = sa % n, sb % n
    return ra, rb


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
    a, b = _pow(q, n, n)
    return 0, (a - 1) % n, (b - h) % n
