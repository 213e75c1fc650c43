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

    Every integer in q's class mod n gives the same power; _tail passes
    the least-absolute one (n - 2 as -2), so that a small or signed q
    multiplies as a short integer. A set bit's multiply by 1 + sqrt(q),
    (sa + sb*sqrt(q))*(1 + sqrt(q)) = sa + sb*q + (sa + sb)*sqrt(q), folds
    into the square before its reduction, so each bit reduces each
    coordinate with one % n (e = 1 returns the base).
    """
    if e == 0:
        return 1 % n, 0
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

    Both powers take q's least-absolute residue s (n - 2 as -2): the Euler
    power raises |s| and negates the result when s < 0 and (n-1)/2 is odd.
    """
    e = n >> 1
    s = (q + e) % n - e
    h = pow(abs(s), e, n)
    if s < 0 and e & 1:
        h = -h % n
    euler = (h - j) % n if j else 0
    if euler or not pair:
        return euler, 0, 0
    a, b = _pow(s, n, n)
    return 0, (a - 1) % n, (b - h) % n
