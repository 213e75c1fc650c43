"""The order conditions' shortcut: x**(n**d - 1) from x**n by s_r.

cond3/cond4 read `expected` without the n**d ladder when x**n equals
s_r(x), the image of the divisor's root under zeta -> zeta**r, r = n mod m.
That is exact for every n because of three facts about the integer
divisors, checked here over Z, and the differential test checks the
shortcut's residues against the full ladder.
"""

import math

import pytest
import sympy

import ppt.checks
from ppt.canonical import canonical_params
from ppt.checks import _galois_image, pgpc_condition
from ppt.ntcore import jacobi
from ppt.polyring import Poly, QuotientRing

from conftest import CARMICHAELS_1MOD24_1E8

PRIME_POWERS = [5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32]


def _mulmod(a, b, div):
    """a * b mod the monic div over Z, as len(div) - 1 coefficients."""
    k = len(div) - 1
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    for top in range(len(out) - 1, k - 1, -1):
        t = out.pop()
        for i, c in enumerate(div[:-1]):
            out[top - k + i] -= t * c
    return out + [0] * (k - len(out))


def _compose(f, powers):
    """f(s) mod the divisor, from powers[j] = s**j mod the divisor."""
    return [sum(c * pw[i] for c, pw in zip(f, powers)) for i in range(len(powers[0]))]


@pytest.mark.parametrize("m", PRIME_POWERS)
@pytest.mark.parametrize("side", ["upsilon", "psi"])
def test_galois_image_identity_over_z(m, side):
    params = canonical_params(m)
    div = list(getattr(params, side).coeffs)
    k, p = len(div) - 1, params.p_m
    # x is a unit modulo <D, n> whenever p_m does not divide n
    const = abs(div[0])
    while const % p == 0:
        const //= p
    assert const == 1 and div[0] != 0
    for r in (r for r in range(1, m) if math.gcd(r, m) == 1):
        s = list(_galois_image(m, r, side == "upsilon"))
        assert len(s) == k
        powers = [[1] + [0] * (k - 1)]
        for _ in range(k):
            powers.append(_mulmod(powers[-1], s, div))
        # D(s_r(x)) = 0 mod D: x -> s_r(x) is a ring endomorphism
        assert _compose(div, powers) == [0] * k, (m, side, r)
        # the d-fold composite of s_r is c*x
        c = 1 if side == "upsilon" or p == 2 else jacobi(r, p)
        f = [0, 1] + [0] * (k - 2)
        for _ in range(params.d):
            f = _compose(f, powers[:k])
        assert f == [0, c] + [0] * (k - 2), (m, side, r)


def test_shortcut_matches_the_full_ladder(monkeypatch):
    # Every n = 1 mod 24 below 20,000 (some divisible by p_m) and the
    # Carmichael numbers 1 mod 24 below 1e8; and every odd n below 400 at
    # m = 3 and 4, which the shortcut leaves to the ladder (at m = 4 it
    # would be wrong: x is no unit modulo Upsilon_4 = t, and r = 3 sends
    # Psi_4's root u to -u). A residue the shortcut did not settle comes
    # from one poly_powmod(QuotientRing(D, n), x, n**d - 1) call, which
    # the spy checks and answers with a marker instead of running; every
    # residue the shortcut settled is compared with that ladder.
    ladder = object()
    real = ppt.checks.poly_powmod
    calls = []

    def spy(ring, base, e):
        calls.append(e)
        if e == ring.n:
            return real(ring, base, e)
        assert (ring.divisor, base, e) == (div.reduced(n), Poly([0, 1], n), n**d - 1)
        return ladder

    for c in CARMICHAELS_1MOD24_1E8:  # Korselt's criterion
        f = sympy.factorint(c)
        assert len(f) > 1 and set(f.values()) == {1}
        assert all((c - 1) % (q - 1) == 0 for q in f)
    monkeypatch.setattr(ppt.checks, "poly_powmod", spy)
    numbers = [*range(25, 20000, 24), *CARMICHAELS_1MOD24_1E8]
    cases = [(m, numbers) for m in (5, 7, 9, 11, 13, 16, 17, 23)]
    cases += [(m, range(3, 400, 2)) for m in (3, 4)]
    compared = composite_shortcuts = 0
    for m, numbers in cases:
        params = canonical_params(m)
        d = params.d
        for n in numbers:
            for name, div in (("cond3", params.upsilon), ("cond4", params.psi)):
                calls.clear()
                residue, _ = pgpc_condition(n, params, name)
                if residue is ladder:
                    assert calls == [n, n**d - 1]
                    continue
                assert calls == [n] and n % params.p_m
                x = Poly([0, 1], n)
                assert residue == real(QuotientRing(div, n), x, n**d - 1), (n, m, name)
                compared += 1
                composite_shortcuts += not sympy.isprime(n)
    assert compared > 4000
    assert composite_shortcuts > 100
