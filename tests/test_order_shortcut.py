"""The battery's Galois shortcuts, checked over Z and against the ladders.

cond3/cond4 read `expected` without the n**d ladder when x**n equals
s_r(x), the image of the divisor's root under zeta -> zeta**r, r = n mod m.
That is exact for every n because of three facts about the integer
divisors, checked here over Z, and the differential test checks the
shortcut's residues against the full ladder.

cond1 takes (1+x)**n modulo Upsilon_m as a signed product of conjugates of
x**n, where 1 + x is such a product of conjugates of x over Z; the
identity is checked here, and the residues against the (1+x)**n ladder.
"""

import math

import pytest
import sympy

import ppt.checks
import ppt.polyring
from ppt.canonical import canonical_params
from ppt.checks import _conjugate_chain, _galois_image, pgpc_condition
from ppt.ntcore import jacobi
from ppt.polyring import Poly, QuotientRing, mbec_remainder

from conftest import CARMICHAELS_1MOD24_1E8, M37_COMPOSITE, M37_PRIME

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


@pytest.mark.parametrize("m", PRIME_POWERS)
def test_one_plus_x_chain_identity_over_z(m):
    # 1 + x = eps * prod_(i<k) s_(2**i*h)(x) mod Upsilon_m over Z, h = (m+1)/2,
    # whenever 2**k = eps*3 mod m; such k exists exactly when p_m >= 5 and
    # 3 is in +-<2> mod m. The two matrices are sigma_h's and sigma_2's
    # action on the powers of x below d, and sigma_2 applied i times to
    # s_h(x) gives s_(2**i*h)(x).
    params = canonical_params(m)
    div = list(params.upsilon.coeffs)
    d = params.d
    twos = {pow(2, i, m) for i in range(m)}
    exists = params.p_m >= 5 and bool({3, m - 3} & twos)
    chain = _conjugate_chain(m)
    assert (chain is not None) == exists, m
    if chain is None:
        return
    eps, k, first, step = chain
    assert pow(2, k, m) == eps * 3 % m and all(pow(2, i, m) not in (3, m - 3) for i in range(1, k))
    h = (m + 1) // 2
    for r, rows in ((h, first), (2, step)):
        s = list(_galois_image(m, r, True))
        powers = [[1] + [0] * (d - 1)]
        for _ in range(d - 1):
            powers.append(_mulmod(powers[-1], s, div))
        assert [list(col) for col in zip(*rows)] == powers, (m, r)
    product = [1] + [0] * (d - 1)
    y = [0, 1] + [0] * (d - 2)
    for i in range(k):
        y = [sum(a * b for a, b in zip(row, y)) for row in (first if i == 0 else step)]
        assert y == list(_galois_image(m, pow(2, i, m) * h % m, True)), (m, i)
        product = _mulmod(product, y, div)
    assert [eps * c for c in product] == [1, 1] + [0] * (d - 2), m


def test_one_plus_x_from_conjugates_matches_the_ladder(monkeypatch):
    # cond1's residue from the conjugate product equals mbec_remainder's
    # (1+x)**n ladder at every odd n < 3000 (p_m | n included), every
    # n = 1 mod 24 below 20,000, the Carmichael numbers 1 mod 24 below 1e8
    # and an m = 37 prime/composite pair; the spy on the ring powers shows
    # that cond1 raises no 1 + x where m has a chain, and still does at
    # m = 9, 16 and 17, which keep the ladder.
    real = ppt.polyring._ring_power
    bases = []

    def spy(table, n, base, e):
        bases.append(list(base))
        return real(table, n, base, e)

    numbers = [*range(3, 3000, 2), *range(25, 20000, 24), *CARMICHAELS_1MOD24_1E8,
               M37_PRIME, M37_COMPOSITE]
    cases = [(m, numbers) for m in (5, 7, 11, 13, 19, 23, 25, 37)]
    cases += [(m, range(25, 3000, 24)) for m in (9, 16, 17)]
    for m, numbers in cases:
        params = canonical_params(m)
        for n in numbers:
            monkeypatch.setattr(ppt.polyring, "_ring_power", spy)
            bases.clear()
            residue, want = pgpc_condition(n, params, "cond1")
            monkeypatch.undo()
            assert ([1, 1] in bases) == (m in (9, 16, 17)), (m, n)
            assert want == () and residue == mbec_remainder(n, params.upsilon), (m, n)


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
