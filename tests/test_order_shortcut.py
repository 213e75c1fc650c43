"""The battery's Galois shortcuts, checked over Z and against the ladders.

cond3/cond4 read `expected` without the n**d ladder when x**n equals
s_r(x), the image of the divisor's root under zeta -> zeta**r, r = n mod m.
That is exact for every n because of three facts about the integer
divisors, checked here over Z, and the differential test checks the
shortcut's residues against the full ladder.

cond1 takes one of x**n and (1+x)**n modulo Upsilon_m from a ladder and
the other from an identity over Z: a signed product of conjugates of x**n
where 1 + x is such a product of conjugates of x (forward chain), of
conjugates of (1+x)**n where x is such a product of conjugates of 1 + x
(backward chain), or, at m = 9, (1+x)**3 = 3 * x * s_5(x)**2. The identities are
checked here, and the residues against the x**n and (1+x)**n ladders.
"""

import math

import pytest
import sympy

import ppt.checks
import ppt.polyring
from ppt.canonical import canonical_params
from ppt.checks import _cond1_powers, _conjugate_chain, _galois_image, pgpc_condition
from ppt.ntcore import jacobi
from ppt.polyring import Poly, QuotientRing, mbec_remainder, poly_powmod

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


@pytest.mark.parametrize("m", PRIME_POWERS)
def test_backward_chain_identity_over_z(m):
    # x = eps * prod_(i<k) s_(2*3**i)(1 + x) mod Upsilon_m over Z whenever
    # 3**k = eps*2 mod m; such k exists exactly when p_m >= 5 and 2 is in
    # +-<3> mod m, and cond1 takes it only where there is no forward chain
    # (17 and 31 here). The two matrices are sigma_2's and sigma_3's action
    # on the powers of x below d, and sigma_3 applied i times to
    # sigma_2(1 + x) gives 1 + s_(2*3**i)(x).
    params = canonical_params(m)
    div = list(params.upsilon.coeffs)
    d = params.d
    threes = {pow(3, i, m) for i in range(m)}
    chain = _conjugate_chain(m, True)
    assert (chain is not None) == (params.p_m >= 5 and bool({2, m - 2} & threes)), m
    assert (chain is not None and _conjugate_chain(m) is None) == (m in (17, 31)), m
    if chain is None:
        return
    eps, k, first, step = chain
    assert pow(3, k, m) == eps * 2 % m and all(pow(3, i, m) not in (2, m - 2) for i in range(1, k))
    for r, rows in ((2, first), (3, step)):
        s = list(_galois_image(m, r, True))
        powers = [[1] + [0] * (d - 1)]
        for _ in range(d - 1):
            powers.append(_mulmod(powers[-1], s, div))
        assert [list(col) for col in zip(*rows)] == powers, (m, r)
    product = [1] + [0] * (d - 1)
    y = [1, 1] + [0] * (d - 2)
    for i in range(k):
        y = [sum(a * b for a, b in zip(row, y)) for row in (first if i == 0 else step)]
        s = list(_galois_image(m, 2 * pow(3, i, m) % m, True))
        assert y == [1 + s[0], *s[1:]], (m, i)
        product = _mulmod(product, y, div)
    assert [eps * c for c in product] == [0, 1] + [0] * (d - 2), m


def test_cube_rule_identity_over_z():
    # (1+x)**3 = 3 * x * s_5(x)**2 mod Upsilon_9 = x**3 - 3x + 1 over Z:
    # (1+x)**3 = 3x(x + 2) there, and s_5(x)**2 = x + 2, since
    # (zeta**5 + zeta**-5)**2 = zeta**10 + 2 + zeta**-10 with zeta**9 = 1.
    div = list(canonical_params(9).upsilon.coeffs)
    assert div == [1, -3, 0, 1]
    s = list(_galois_image(9, 5, True))
    cube = _mulmod(_mulmod([1, 1], [1, 1], div), [1, 1], div)
    assert cube == [3 * c for c in _mulmod([0, 1], _mulmod(s, s, div), div)] == [0, 6, 3]


@pytest.mark.parametrize("m", PRIME_POWERS)
def test_cond1_rule_by_m(m):
    # cond1 derives (1+x)**n or x**n from the other at every m here but 8,
    # 16, 27 and 32, where mbec_remainder runs the (1+x)**n ladder.
    params = canonical_params(m)
    for n in (3, 1009, 2**64 + 13):
        xn, x1n = _cond1_powers(n, params)
        assert (x1n is None) == (m in (8, 16, 27, 32)), (m, n)


def test_one_plus_x_from_conjugates_matches_the_ladder(monkeypatch):
    # cond1's residue from one ladder and an exact rule equals
    # mbec_remainder's x**n and (1+x)**n ladders, and the x**n it keeps for
    # cond3 equals the x**n ladder, at every odd n < 3000 (p_m | n
    # included), every n = 1 mod 24 below 20,000, the Carmichael numbers 1
    # mod 24 below 1e8 and an m = 37 prime/composite pair. The spy on the
    # ring powers shows one ladder base per m: x at a forward chain and at
    # m = 9, 1 + x at the backward chains (17, 31), and both at m = 16,
    # which has no rule.
    real = ppt.polyring._ring_power
    bases = set()

    def spy(table, n, base, e):
        bases.add(tuple(base))
        return real(table, n, base, e)

    numbers = [*range(3, 3000, 2), *range(25, 20000, 24), *CARMICHAELS_1MOD24_1E8,
               M37_PRIME, M37_COMPOSITE]
    cases = [(m, numbers) for m in (5, 7, 9, 11, 13, 17, 19, 23, 25, 31, 37)]
    cases += [(16, range(25, 3000, 24))]
    for m, numbers in cases:
        params = canonical_params(m)
        want_bases = {(1, 1)} if m in (17, 31) else {(0, 1), (1, 1)} if m == 16 else {(0, 1)}
        for n in numbers:
            monkeypatch.setattr(ppt.polyring, "_ring_power", spy)
            bases.clear()
            xn = {}
            residue, want = ppt.checks._condition(n, params, "cond1", xn)
            monkeypatch.undo()
            assert bases == want_bases, (m, n)
            assert want == () and residue == mbec_remainder(n, params.upsilon), (m, n)
            x = Poly([0, 1], n)
            assert xn == {True: poly_powmod(QuotientRing(params.upsilon, n), x, n)}, (m, n)


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
