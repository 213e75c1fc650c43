"""The battery's Galois shortcuts, checked over Z and against the ladders.

cond3/cond4 read `expected` without the n**d ladder when x**n equals
s_r(x), the image of the divisor's root under zeta -> zeta**r, r = n mod m.
That is exact for every n because of three facts about the integer
divisors, checked here over Z, and the differential test checks the
shortcut's residues against the full ladder.

cond1 takes x**n and (1+x)**n modulo Upsilon_m from cond2's x**n modulo
Psi_m = P(x**2): P(w) = Upsilon_m(w + 2), so that power is X = (t-2)**k,
k = (n-1)/2, and two identities over Z[t] give t**(n-1) and (1+t)**(n-1)
from the Galois conjugates of X, whose product is the norm, a power of
+-p_m. The facts are checked here over Z, and the residues against the
x**n and (1+x)**n ladders. The forward and backward conjugate chains
(1 + x and x as signed products of conjugates of each other) and the
m = 9 cube relation are checked over Z too, as identities that exercise
the Galois images and their matrices.
"""

import math
from itertools import zip_longest

import pytest
import sympy

import ppt
import ppt.checks
import ppt.polyring
from ppt.canonical import canonical_params, find_qnr_or_m
from ppt.checks import _cond1_powers, _galois_matrix, _plan, pgpc_condition
from ppt.ntcore import jacobi
from ppt.polyring import Poly, QuotientRing, mbec_remainder, poly_powmod

from conftest import BATTERY_EXITS, CARMICHAELS_1MOD24_1E8, M37_COMPOSITE, M37_PRIME

PRIME_POWERS = [5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32]


def _galois_image(m, r, upsilon_side):
    """s_r(x) mod the divisor over Z, as the plan of m holds it."""
    return _plan(m)[0][upsilon_side][r]


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


@pytest.mark.parametrize("m", [*PRIME_POWERS, 37, 61])
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



def _chain(m, g, target):
    """(eps, k) with g**k = eps*target mod m and k >= 1 least, or None."""
    for k in range(1, m):
        for eps in (1, -1):
            if pow(g, k, m) == eps * target % m:
                return eps, k
    return None


def _check_matrix(m, r, d, div):
    """_galois_matrix of s_r(x) holds s_r(x)**j mod Upsilon_m in column j < d."""
    s = list(_galois_image(m, r, True))
    powers = [[1] + [0] * (d - 1)]
    for _ in range(d - 1):
        powers.append(_mulmod(powers[-1], s, div))
    rows = _galois_matrix(s, div)
    assert [list(col) for col in zip(*rows)] == powers, (m, r)
    return rows


@pytest.mark.parametrize("m", PRIME_POWERS)
def test_one_plus_x_chain_identity_over_z(m):
    # 1 + x = eps * prod_(i<k) s_(2**i*h)(x) mod Upsilon_m over Z, h = (m+1)/2,
    # whenever 2**k = eps*3 mod m; such k exists exactly when p_m >= 5 and
    # 3 is in +-<2> mod m. sigma_2's matrix applied i times to s_h(x) gives
    # s_(2**i*h)(x): sigma_a(s_b(x)) = s_(ab)(x), which the plan's walk relies on.
    params = canonical_params(m)
    div = list(params.upsilon.coeffs)
    d = params.d
    twos = {pow(2, i, m) for i in range(m)}
    exists = params.p_m >= 5 and bool({3, m - 3} & twos)
    chain = _chain(m, 2, 3) if params.p_m >= 5 else None
    assert (chain is not None) == exists, m
    if chain is None:
        return
    eps, k = chain
    h = (m + 1) // 2
    first, step = _check_matrix(m, h, d, div), _check_matrix(m, 2, d, div)
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
    # +-<3> mod m, and only 17 and 31 here have it with no forward chain.
    # sigma_3's matrix applied i times to sigma_2(1 + x) gives
    # 1 + s_(2*3**i)(x).
    params = canonical_params(m)
    div = list(params.upsilon.coeffs)
    d = params.d
    threes = {pow(3, i, m) for i in range(m)}
    chain = _chain(m, 3, 2) if params.p_m >= 5 else None
    forward = _chain(m, 2, 3) if params.p_m >= 5 else None
    assert (chain is not None) == (params.p_m >= 5 and bool({2, m - 2} & threes)), m
    assert (chain is not None and forward is None) == (m in (17, 31)), m
    if chain is None:
        return
    eps, k = chain
    first, step = _check_matrix(m, 2, d, div), _check_matrix(m, 3, d, div)
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

def _taylor_shift(p, a):
    """p(w + a) over Z, by Horner."""
    out = []
    for c in reversed(p):
        out = [u + a * v for u, v in zip_longest([0, *out], out, fillvalue=0)]
        out[0] += c
    return out


def _lucas(b):
    """V_b(t) over Z, ascending: V_0 = 2, V_1 = t, V_j = t*V_(j-1) - V_(j-2)."""
    prev, cur = [2], [0, 1]
    for _ in range(b - 1):
        prev, cur = cur, [u - v for u, v in zip_longest([0, *cur], prev, fillvalue=0)]
    return cur if b else prev


def _times(a, b):
    """a * b over Z."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


ODD_PRIME_POWERS = [m for m in PRIME_POWERS if m & 1]
RULE_PRIME_POWERS = [m for m in ODD_PRIME_POWERS if m % 3 or m == 9]


@pytest.mark.parametrize("m", ODD_PRIME_POWERS)
def test_half_ring_is_shifted_upsilon(m):
    # Psi_m = P(x**2) with P(w) = Upsilon_m(w + 2) over Z: the root of P is
    # u**2 = zeta**2 - 2 + zeta**-2, a conjugate of t less 2. So cond2's
    # x**n = x * w**k, k = (n-1)/2, carries (t-2)**k mod Upsilon_m.
    params = canonical_params(m)
    psi = params.psi.coeffs
    assert not any(psi[1::2]), m
    assert list(psi[::2]) == _taylor_shift(params.upsilon.coeffs, 2), m


@pytest.mark.parametrize("m", PRIME_POWERS)
def test_conjugate_identities_over_z(m):
    # V_4(t) - 2 = t**2 * (V_2(t) - 2) and V_3(t) - 2 = (1+t)**2 * (t - 2)
    # over Z[t], and s_b(x) = V_b(x) mod Upsilon_m for b = 2, 3, 4 where b
    # is a unit mod m, so that sigma_b is the endomorphism cond1 applies.
    minus_two = lambda p: [p[0] - 2, *p[1:]]
    assert minus_two(_lucas(4)) == _times([0, 0, 1], minus_two(_lucas(2)))
    assert minus_two(_lucas(3)) == _times([1, 2, 1], [-2, 1])
    div = list(canonical_params(m).upsilon.coeffs)
    for b in (2, 3, 4):
        if math.gcd(b, m) == 1:
            assert list(_galois_image(m, b, True)) == _mulmod(_lucas(b), [1], div), (m, b)


@pytest.mark.parametrize("m", PRIME_POWERS)
def test_norm_of_t_minus_two(m):
    # Upsilon_m(2) = Phi_m(1) = p_m, so at odd m the product of the d
    # conjugates of t - 2, one per b in (Z/m)*/+-1, is (-1)**d * p_m over
    # Z: the norm N(t - 2), a unit mod every n that p_m does not divide.
    # At m = 9, V_3(t) = zeta**3 + zeta**-3 = -1, so V_3(t) - 2 = N(t - 2).
    params = canonical_params(m)
    div, d, p = list(params.upsilon.coeffs), params.d, params.p_m
    assert sum(c << i for i, c in enumerate(div)) == p
    if not m & 1:
        return
    norm = [(-1) ** d * p] + [0] * (d - 1)
    product = [1] + [0] * (d - 1)
    for b in range(1, (m + 1) // 2):
        if math.gcd(b, m) == 1:
            s = list(_galois_image(m, b, True))
            product = _mulmod(product, [s[0] - 2, *s[1:]], div)
    assert product == norm, m
    if m == 9:
        assert _mulmod([-2, -3, 0, 1], [1], div) == norm


@pytest.mark.parametrize("m", [*RULE_PRIME_POWERS, 37, 61])
def test_walk_visits_each_conjugate_once(m):
    # sigma_g applied i < d times to t gives each s_b(t), b in
    # (Z/m)*/+-1, once; the i2-th is s_2 and the i3-th s_3 (none at m = 9,
    # where 3 is no unit). The second matrix is sigma_2's action on the
    # powers of x below d.
    params = canonical_params(m)
    div, d = list(params.upsilon.coeffs), params.d
    step, two, i2, i3 = _plan(m)[1]
    y, seen = [0, 1] + [0] * (d - 2), []
    for _ in range(d):
        seen.append(tuple(y))
        y = [sum(a * b for a, b in zip(row, y)) for row in step]
    units = [b for b in range(1, (m + 1) // 2) if math.gcd(b, m) == 1]
    assert sorted(seen) == sorted(_galois_image(m, b, True) for b in units), m
    assert seen[i2] == _galois_image(m, 2, True), m
    assert (i3 is None) == (m == 9) and (m == 9 or seen[i3] == _galois_image(m, 3, True)), m
    s, power = list(_galois_image(m, 2, True)), [1] + [0] * (d - 1)
    for col in zip(*two):
        assert list(col) == power, m
        power = _mulmod(power, s, div)


def test_plan_builds_each_matrix_once(monkeypatch):
    # A plan builds sigma_g's matrix, and sigma_2's unless g = 2: one
    # matrix at m = 5, 7, 9 and 13, where g = 2, two at 17, where g = 3. A
    # second n at the same m, and the verifier's re-run of the battery for
    # each certificate, build none.
    real, built = ppt.checks._galois_matrix, []
    monkeypatch.setattr(ppt.checks, "_galois_matrix",
                        lambda s, div: built.append(s) or real(s, div))
    ppt.checks._plan.cache_clear()
    for m, want in ((5, 1), (7, 1), (9, 1), (13, 1), (17, 2)):
        built.clear()
        for n, outcome in zip(BATTERY_EXITS[m], ("prime", "composite")):
            assert find_qnr_or_m(n).m == m
            verdict = ppt.ppta_inr(n)
            assert verdict.outcome.value == outcome and len(built) == want, (m, n)
            assert ppt.verify_certificate(ppt.certificate(verdict)), (m, n)
            assert len(built) == want, (m, n)
        step, two, _, _ = _plan(m)[1]
        assert (step is two) == (want == 1), m


@pytest.mark.parametrize("m", PRIME_POWERS)
def test_cond1_rule_by_m(m):
    # cond1 derives x**n and (1+x)**n from cond2's x**n modulo Psi_m, which
    # it keeps for cond2, at every m here but 8, 16, 27 and 32 and every n
    # that p_m does not divide; elsewhere it runs both ladders modulo
    # Upsilon_m.
    params = canonical_params(m)
    for n in (3, 5, 7, 1009, 2**64 + 13):
        xn = {}
        _, x1n = _cond1_powers(n, params, xn)
        rule = m not in (8, 16, 27, 32) and n % params.p_m != 0
        assert (x1n is not None) == rule == (False in xn), (m, n)


def test_one_plus_x_from_conjugates_matches_the_ladder(monkeypatch):
    # cond1's x**n and residue, and so its (1+x)**n, equal the x**n and
    # (1+x)**n ladders modulo Upsilon_m, and the x**n kept for cond2 the
    # ladder modulo Psi_m, at every odd n < 3000 (p_m | n included), every n = 1
    # mod 24 below 20,000, the Carmichael numbers 1 mod 24 below 1e8, the
    # battery exits and an m = 37 prime/composite pair. The spy on the ring
    # powers shows the one power the rule takes (x modulo Psi_m, on its
    # half table), and both Upsilon ladders where p_m | n and at m = 16,
    # which has no rule.
    real = ppt.polyring._ring_power
    raised = []

    def spy(table, n, base, e):  # a half table's power is its ring's
        if (div := Poly(table.div, n).coeffs) in (ups, psi):
            raised.append((div, tuple(base)))
        return real(table, n, base, e)

    numbers = [*range(3, 3000, 2), *range(25, 20000, 24), *CARMICHAELS_1MOD24_1E8,
               *(n for pair in BATTERY_EXITS.values() for n in pair), M37_PRIME, M37_COMPOSITE]
    cases = [(m, numbers) for m in (5, 7, 9, 11, 13, 17, 19, 23, 25, 31, 37, 41, 49)]
    cases += [(16, range(25, 3000, 24))]
    for m, numbers in cases:
        params = canonical_params(m)
        for n in numbers:
            ups, psi = params.upsilon.reduced(n).coeffs, params.psi.reduced(n).coeffs
            monkeypatch.setattr(ppt.polyring, "_ring_power", spy)
            raised.clear()
            xn = {}
            residue, want = ppt.checks._condition(n, params, "cond1", xn)
            monkeypatch.undo()
            if m == 16 or n % params.p_m == 0:
                assert raised == [(ups, (0, 1)), (ups, (1, 1))], (m, n)
            else:
                assert raised == [(psi, (0, 1))], (m, n)
                x = poly_powmod(QuotientRing(params.psi, n), Poly([0, 1], n), n)
                assert xn[False] == x, (m, n)
            ring = QuotientRing(params.upsilon, n)
            x = poly_powmod(ring, Poly([0, 1], n), n)
            x1 = poly_powmod(ring, Poly([1, 1], n), n)
            assert xn[True] == x, (m, n)
            diff = [a - b for a, b in zip_longest(x1.coeffs, x.coeffs, fillvalue=0)] or [0]
            assert want == () and residue == Poly([diff[0] - 1, *diff[1:]], n), (m, n)


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
