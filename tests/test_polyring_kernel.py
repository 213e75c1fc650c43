"""Differential tests of the quotient-ring kernel against a naive reference.

The reference works on plain lists, reduces every coefficient mod n after
every operation, and divides by the divisor as stored (coefficients in
[0, n)), one leading term at a time. It shares no code with polyring.

The strategies aim at the kernel's edges: divisor coefficients at the
sign boundary of the least-absolute residue ((n-1)/2, (n+1)/2, n-1) and
full-width random ones; degree-1 and degree-2 divisors; small moduli,
where fold-table entries over Z would exceed n; exponents 0, 1, 2, n-1, n
and n**d - 1; the zero base; and inputs longer than the divisor.

They also reach each route of the power: x modulo an even divisor P(x**2)
(the half ring), degree-2 divisors at odd and even n (quadext's ladder
with r**2 = -c0 - c1*r, also where n shares a factor with the
discriminant), and every other divisor on the fold table.
"""

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from ppt import polyring
from ppt.canonical import canonical_params
from ppt.polyring import (
    Poly,
    QuotientRing,
    euler_poly_check,
    mbec_remainder,
    poly_mulmod,
    poly_powmod,
)

SMALL_N = (3, 5, 7, 9, 15, 21)
EVEN_N = (4, 6, 10)


def ref_rem(p, div, n):
    """p mod <div, n>, trailing zeros stripped; div monic in [0, n)."""
    p = [c % n for c in p]
    k = len(div) - 1
    for i in range(len(p) - 1, k - 1, -1):
        c = p[i]
        for j in range(k + 1):
            p[i - k + j] = (p[i - k + j] - c * div[j]) % n
    p = p[:k]
    while p and p[-1] == 0:
        p.pop()
    return p


def ref_mul(a, b, div, n):
    """Schoolbook product, % n on every coefficient, then ref_rem."""
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % n
    return ref_rem(out, div, n)


def ref_pow(base, e, div, n):
    """Right-to-left square and multiply over ref_mul."""
    acc = ref_rem([1], div, n)
    sq = ref_rem(base, div, n)
    while e:
        if e & 1:
            acc = ref_mul(acc, sq, div, n)
        sq = ref_mul(sq, sq, div, n)
        e >>= 1
    return acc


@st.composite
def moduli(draw, odd=True):
    """Small moduli, where the fold table wraps, or wide random ones."""
    if draw(st.booleans()):
        return draw(st.sampled_from(SMALL_N if odd else SMALL_N + EVEN_N))
    n = draw(st.integers(min_value=3, max_value=2**200))
    return n | 1 if odd else n


@st.composite
def coefficient(draw, n):
    """A residue mod n, often at the least-absolute sign boundary."""
    edge = (0, 1, (n - 1) // 2, (n + 1) // 2, n - 1)
    return draw(st.one_of(st.sampled_from(edge),
                          st.integers(min_value=0, max_value=n - 1)))


@st.composite
def rings(draw, odd=True):
    """(n, divisor coefficients in [0, n), monic) with degree 1..6."""
    n = draw(moduli(odd))
    k = draw(st.sampled_from((1, 2, 2, 3, 4, 6)))
    div = [draw(coefficient(n)) for _ in range(k)] + [1]
    return n, div


@st.composite
def poly_coeffs(draw, n, k):
    """Up to k + 3 coefficients (longer than the divisor allowed), maybe
    none (the zero polynomial)."""
    size = draw(st.integers(min_value=0, max_value=k + 3))
    return [draw(coefficient(n)) for _ in range(size)]


@st.composite
def exponents(draw, n, k):
    d = draw(st.integers(min_value=1, max_value=k))
    return draw(st.one_of(st.sampled_from((0, 1, 2, n - 1, n, n**d - 1)),
                          st.integers(min_value=0, max_value=n**k)))


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_mulmod_matches_reference(data):
    n, div = data.draw(rings(odd=False))
    k = len(div) - 1
    a = data.draw(poly_coeffs(n, k))
    b = data.draw(poly_coeffs(n, k))
    ring = QuotientRing(Poly(div, n))
    got = poly_mulmod(ring, Poly(a, n), Poly(b, n))
    assert list(got.coeffs) == ref_mul(a, b, div, n)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_powmod_matches_reference(data):
    n, div = data.draw(rings(odd=False))
    k = len(div) - 1
    base = data.draw(poly_coeffs(n, k))
    e = data.draw(exponents(n, k))
    ring = QuotientRing(Poly(div, n))
    got = poly_powmod(ring, Poly(base, n), e)
    assert list(got.coeffs) == ref_pow(base, e, div, n)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_linear_powmod_matches_reference(data):
    """x, 1 + x and other linear bases, which take the O(k) multiply."""
    n, div = data.draw(rings())
    k = len(div) - 1
    base = [data.draw(coefficient(n)), data.draw(coefficient(n))]
    e = data.draw(exponents(n, k))
    ring = QuotientRing(Poly(div, n))
    got = poly_powmod(ring, Poly(base, n), e)
    assert list(got.coeffs) == ref_pow(base, e, div, n)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_mbec_remainder_matches_reference(data):
    n, div = data.draw(rings())
    a = ref_pow([1, 1], n, div, n)
    b = ref_pow([0, 1], n, div, n)
    want = [0] * max(len(a), len(b), 1)
    for i, c in enumerate(a):
        want[i] += c
    for i, c in enumerate(b):
        want[i] -= c
    want[0] -= 1
    assert mbec_remainder(n, Poly(div, n)) == Poly(want, n)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_element_matches_reference(data):
    """Signed, unreduced input of any length, including empty."""
    n, div = data.draw(rings(odd=False))
    size = data.draw(st.integers(min_value=0, max_value=3 * len(div)))
    coeffs = data.draw(st.lists(st.integers(min_value=-n**3, max_value=n**3),
                                min_size=size, max_size=size))
    ring = QuotientRing(Poly(div, n))
    assert list(ring.element(coeffs).coeffs) == ref_rem(coeffs, div, n)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_euler_poly_check_matches_reference(data):
    n = data.draw(moduli())
    q = data.draw(st.one_of(st.sampled_from((0, 1, 2, 3, n - 2, n - 1)),
                            st.integers(min_value=0, max_value=n - 1)))
    rem = ref_pow([0, 1], n - 1, [(-q) % n, 0, 1], n)
    want = None if len(rem) > 1 else (rem[0] if rem else 0)
    assert euler_poly_check(n, q) == want


def test_integer_divisor_at_sign_boundary():
    """A signed divisor and its residues mod n build the same ring."""
    for n in SMALL_N + (10**30 + 57,):
        h = (n - 1) // 2
        for low in ([h, h + 1], [h + 1, -h], [n - 1, 1], [-1, -h]):
            div = low + [1]
            ring_z = QuotientRing(Poly(div), n)
            ring_n = QuotientRing(Poly(div, n))
            reduced = [c % n for c in div]
            for e in (0, 1, 2, n - 1, n**2 - 1):
                want = ref_pow([0, 1], e, reduced, n)
                for ring in (ring_z, ring_n):
                    got = poly_powmod(ring, Poly([0, 1]), e)
                    assert list(got.coeffs) == want


@st.composite
def even_divisors(draw):
    """(n, P(x**2) as coefficients in [0, n)) with deg P in 1..4, any n."""
    n = draw(moduli(odd=False))
    k = draw(st.integers(min_value=1, max_value=4))
    low = [draw(coefficient(n)) for _ in range(k)] + [1]
    div = [0] * (2 * k + 1)
    div[::2] = low
    return n, div


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_x_powers_modulo_even_divisors(data):
    """x**e modulo P(x**2), where P may itself be even, at any parity."""
    n, div = data.draw(even_divisors())
    e = data.draw(exponents(n, len(div) - 1))
    ring = QuotientRing(Poly(div, n))
    got = poly_powmod(ring, Poly([0, 1], n), e)
    assert list(got.coeffs) == ref_pow([0, 1], e, div, n)


UPS5 = [-1, 1, 1]  # D = 5
P5 = [5, 5, 1]  # Psi_5 = P5(x**2), D = 5
P16 = [2, -4, 1]  # Upsilon_16 = P16(x**2), D = 8


@pytest.mark.parametrize("div", [UPS5, P5, P16, [0, 0, 1], [3, 0, 1]])
@pytest.mark.parametrize("n", [3, 5, 15, 25, 7, 9, 4, 6, 2, 2**64])
def test_degree_two_at_moduli_sharing_the_discriminant(n, div, monkeypatch):
    """n in {5, 15, 25} divides D = 5, 3 is the least odd modulus, 2 the
    least modulus, and even n runs on the same ladder as odd n."""
    monkeypatch.delattr(polyring, "_power")  # no power here folds
    reduced = [c % n for c in div]
    ring = QuotientRing(Poly(div), n)
    for base in ([0, 1], [1, 1], [n - 1, 1], [2, n - 1], [0, 3], [4]):
        for e in (0, 1, 2, n - 1, n, n**2 - 1, 7 * n + 3):
            got = poly_powmod(ring, Poly(base, n), e)
            assert list(got.coeffs) == ref_pow(base, e, reduced, n), (base, e)


@pytest.mark.parametrize("m", [5, 16, 32, 64])
def test_canonical_divisors_match_reference(m):
    """Upsilon_m and Psi_m at small and wide moduli, bases x and 1 + x."""
    params = canonical_params(m)
    for n in (3, 5, 15, 25, 97, 1009, 2**61 - 1, 2**127 - 1):
        for div in (params.upsilon, params.psi):
            reduced = list(div.reduced(n).coeffs)
            ring = QuotientRing(div, n)
            exps = (0, 1, 2, n) if m > 16 and n > 1009 else (
                0, 1, 2, n, n**params.d - 1)
            for e in exps:
                for base in ([0, 1], [1, 1]):
                    got = poly_powmod(ring, Poly(base, n), e)
                    assert list(got.coeffs) == ref_pow(base, e, reduced, n)
            a = ref_pow([1, 1], n, reduced, n)
            b = ref_pow([0, 1], n, reduced, n)
            want = [u - v for u, v in zip(a + [0] * m, b + [0] * m)]
            want[0] -= 1
            assert mbec_remainder(n, div) == Poly(want, n)
