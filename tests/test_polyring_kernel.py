"""Differential tests of the quotient-ring kernel against a naive reference.

The reference works on plain lists, reduces every coefficient mod n after
every operation, and divides by the divisor as stored (coefficients in
[0, n)), one leading term at a time. It shares no code with polyring.

The strategies aim at the kernel's edges: divisor coefficients at the
sign boundary of the least-absolute residue ((n-1)/2, (n+1)/2, n-1) and
full-width random ones; degree-1 and degree-2 divisors; small moduli,
where fold-table entries over Z would exceed n; exponents 0, 1, 2, n-1 and
n**d - 1; the zero base; and inputs longer than the divisor.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from ppt.polyring import (
    Poly,
    QuotientRing,
    euler_poly_check,
    mbec_remainder,
    poly_mulmod,
    poly_powmod,
)

SMALL_N = (3, 5, 7, 9, 15, 21)


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
        return draw(st.sampled_from(SMALL_N))
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
    return draw(st.one_of(st.sampled_from((0, 1, 2, n - 1, n**d - 1)),
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
    n, div = data.draw(rings())
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
