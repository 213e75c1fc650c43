"""Differential tests of the quotient-ring kernel against a naive reference.

The reference, poly_pow and poly_rem in tests/reference.py, works on plain
lists and divides by the divisor as stored (coefficients in [0, n)), one
leading term at a time, reducing mod n. It shares no code with polyring.

The strategies aim at the kernel's edges: divisor coefficients at the
sign boundary of the least-absolute residue ((n-1)/2, (n+1)/2, n-1) and
full-width random ones; degree-1 and degree-2 divisors; small moduli,
where fold-table entries over Z would exceed n; exponents 0, 1, 2, n-1, n
and n**d - 1; the zero base; and inputs longer than the divisor.

They also reach each route of the power: x modulo an even divisor P(x**2)
(the half ring), x and 1 + x on the generated ladders of degree 2 and up
(at degree 2 at odd and even n, also where n shares a factor with the
discriminant), and every other power, other linear bases included, on the
list ladder.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from ppt import polyring
from ppt.canonical import canonical_params
from ppt.checks import pgpc_condition
from ppt.polyring import Poly, QuotientRing, mbec_remainder, poly_powmod

from reference import poly_pow, poly_rem

SMALL_N = (3, 5, 7, 9, 15, 21)
EVEN_N = (4, 6, 10)


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
@settings(max_examples=200, deadline=None)
def test_powmod_matches_reference(data):
    n, div = data.draw(rings(odd=False))
    k = len(div) - 1
    base = data.draw(poly_coeffs(n, k))
    e = data.draw(exponents(n, k))
    ring = QuotientRing(Poly(div, n))
    got = poly_powmod(ring, Poly(base, n), e)
    assert got == Poly(poly_pow(base, e, div, n), n)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_linear_powmod_matches_reference(data):
    """x and 1 + x, on the generated ladders, and other linear bases, on
    the list ladder."""
    n, div = data.draw(rings())
    k = len(div) - 1
    base = data.draw(st.one_of(st.sampled_from(([0, 1], [1, 1])),
                               st.lists(coefficient(n), min_size=2, max_size=2)))
    e = data.draw(exponents(n, k))
    ring = QuotientRing(Poly(div, n))
    got = poly_powmod(ring, Poly(base, n), e)
    assert got == Poly(poly_pow(base, e, div, n), n)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_mbec_remainder_matches_reference(data):
    n, div = data.draw(rings())
    a = poly_pow([1, 1], n, div, n)
    b = poly_pow([0, 1], n, div, n)
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
    assert poly_powmod(ring, Poly(coeffs), 1) == Poly(poly_rem(coeffs, div, n), n)


def test_integer_divisor_at_sign_boundary():
    """A signed divisor and its residues mod n build the same ring, also
    where its leading coefficient over Z is 1 only mod n: 7x**2 + x + 1 is
    x + 1 mod 7, and 8x**2 + 3 is x**2 + 3."""
    cases = [([1, 1, 7], 7), ([3, 0, 8], 7)]
    for n in SMALL_N + (10**30 + 57,):
        h = (n - 1) // 2
        for low in ([h, h + 1], [h + 1, -h], [n - 1, 1], [-1, -h]):
            cases.append((low + [1], n))
    for div, n in cases:
        ring_z = QuotientRing(Poly(div), n)
        ring_n = QuotientRing(Poly(div, n))
        reduced = list(Poly(div, n).coeffs)
        for e in (0, 1, 2, 5, n - 1, n**2 - 1):
            want = poly_pow([0, 1], e, reduced, n)
            for ring in (ring_z, ring_n):
                got = poly_powmod(ring, Poly([0, 1]), e)
                assert got == Poly(want, n), (div, n, e)


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
    assert got == Poly(poly_pow([0, 1], e, div, n), n)


UPS5 = [-1, 1, 1]  # D = 5
P5 = [5, 5, 1]  # Psi_5 = P5(x**2), D = 5
P16 = [2, -4, 1]  # Upsilon_16 = P16(x**2), D = 8


@pytest.mark.parametrize("div", [UPS5, P5, P16, [0, 0, 1], [3, 0, 1]])
@pytest.mark.parametrize("n", [3, 5, 15, 25, 7, 9, 4, 6, 2, 2**64])
def test_degree_two_at_moduli_sharing_the_discriminant(n, div):
    """n in {5, 15, 25} divides D = 5, 3 is the least odd modulus, 2 the
    least modulus, and even n runs on the same ladders as odd n. Only x
    and 1 + x compile a ladder; the other bases take the list ladder."""
    reduced = [c % n for c in div]
    ring = QuotientRing(Poly(div), n)
    for base in ([0, 1], [1, 1], [n - 1, 1], [2, n - 1], [0, 3], [4]):
        for e in (0, 1, 2, n - 1, n, n**2 - 1, 7 * n + 3):
            got = poly_powmod(ring, Poly(base, n), e)
            assert got == Poly(poly_pow(base, e, reduced, n), n), (base, e)
    assert ring._table.ladders.keys() == {"x", "1+x"}


@pytest.mark.parametrize("m", [5, 7, 9, 11, 13, 16, 17, 23, 32, 64])
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
                    assert got == Poly(poly_pow(base, e, reduced, n), n)
            a = poly_pow([1, 1], n, reduced, n)
            b = poly_pow([0, 1], n, reduced, n)
            want = [u - v for u, v in zip(a + [0] * m, b + [0] * m)]
            want[0] -= 1
            assert mbec_remainder(n, div) == Poly(want, n)


@pytest.mark.parametrize("m", [5, 7, 9, 11, 13, 16, 17])
def test_shared_table_at_moduli_dividing_an_entry(m):
    """A divisor over Z folds with one table over Z at every n, whose
    entries some of these n divide. Powers of x and 1 + x and the binomial
    remainder on Upsilon_m, Psi_m and Psi_m's half ring P(w), Psi_m =
    P(x**2), match the reference there, as they do on the same divisors
    given mod n, whose rings build their own table."""
    params = canonical_params(m)
    divs = (params.upsilon, params.psi, Poly(params.psi.coeffs[::2]))
    hits = 0
    for n in (3, 5, 7, 9, 11, 13, 25, 49):
        for div in divs:
            cols = polyring._shared(div.coeffs).cols
            hits += any(f and f % n == 0 for col in cols for f in col)
            reduced = list(div.reduced(n).coeffs)
            for e in (0, 1, 2, n, n * n + 1, 12345):
                for base in ([0, 1], [1, 1]):
                    want = poly_pow(base, e, reduced, n)
                    for ring in (QuotientRing(div, n), QuotientRing(div.reduced(n))):
                        got = poly_powmod(ring, Poly(base, n), e)
                        assert got == Poly(want, n), (n, div, e, base)
            a = poly_pow([1, 1], n, reduced, n)
            b = poly_pow([0, 1], n, reduced, n)
            want = [u - v for u, v in zip(a + [0] * m, b + [0] * m)]
            want[0] -= 1
            for d in (div, div.reduced(n)):
                assert mbec_remainder(n, d) == Poly(want, n), (n, d)
    assert hits


def test_wide_divisor_over_z_shares_its_table():
    """A divisor over Z shares its table over Z at every n, whatever its
    width: one with 100-bit coefficients gives the same table at two n,
    and its powers match the reference at both. The same divisor given mod
    n gets its own table, of least-absolute residues mod n."""
    div = Poly([2**100 + 3, 2**99 + 1, 0, 1])
    for n in (2**61 - 1, 2**89 - 1):
        ring = QuotientRing(div, n)
        assert ring._table is polyring._shared(div.coeffs)
        for base in ([0, 1], [1, 1]):
            got = poly_powmod(ring, Poly(base, n), n)
            assert got == Poly(poly_pow(base, n, list(div.reduced(n).coeffs), n), n)
        own = QuotientRing(div.reduced(n))._table
        assert all(abs(f) <= n // 2 for col in own.cols for f in col)


def test_ring_at_a_new_n_builds_nothing(monkeypatch):
    """A ring of a canonical divisor is its shared table plus n: at a new n
    it builds no fold table, no half table and no reduced Poly, at any m,
    however wide the table (Psi_37's entries have 76 bits, Psi_61's 131).
    Upsilon_16 and Psi_16 are both even, so both hold a half table; Psi_37
    and Psi_61 are even too."""
    cases = []
    for m in (16, 37, 61):
        params = canonical_params(m)
        divs = (params.upsilon, params.psi)
        tables = [QuotientRing(div, 1009)._table for div in divs]
        assert tables[1].half is not None and (m > 16 or tables[0].half is not None)
        cases += zip(divs, tables)
    built = []
    monkeypatch.setattr(polyring, "_fold_columns", lambda *a: built.append(a))
    monkeypatch.setattr(polyring, "Poly", lambda *a: built.append(a))
    for n in (1013, 2**127 - 1):
        for div, table in cases:
            assert QuotientRing(div, n)._table is table
    assert not built


def test_one_ladder_per_shape():
    """Rings of one divisor at two wide moduli run one compiled ladder per
    base kind, x or 1 + x: the table entries are the same small integers at
    both. 2 + 3x compiles none. Upsilon_17 has degree 8, Upsilon_5 degree 2."""
    for m in (17, 5):
        div = canonical_params(m).upsilon
        rings = [QuotientRing(div, n) for n in (2**127 - 1, 2**255 - 19)]
        for ring in rings:
            for base in ([0, 1], [1, 1], [2, 3]):
                poly_powmod(ring, Poly(base, ring.n), ring.n)
        a, b = (ring._table.ladders for ring in rings)
        assert a.keys() == b.keys() == {"x", "1+x"}, m
        for kind in a:
            assert a[kind][0] is b[kind][0]
            assert a[kind][1] == b[kind][1]


def test_one_shape_per_divisor_at_every_n(monkeypatch):
    """Psi_41's table over Z has 85-bit entries, and its rings share it at
    every n, as they do Upsilon_41's and Psi_41's half table: cond1 and
    cond2 over the odd n < 3,000 build those three fold tables once, and
    compile at most one ladder per divisor and base kind (x on Psi_41's
    half ring, and x and 1 + x on Upsilon_41 where 41 divides n, 1 + x on
    Psi_41), since the ladders fold on the places of the one table."""
    params = canonical_params(41)
    built = []
    real = polyring._fold_columns
    monkeypatch.setattr(polyring, "_fold_columns", lambda *a: built.append(a) or real(*a))
    polyring._shared.cache_clear()
    polyring._ladder.cache_clear()
    for n in range(3, 3000, 2):
        for cond in ("cond1", "cond2"):
            pgpc_condition(n, params, cond)
    assert len(built) <= 3
    assert polyring._ladder.cache_info().misses <= 4


@pytest.mark.parametrize("k", [*range(2, 17), 20, 33, 40, 63, 64])
def test_generated_square_matches_reference(k):
    """The generated ladders for x and 1 + x at every degree k from 2 to 16,
    odd and even, on both sides of _KARATSUBA_FROM, and at 20, 33, 40, 63
    and _MAX_UNROLLED = 64: with a dense random divisor and a sparse one,
    x**k + a*x + b, whose fold table has two nonzero entries per column,
    at random n of 20, 256 and 600 bits. Twelve-bit exponents square
    full-width coefficients at every k."""
    assert polyring._KARATSUBA_FROM in range(3, 17) and polyring._MAX_UNROLLED == 64
    rng = random.Random(k)
    for bits in (20, 256, 600):
        n = rng.getrandbits(bits) | 1 << (bits - 1) | 1
        dense = [rng.randrange(n) for _ in range(k)] + [1]
        sparse = [rng.randrange(1, n), rng.randrange(1, n)] + [0] * (k - 2) + [1]
        for div in (dense, sparse):
            ring = QuotientRing(Poly(div, n))
            for base in ([0, 1], [1, 1]):
                e = rng.getrandbits(12) | 1 << 11
                got = poly_powmod(ring, Poly(base, n), e)
                assert got == Poly(poly_pow(base, e, div, n), n), (bits, div is dense, base)
            assert ring._table.ladders.keys() == {"x", "1+x"}


def test_ladder_cache_is_bounded():
    """Nothing is compiled at import or by canonical_params, and the shape
    cache keeps a fixed number of ladders however many shapes run."""
    code = ("import ppt; from ppt import polyring; ppt.canonical_params(17);"
            "print(polyring._ladder.cache_info().currsize)")
    env = {**os.environ, "PYTHONPATH": str(Path(polyring.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.split() == ["0"]
    size = polyring._ladder.cache_info().maxsize
    assert size is not None
    places = [(i, j) for i in range(3) for j in range(3)]
    for mask in range(1, size + 6):  # shapes by the zero pattern of k = 3
        nz = tuple(p for b, p in enumerate(places) if mask >> b & 1)
        polyring._ladder(3, nz, "x")
    assert polyring._ladder.cache_info().currsize == size


def test_linear_base_above_the_unrolled_degree():
    """A divisor of degree _MAX_UNROLLED + 1 takes the list ladder."""
    k = polyring._MAX_UNROLLED + 1
    n = 2**89 - 1
    rng = random.Random(k)
    div = [rng.randrange(n) for _ in range(k)] + [1]
    ring = QuotientRing(Poly(div, n))
    for base in ([0, 1], [1, 1], [5, n - 2]):
        for e in (2 * k + 1, 1000):
            got = poly_powmod(ring, Poly(base, n), e)
            assert got == Poly(poly_pow(base, e, div, n), n)
    assert not ring._table.ladders
