"""Unit tests for polynomial quotient-ring arithmetic."""

import random

import pytest

from ppt.polyring import Poly, QuotientRing, mbec_remainder, poly_powmod

from conftest import (
    HC1,
    HC2,
    MBEC_589_PSI5,
    MBEC_1729_PSI5,
    MBEC_1729_UPS5,
    MBEC_HC1_PSI13,
    MBEC_HC2_PSI23,
    MBEC_HC2_UPS23,
    MBEC_N22_PSI7,
    MBEC_NC_PSI5,
    N22,
    NC,
    PHI5,
    PSI5,
    PSI7,
    PSI13,
    PSI23,
    UPS5,
    UPS23,
)
from reference import poly_pow


class TestPoly:
    def test_normalisation(self):
        p = Poly([1, 2, 0, 0], 7)
        assert p.coeffs == (1, 2)
        assert p.degree == 1

    def test_zero(self):
        z = Poly([], 7)
        assert z.is_zero
        assert z.degree == -1
        assert Poly([0, 0], 7).is_zero

    def test_modular_reduction(self):
        p = Poly([-1, 9, 14], 7)
        assert p.coeffs == (6, 2)

    def test_integer_mode_keeps_signs(self):
        p = Poly([-1, -2, 1, 1])
        assert p.coeffs == (-1, -2, 1, 1)
        assert p.n == 0

    def test_reduced(self):
        p = Poly([-1, -2, 1, 1])
        assert p.reduced(7).coeffs == (6, 5, 1, 1)

    def test_equality_and_hash(self):
        assert Poly([1, 2], 7) == Poly([8, 9], 7)
        assert Poly([1, 2], 7) != Poly([1, 2], 11)
        assert hash(Poly([1, 2], 7)) == hash(Poly([8, 9], 7))

    def test_pretty_form(self):
        assert Poly([5, 0, 5, 0, 1]).pretty("u") == "u^4 + 5u^2 + 5"
        assert Poly([-1, -2, 1, 1]).pretty("t") == "t^3 + t^2 - 2t - 1"
        assert Poly([2, 0, 4, 0, 1]).pretty("u") == "u^4 + 4u^2 + 2"
        assert Poly([], 7).pretty("x") == "0"

    def test_immutability(self):
        p = Poly([1, 2], 7)
        with pytest.raises(AttributeError):
            p.coeffs = (3,)


class TestQuotientRing:
    def test_requires_monic_divisor(self):
        with pytest.raises(ValueError):
            QuotientRing(Poly([1, 2], 7))  # leading coefficient 2

    def test_requires_positive_degree(self):
        with pytest.raises(ValueError):
            QuotientRing(Poly([1], 7))
        with pytest.raises(ValueError):
            QuotientRing(Poly([], 7))

    def test_modulus_can_come_from_argument(self):
        ring = QuotientRing(Poly(PSI5), 589)
        assert ring.n == 589

    def test_divisor_under_another_modulus_rejected(self):
        # x^2 + 2x + 1 reduced mod 7 is not a divisor mod 13.
        with pytest.raises(ValueError, match="modulus mismatch"):
            QuotientRing(Poly([1, 2, 1], 7), 13)
        with pytest.raises(ValueError, match="modulus mismatch"):
            mbec_remainder(13, Poly([6, 0, 1], 7))
        assert QuotientRing(Poly([1, 2, 1], 13), 13).n == 13
        assert QuotientRing(Poly([1, 2, 1]), 13).divisor == Poly([1, 2, 1], 13)

    def test_element_reduces_by_divisor(self):
        ring = QuotientRing(Poly([-2, 0, 1]), 7)  # x^2 - 2
        e = poly_powmod(ring, Poly([0, 0, 1]), 1)  # x^2 -> 2
        assert e.coeffs == (2,)


class TestPowmod:
    def test_frozen_linear_base_anchors(self):
        # x^568 mod <x^2 - 233, 569> collapses to the scalar 568.
        ring = QuotientRing(Poly([-233, 0, 1]), 569)
        assert poly_powmod(ring, Poly([0, 1]), 568).coeffs == (568,)
        ring7 = QuotientRing(Poly([-3, 0, 1]), 7)
        assert poly_powmod(ring7, Poly([0, 1]), 6).coeffs == (6,)

    def test_frozen_battery_powers(self):
        e = NC * NC - 1
        for divisor in (UPS5, PHI5, PSI5):
            ring = QuotientRing(Poly(divisor), NC)
            assert poly_powmod(ring, Poly([0, 1]), e).coeffs == (1,)

    def test_prime_battery_powers(self):
        e = 97 * 97 - 1
        ring_u = QuotientRing(Poly(UPS5), 97)
        assert poly_powmod(ring_u, Poly([0, 1]), e).coeffs == (1,)
        ring_p = QuotientRing(Poly(PSI5), 97)
        assert poly_powmod(ring_p, Poly([0, 1]), e).coeffs == (96,)

    def test_carmichael_battery_powers(self):
        e = 1729 * 1729 - 1
        ring_u = QuotientRing(Poly(UPS5), 1729)
        assert poly_powmod(ring_u, Poly([0, 1]), e).coeffs == (1464, 931)
        ring_p = QuotientRing(Poly(PSI5), 1729)
        assert poly_powmod(ring_p, Poly([0, 1]), e).coeffs == (1597, 0, 133)

    def test_zero_exponent(self):
        ring = QuotientRing(Poly([-2, 0, 1]), 7)
        assert poly_powmod(ring, Poly([3, 4], 7), 0).coeffs == (1,)

    def test_negative_exponent_rejected(self):
        ring = QuotientRing(Poly([-2, 0, 1]), 7)
        with pytest.raises(ValueError):
            poly_powmod(ring, Poly([3, 4], 7), -1)

    def test_base_under_another_modulus_rejected(self):
        ring = QuotientRing(Poly([-2, 0, 1]), 7)
        with pytest.raises(ValueError, match="modulus mismatch"):
            poly_powmod(ring, Poly([1, 2], 13), 2)

    def test_matches_iterated_multiplication(self):
        rng = random.Random(47)
        for _ in range(100):
            n = rng.randrange(3, 10**4) | 1
            deg = rng.randint(1, 5)
            div = [rng.randrange(n) for _ in range(deg)] + [1]
            ring = QuotientRing(Poly(div, n))
            base = [rng.randrange(n) for _ in range(deg)]
            e = rng.randrange(0, 30)
            got = poly_powmod(ring, Poly(base, n), e)
            assert got == Poly(poly_pow(base, e, div, n), n)

    def test_linear_base_fast_path_matches_generic(self):
        rng = random.Random(53)
        for _ in range(60):
            n = rng.randrange(3, 10**6) | 1
            deg = rng.randint(2, 6)
            div = [rng.randrange(n) for _ in range(deg)] + [1]
            ring = QuotientRing(Poly(div, n))
            c0, c1 = rng.randrange(n), rng.randrange(n)
            e = rng.randrange(0, 512)
            got = poly_powmod(ring, Poly([c0, c1], n), e)
            assert got == Poly(poly_pow([c0, c1], e, div, n), n)


class TestMbecRemainder:
    def test_small_composite_quadruple(self):
        got = mbec_remainder(589, Poly(PSI5))
        assert list(got.coeffs) == MBEC_589_PSI5

    def test_small_prime_vanishes(self):
        assert mbec_remainder(569, Poly(PSI5)).is_zero
        assert mbec_remainder(97, Poly(UPS5)).is_zero
        assert mbec_remainder(97, Poly(PSI5)).is_zero

    def test_frozen_remainders(self):
        cases = [
            (NC, PSI5, MBEC_NC_PSI5),
            (1729, UPS5, MBEC_1729_UPS5),
            (1729, PSI5, MBEC_1729_PSI5),
            (N22, PSI7, MBEC_N22_PSI7),
            (HC1, PSI13, MBEC_HC1_PSI13),
            (HC2, UPS23, MBEC_HC2_UPS23),
            (HC2, PSI23, MBEC_HC2_PSI23),
        ]
        for n, divisor, want in cases:
            got = mbec_remainder(n, Poly(divisor))
            assert list(got.coeffs) == want, (n, divisor)

    def test_composite_passes_weaker_divisors(self):
        # NC fails the squared-root-form divisor but not the
        # half-trace or cyclotomic ones at m = 5.
        assert mbec_remainder(NC, Poly(UPS5)).is_zero
        assert mbec_remainder(NC, Poly(PHI5)).is_zero

    def test_rejects_even_modulus(self):
        with pytest.raises(ValueError):
            mbec_remainder(10, Poly(PSI5))

    def test_given_xn_is_reduced_in_the_ring(self):
        # x**3 + x**2 is x modulo Upsilon_5 = x**2 + x - 1, and x is
        # x**1009 there at the prime 1009.
        xn = Poly([0, 0, 1, 1], 1009)
        assert mbec_remainder(1009, Poly(UPS5), xn) == mbec_remainder(1009, Poly(UPS5))

    def test_given_powers_are_subtracted(self):
        # Both powers handed in: reduced records are subtracted as they
        # are, and other representatives are reduced first; a divisor the
        # ring would refuse is refused either way.
        n, ups = 1009, Poly(UPS5)
        want = mbec_remainder(n, ups)
        ring = QuotientRing(ups, n)
        xn, x1n = poly_powmod(ring, Poly([0, 1]), n), poly_powmod(ring, Poly([1, 1]), n)
        assert mbec_remainder(n, ups, xn, x1n) == want
        assert mbec_remainder(n, ups, Poly([0, 0, 1, 1], n), Poly(x1n.coeffs)) == want
        with pytest.raises(ValueError, match="monic"):
            mbec_remainder(n, Poly([-1, 1, 2]), xn, x1n)
        with pytest.raises(ValueError, match="modulus mismatch"):
            mbec_remainder(n, Poly(UPS5, 7), xn, x1n)

