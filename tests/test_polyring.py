"""Unit tests for polynomial quotient-ring arithmetic."""

import random

import pytest

from ppt.polyring import (
    Poly,
    QuotientRing,
    euler_poly_check,
    mbec_remainder,
    poly_mulmod,
    poly_powmod,
)

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
        e = ring.element([0, 0, 1])  # x^2 -> 2
        assert e.coeffs == (2,)


class TestMulmod:
    def test_product_of_factor_polynomials(self):
        # (x^3+5x^2+4x+10)(x^3+7x^2+6x+10) has all-ones coefficients
        # mod 11 once reduced, matching the degree-6 all-ones target.
        ring = QuotientRing(Poly([0, 0, 0, 0, 0, 0, 0, 1]), 11)  # x^7
        a = Poly([10, 4, 5, 1], 11)
        b = Poly([10, 6, 7, 1], 11)
        assert poly_mulmod(ring, a, b).coeffs == (1, 1, 1, 1, 1, 1, 1)

    def test_modulus_mismatch_rejected(self):
        ring = QuotientRing(Poly([-2, 0, 1]), 7)
        with pytest.raises(ValueError):
            poly_mulmod(ring, Poly([1, 2], 13), Poly([1], 7))

    def test_integer_coefficients_coerced(self):
        ring = QuotientRing(Poly([-2, 0, 1]), 7)
        out = poly_mulmod(ring, Poly([0, 1]), Poly([0, 1]))
        assert out.coeffs == (2,)

    def test_matches_schoolbook_reference(self):
        rng = random.Random(43)
        for _ in range(150):
            n = rng.randrange(3, 10**4) | 1
            deg = rng.randint(1, 6)
            div = [rng.randrange(n) for _ in range(deg)] + [1]
            ring = QuotientRing(Poly(div, n))
            a = [rng.randrange(n) for _ in range(rng.randint(0, 8))]
            b = [rng.randrange(n) for _ in range(rng.randint(0, 8))]
            got = poly_mulmod(ring, Poly(a, n), Poly(b, n))
            want = _schoolbook_mulmod(a, b, div, n)
            assert list(got.coeffs) == want


def _schoolbook_mulmod(a, b, div, n):
    """Reference: raw convolution then repeated subtraction of divisor."""
    prod = [0] * (len(a) + len(b))
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            prod[i + j] = (prod[i + j] + ca * cb) % n
    d = len(div) - 1
    while len(prod) > d:
        while prod and prod[-1] % n == 0:
            prod.pop()
        if len(prod) <= d:
            break
        lead = prod[-1] % n
        shift = len(prod) - 1 - d
        for k in range(len(div)):
            prod[shift + k] = (prod[shift + k] - lead * div[k]) % n
    out = [c % n for c in prod]
    while out and out[-1] == 0:
        out.pop()
    return out


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

    def test_matches_iterated_multiplication(self):
        rng = random.Random(47)
        for _ in range(100):
            n = rng.randrange(3, 10**4) | 1
            deg = rng.randint(1, 5)
            div = [rng.randrange(n) for _ in range(deg)] + [1]
            ring = QuotientRing(Poly(div, n))
            base = Poly([rng.randrange(n) for _ in range(deg)], n)
            e = rng.randrange(0, 30)
            acc = ring.element([1])
            for _ in range(e):
                acc = poly_mulmod(ring, acc, base)
            assert poly_powmod(ring, base, e) == acc

    def test_linear_base_fast_path_matches_generic(self):
        rng = random.Random(53)
        for _ in range(60):
            n = rng.randrange(3, 10**6) | 1
            deg = rng.randint(2, 6)
            div = [rng.randrange(n) for _ in range(deg)] + [1]
            ring = QuotientRing(Poly(div, n))
            c0, c1 = rng.randrange(n), rng.randrange(n)
            e = rng.randrange(0, 512)
            lin = Poly([c0, c1], n)
            acc = ring.element([1])
            for _ in range(e):
                acc = poly_mulmod(ring, acc, lin)
            assert poly_powmod(ring, lin, e) == acc


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


class TestEulerPolyCheck:
    def test_prime_with_nonresidue(self):
        # jacobi(233, 569) = -1 so x^568 mod <x^2-233> is the scalar -1.
        assert euler_poly_check(569, 233) == 568
        assert euler_poly_check(7, 3) == 6

    def test_prime_with_residue(self):
        # jacobi(2, 7) = 1 so the power collapses to +1.
        assert euler_poly_check(7, 2) == 1

    def test_collapses_to_scalar_euler_power(self):
        # n - 1 is even, so x^(n-1) = (x^2)^((n-1)/2) reduces to the
        # scalar q^((n-1)/2) for every odd n, prime or not.
        rng = random.Random(59)
        for _ in range(100):
            n = rng.randrange(3, 10**6) | 1
            q = rng.randrange(2, n)
            assert euler_poly_check(n, q) == pow(q, (n - 1) // 2, n)
        assert euler_poly_check(561, 389) == 1

    def test_rejects_even_modulus(self):
        with pytest.raises(ValueError):
            euler_poly_check(8, 3)
