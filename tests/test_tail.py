"""Unit tests for the scalar tail: the Z_n[sqrt(q)] ladder ppt.ntcore._pow,
the tail's signed Euler power through ecc and bcc, and the reference pair
arithmetic they are checked against."""

import random

import pytest
import sympy

from ppt.checks import bcc, ecc
from ppt.ntcore import _SQUARES_FROM, _pow
from reference import QuadCtx, conjugate, quad_mul, quad_pow


class TestContext:
    def test_reduces_radicand(self):
        ctx = QuadCtx(2047, 2045 + 2047)
        assert ctx.q == 2045

    def test_rejects_even_or_small_modulus(self):
        with pytest.raises(ValueError):
            QuadCtx(10, 3)
        with pytest.raises(ValueError):
            QuadCtx(1, 3)

    def test_element_reduction(self):
        ctx = QuadCtx(7, 3)
        x = ctx.element(-1, 15)
        assert (x.a, x.b) == (6, 1)

    def test_str_form(self):
        ctx = QuadCtx(7, 3)
        assert str(ctx.element(2, 5)) == "2 + 5*sqrt(3)"


class TestMul:
    def test_square_of_one_plus_root(self):
        # (1 + sqrt(2045))^2 = 2046 + 2*sqrt(2045) mod 2047
        ctx = QuadCtx(2047, 2045)
        x = ctx.one_plus_root()
        y = quad_mul(x, x)
        assert (y.a, y.b) == (2046, 2)

    def test_small_hand_example(self):
        # (2 + 3*sqrt(3)) * (4 + sqrt(3)) = 8 + 2*sqrt3 + 12*sqrt3 + 9
        #                                 = 17 + 14*sqrt(3) = 3 + 0 mod 7
        ctx = QuadCtx(7, 3)
        z = quad_mul(ctx.element(2, 3), ctx.element(4, 1))
        assert (z.a, z.b) == (3, 0)

    def test_context_mismatch_rejected(self):
        a = QuadCtx(7, 3).element(1, 1)
        b = QuadCtx(7, 5).element(1, 1)
        with pytest.raises(ValueError):
            quad_mul(a, b)
        c = QuadCtx(11, 3).element(1, 1)
        with pytest.raises(ValueError):
            quad_mul(a, c)


class TestPow:
    def test_frozen_anchor(self):
        # (1 + sqrt(2045))^2047 = 1523 + 1067*sqrt(2045) mod 2047
        ctx = QuadCtx(2047, 2045)
        y = quad_pow(ctx.one_plus_root(), 2047)
        assert (y.a, y.b) == (1523, 1067) == _pow(2045, 2047, 2047)

    def test_zero_exponent_is_identity(self):
        ctx = QuadCtx(11, 2)
        y = quad_pow(ctx.element(3, 4), 0)
        assert (y.a, y.b) == (1, 0)

    def test_negative_exponent_rejected(self):
        ctx = QuadCtx(11, 2)
        with pytest.raises(ValueError):
            quad_pow(ctx.element(3, 4), -1)

    def test_matches_repeated_multiplication(self):
        rng = random.Random(23)
        for _ in range(200):
            n = rng.randrange(3, 10**4) | 1
            ctx = QuadCtx(n, rng.randrange(2, n))
            x = ctx.element(rng.randrange(n), rng.randrange(n))
            e = rng.randrange(0, 40)
            acc = ctx.element(1, 0)
            for _ in range(e):
                acc = quad_mul(acc, x)
            assert quad_pow(x, e) == acc

    def test_matches_square_and_multiply_on_wide_moduli(self):
        # _pow against the reference's square and multiply of 1 + sqrt(q),
        # at q's least-absolute residue, the one _tail passes. n runs from
        # 3 up to 2^512, with q at the sign boundary of that residue ((n-1)/2
        # and (n+1)/2), at -2 and -1, small and random, and e at 0, 1, 2,
        # n-1, n and random below n^2. One 2048-bit n then takes the
        # decision's e = n at q = 2, n-2 and random (the reference's
        # full-width products make more slow).
        rng = random.Random(29)
        cases = []
        for bits, count in ((2, 1), (4, 4), (8, 4), (32, 3), (64, 3),
                            (128, 2), (256, 2), (512, 1)):
            for _ in range(count):
                n = rng.randrange(3, 1 << bits) | 1
                h = n >> 1
                for q in (2, 3, n - 2, n - 1, h, h + 1, rng.randrange(n)):
                    cases += [(q, n, e) for e in (0, 1, 2, n - 1, n, rng.randrange(n * n))]
        n = rng.getrandbits(2048) | 1 << 2047 | 1
        cases += [(q, n, n) for q in (2, n - 2, rng.randrange(n))]
        for q, n, e in cases:
            y = quad_pow(QuadCtx(n, q).one_plus_root(), e)
            assert _pow((q + n // 2) % n - n // 2, n, e) == (y.a, y.b), (q, n, e)

    def test_both_step_forms_match_the_reference(self):
        # _pow's product-form loop runs below _SQUARES_FROM bits of n and
        # its squares-form loop from there on. Both against the reference:
        # n of 64 bits, one bit either side of the width and at it, and
        # 2048 bits; q at 2, -2, 3 and a full-width least-absolute residue;
        # e at 0, 1, 2 (one step) and n.
        rng = random.Random(59)
        for bits in (64, _SQUARES_FROM - 1, _SQUARES_FROM, _SQUARES_FROM + 1, 2048):
            n = rng.getrandbits(bits) | 1 << bits - 1 | 1
            h = n >> 1
            for q in (2, -2, 3, (rng.randrange(n) + h) % n - h):
                for e in (0, 1, 2, n):
                    y = quad_pow(QuadCtx(n, q).one_plus_root(), e)
                    assert _pow(q, n, e) == (y.a, y.b), (bits, q, e)


def test_tail_takes_the_euler_power_at_either_sign():
    """ecc and bcc equal the defects computed from h = pow(q % n, (n-1)/2,
    n), for q = 2, n - 2, 3, a random q above and one below n/2, and each
    of those plus and minus n. n is in each odd class mod 8, so a negative
    least-absolute residue meets both parities of (n-1)/2."""
    rng = random.Random(47)
    moduli = list(range(3, 26, 2))
    for bits in (64, 256):
        moduli += [(rng.getrandbits(bits) | 1 << bits - 1) & ~7 | r for r in (1, 3, 5, 7)]
    assert [n % 8 for n in moduli[-8:]] == [1, 3, 5, 7] * 2
    for n in moduli:
        e = n >> 1
        qs = [2, n - 2, 3, rng.randrange(e + 1, n), rng.randrange(1, e + 1)]
        for q in qs + [q + n for q in qs] + [q - n for q in qs]:
            h = pow(q % n, e, n)
            if j := sympy.jacobi_symbol(q % n, n):
                assert ecc(q, n) == (h - j) % n, (q, n)
            else:
                with pytest.raises(ValueError):
                    ecc(q, n)
            y = quad_pow(QuadCtx(n, q).one_plus_root(), n)
            assert bcc(q, n) == ((y.a - 1) % n, (y.b - h) % n), (q, n)


class TestConjugateAndNorm:
    def test_conjugate_negates_root_part(self):
        ctx = QuadCtx(2045, 7)
        x = ctx.element(3, 5)
        xb = conjugate(x)
        assert (xb.a, xb.b) == (3, 2040)

    def test_conjugate_is_involution(self):
        rng = random.Random(31)
        for _ in range(100):
            n = rng.randrange(3, 10**6) | 1
            ctx = QuadCtx(n, rng.randrange(2, n))
            x = ctx.element(rng.randrange(n), rng.randrange(n))
            assert conjugate(conjugate(x)) == x

    def test_conjugation_is_multiplicative(self):
        rng = random.Random(37)
        for _ in range(200):
            n = rng.randrange(3, 10**6) | 1
            ctx = QuadCtx(n, rng.randrange(2, n))
            x = ctx.element(rng.randrange(n), rng.randrange(n))
            y = ctx.element(rng.randrange(n), rng.randrange(n))
            assert conjugate(quad_mul(x, y)) == quad_mul(conjugate(x),
                                                         conjugate(y))

    def test_norm_is_multiplicative(self):
        rng = random.Random(41)
        for _ in range(200):
            n = rng.randrange(3, 10**6) | 1
            ctx = QuadCtx(n, rng.randrange(2, n))
            x = ctx.element(rng.randrange(n), rng.randrange(n))
            y = ctx.element(rng.randrange(n), rng.randrange(n))
            z, q = quad_mul(x, y), ctx.q  # norm: a**2 - q*b**2
            assert (z.a**2 - q * z.b**2) % n == (
                (x.a**2 - q * x.b**2) * (y.a**2 - q * y.b**2) % n)
