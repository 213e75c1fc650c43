"""Unit tests for quadratic-extension ring arithmetic."""

import random

import pytest

from ppt.quadext import QuadCtx, conjugate, quad_mul, quad_pow


def square_and_multiply(x, e):
    """x**e by right-to-left square and multiply, built from quad_mul alone."""
    acc = x.ctx.element(1, 0)
    while e:
        if e & 1:
            acc = quad_mul(acc, x)
        x = quad_mul(x, x)
        e >>= 1
    return acc


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
        assert (y.a, y.b) == (1523, 1067)

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
        # q at the sign boundary of its least-absolute residue ((n-1)/2 and
        # (n+1)/2), at -2 and -1, small and random; n from 3 up to 2^512.
        rng = random.Random(29)
        for bits, count in ((2, 1), (4, 4), (8, 4), (32, 3), (64, 3),
                            (128, 2), (256, 2), (512, 1)):
            for _ in range(count):
                n = rng.randrange(3, 1 << bits) | 1
                h = n >> 1
                for q in (2, 3, n - 2, n - 1, h, h + 1, rng.randrange(n)):
                    ctx = QuadCtx(n, q)
                    rand = ctx.element(rng.randrange(n), rng.randrange(n))
                    for x in (ctx.one_plus_root(), rand):
                        for e in (0, 1, 2, n - 1, n, rng.randrange(n * n)):
                            assert quad_pow(x, e) == square_and_multiply(x, e)


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
