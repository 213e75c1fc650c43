"""Property-based and randomised cross-checks."""

import math
import random

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from ppt.canonical import canonical_params, find_qnr_or_m
from ppt.checks import bcc
from ppt.ntcore import jacobi, next_prime
from ppt.polyring import Poly, mbec_remainder

from reference import QuadCtx, conjugate, quad_mul, quad_pow

odd_moduli = st.integers(min_value=1, max_value=10**9).map(
    lambda k: 2 * k + 1)


class TestNtcoreProperties:
    @given(st.integers(min_value=-10**12, max_value=10**12), odd_moduli)
    @settings(max_examples=300, deadline=None)
    def test_jacobi_matches_sympy(self, a, n):
        assert jacobi(a, n) == sympy.jacobi_symbol(a, n)

    @given(st.integers(min_value=0, max_value=10**12),
           st.integers(min_value=0, max_value=10**12), odd_moduli)
    @settings(max_examples=200, deadline=None)
    def test_jacobi_multiplicative(self, a, b, n):
        assert jacobi(a * b, n) == jacobi(a, n) * jacobi(b, n)

    @given(st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=100, deadline=None)
    def test_next_prime_is_next(self, n):
        p = next_prime(n)
        assert p > n
        assert sympy.isprime(p)
        assert all(not sympy.isprime(k) for k in range(n + 1, p))


class TestQuadraticRingProperties:
    def test_ring_axioms_hold(self):
        rng = random.Random(101)
        for _ in range(300):
            n = rng.randrange(3, 10**9) | 1
            ctx = QuadCtx(n, rng.randrange(2, n))
            x = ctx.element(rng.randrange(n), rng.randrange(n))
            y = ctx.element(rng.randrange(n), rng.randrange(n))
            z = ctx.element(rng.randrange(n), rng.randrange(n))
            assert quad_mul(x, y) == quad_mul(y, x)
            assert quad_mul(quad_mul(x, y), z) == quad_mul(x, quad_mul(y, z))

    def test_power_laws(self):
        rng = random.Random(103)
        for _ in range(100):
            n = rng.randrange(3, 10**6) | 1
            ctx = QuadCtx(n, rng.randrange(2, n))
            x = ctx.element(rng.randrange(n), rng.randrange(n))
            i, j = rng.randrange(0, 50), rng.randrange(0, 50)
            assert quad_pow(x, i + j) == quad_mul(quad_pow(x, i),
                                                  quad_pow(x, j))

    def test_norm_and_conjugate_consistency(self):
        rng = random.Random(107)
        for _ in range(200):
            n = rng.randrange(3, 10**9) | 1
            ctx = QuadCtx(n, rng.randrange(2, n))
            x = ctx.element(rng.randrange(n), rng.randrange(n))
            prod = quad_mul(x, conjugate(x))
            assert prod.b == 0
            assert prod.a == (x.a * x.a - ctx.q * x.b * x.b) % n


class TestPolynomialProperties:
    def test_binomial_congruence_vanishes_for_primes(self):
        # Freshman's-dream check against every monic divisor tried.
        rng = random.Random(113)
        primes = [p for p in range(3, 500) if sympy.isprime(p)]
        for _ in range(200):
            p = rng.choice(primes)
            deg = rng.randint(1, 6)
            div = [rng.randrange(p) for _ in range(deg)] + [1]
            assert mbec_remainder(p, Poly(div, p)).is_zero

    def test_binomial_defect_vanishes_for_primes_in_quadratic_ring(self):
        rng = random.Random(127)
        primes = [p for p in range(3, 2000) if sympy.isprime(p)]
        for _ in range(300):
            p = rng.choice(primes)
            q = rng.randrange(2, p)
            assert bcc(q, p) == (0, 0)


class TestSearchProperties:
    def test_find_qnr_or_m_contract(self):
        rng = random.Random(131)
        for _ in range(400):
            n = 24 * rng.randrange(1, 10**10) + 1
            res = find_qnr_or_m(n)
            assert res.iterations >= 0
            if res.divisor is not None:
                assert 1 < res.divisor < n and n % res.divisor == 0
            elif res.qnr is not None:
                assert jacobi(res.qnr, n) == -1
            else:
                assert math.gcd(res.m, n) == 1
                assert n % res.m != 1
                assert canonical_params(res.m).d >= 2

    def test_found_m_is_small(self):
        rng = random.Random(137)
        for _ in range(300):
            n = 24 * rng.randrange(1, 10**8) + 1
            res = find_qnr_or_m(n)
            if res.m is not None:
                assert res.m <= max(2 * n.bit_length(), 30)
