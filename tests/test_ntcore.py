"""Unit tests for the elementary number-theory helpers."""

import random

import pytest
import sympy

from ppt.ntcore import _prime, jacobi, next_prime

from conftest import CAR, HC1, NHC


class TestJacobi:
    def test_frozen_anchors(self):
        assert jacobi(2, 341) == -1
        assert jacobi(3, 341) == -1
        assert jacobi(15, 2047) == 1
        assert jacobi(2045, 2047) == -1
        assert jacobi(389, 561) == -1
        assert jacobi(2, NHC) == -1
        assert jacobi(17, HC1) == 0

    def test_unit_and_zero(self):
        assert jacobi(1, 9) == 1
        assert jacobi(0, 9) == 0
        assert jacobi(9, 3) == 0

    def test_negative_one_symbol(self):
        # (-1/n) = (-1)^((n-1)/2)
        assert jacobi(-1, 2047) == -1
        assert jacobi(-1, CAR) == -1
        assert jacobi(-1, 13) == 1

    def test_argument_reduction(self):
        for n in (9, 15, 21, 35, 341):
            for a in range(-2 * n, 2 * n):
                assert jacobi(a, n) == jacobi(a % n, n)

    def test_matches_sympy_exhaustively(self):
        for n in range(3, 202, 2):
            for a in range(0, n + 1):
                assert jacobi(a, n) == sympy.jacobi_symbol(a, n), (a, n)

    def test_multiplicative_in_numerator(self):
        rng = random.Random(7)
        for _ in range(300):
            n = rng.randrange(3, 10**6) | 1
            a = rng.randrange(1, n)
            b = rng.randrange(1, n)
            assert jacobi(a * b, n) == jacobi(a, n) * jacobi(b, n)

    def test_rejects_even_or_small_modulus(self):
        with pytest.raises(ValueError):
            jacobi(3, 4)
        with pytest.raises(ValueError):
            jacobi(3, 1)
        with pytest.raises(ValueError):
            jacobi(3, -7)


class TestNextPrime:
    def test_small_chain(self):
        p = 2
        expected = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
        for want in expected:
            p = next_prime(p)
            assert p == want

    def test_from_one(self):
        assert next_prime(1) == 2

    def test_matches_sympy(self):
        p = 2
        while p < 10**4:
            q = next_prime(p)
            assert q == sympy.nextprime(p)
            p = q

    def test_large_value(self):
        assert next_prime(10**12) == sympy.nextprime(10**12)


def test_prime_list_matches_sympy():
    primes = list(sympy.primerange(2, 10**5))
    assert len(primes) == 9592
    assert [_prime(i) for i in range(len(primes))] == primes
