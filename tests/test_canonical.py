"""Unit tests for divisor-polynomial construction and parameter search."""

import hashlib
import json
import math
import time

import pytest
import sympy
from sympy.abc import u, x

from ppt.canonical import (
    CanonicalParams,
    FindResult,
    canonical_params,
    cyclotomic_prime_power,
    factor_prime_power,
    find_qnr_or_m,
    psi_of,
    upsilon_of,
)

from conftest import HC1, HC2, N22, NC, PSI23, TABLE1, UPS23


class TestFactorPrimePower:
    def test_basic(self):
        assert factor_prime_power(7) == (7, 1)
        assert factor_prime_power(16) == (2, 4)
        assert factor_prime_power(81) == (3, 4)
        assert factor_prime_power(125) == (5, 3)

    def test_rejects_non_prime_powers(self):
        for m in (1, 2, 6, 12, 15, 100):
            with pytest.raises(ValueError):
                factor_prime_power(m)

    def test_matches_sympy(self):
        """(p, k) for each prime power, and ValueError for every other m."""
        for m in range(3, 20000):
            factors = sympy.factorint(m)
            try:
                got = factor_prime_power(m)
            except ValueError as exc:
                got = str(exc)
            if len(factors) == 1:
                assert got == next(iter(factors.items())), m
            else:
                assert got == f"factor_prime_power: {m} is not a prime power", m


SCOPE = (3, 4, 5, 7, 8, 9, 11, 13, 16, 23, 25, 27, 32, 49, 81, 128)


class TestTableValues:
    def test_frozen_table(self):
        for m, (phi, ups, psi) in TABLE1.items():
            assert list(cyclotomic_prime_power(m).coeffs) == phi, m
            assert list(upsilon_of(m).coeffs) == ups, m
            assert list(psi_of(m).coeffs) == psi, m

    def test_frozen_m23(self):
        assert list(upsilon_of(23).coeffs) == UPS23
        assert list(psi_of(23).coeffs) == PSI23

    def test_cyclotomic_matches_sympy(self):
        for m in SCOPE:
            got = sympy.Poly(
                list(reversed(cyclotomic_prime_power(m).coeffs)), x)
            want = sympy.Poly(sympy.cyclotomic_poly(m, x), x)
            assert got == want, m


class TestStructure:
    def test_upsilon_is_monic_of_half_totient_degree(self):
        for m in SCOPE:
            ups = upsilon_of(m)
            d = sympy.totient(m) // 2
            assert ups.degree == d, m
            assert ups.coeffs[-1] == 1, m

    def test_psi_degree_and_sign(self):
        for m in SCOPE:
            p, _ = factor_prime_power(m)
            d = sympy.totient(m) // 2
            psi = psi_of(m)
            want_deg = d if (p == 2 and m >= 8) else 2 * d
            assert psi.degree == want_deg, m
            assert psi.coeffs[-1] > 0, m

    def test_substitution_recovers_cyclotomic(self):
        # x^d * Upsilon(x + 1/x) must equal the cyclotomic polynomial.
        t = sympy.Symbol("t")
        for m in SCOPE:
            ups = upsilon_of(m)
            d = ups.degree
            expr = sympy.expand(
                x**d * sympy.Poly(list(reversed(ups.coeffs)), t
                                  ).as_expr().subs(t, x + 1 / x))
            want = sympy.expand(sympy.cyclotomic_poly(m, x))
            assert sympy.simplify(expr - want) == 0, m

    def test_resultant_identity(self):
        # Eliminating t between Upsilon(t) and t^2 - (u^2 + 4) yields
        # +/- Psi for odd p and +/- Psi^2 for p = 2.
        t = sympy.Symbol("t")
        for m in SCOPE:
            p, _ = factor_prime_power(m)
            ups = sympy.Poly(list(reversed(upsilon_of(m).coeffs)), t)
            link = sympy.Poly([1, 0, -(u**2 + 4)], t)
            res = sympy.expand(sympy.resultant(ups.as_expr(),
                                               link.as_expr(), t))
            psi = sympy.Poly(list(reversed(psi_of(m).coeffs)), u).as_expr()
            target = psi if (p != 2 or m < 8) else psi**2
            ok = (sympy.simplify(res - target) == 0
                  or sympy.simplify(res + target) == 0)
            assert ok, m

    def test_cyclotomic_product_identity(self):
        # (x^(m/p) - 1) * Phi_m = x^m - 1 for prime powers.
        for m in SCOPE:
            p, _ = factor_prime_power(m)
            phi = list(cyclotomic_prime_power(m).coeffs)
            low = [0] * (m // p) + [1]
            low[0] = -1
            prod = [0] * (len(low) + len(phi) - 1)
            for i, a in enumerate(low):
                for j, b in enumerate(phi):
                    prod[i + j] += a * b
            want = [0] * (m + 1)
            want[0], want[m] = -1, 1
            assert prod == want, m


# sha256 over one JSON line [m, Phi_m, Upsilon_m, Psi_m] (coefficients
# ascending) for each of the 116 prime powers 3 <= m <= 512, far beyond the
# frozen table; any change to any coefficient moves it.
GOLDEN_TABLE = "9fade6585e6d7158db5493aca07190a232f059f0a1b46eee87b34dee43d2d1ec"


def test_golden_table_to_512():
    ms = [m for m in range(3, 513) if len(sympy.factorint(m)) == 1]
    assert len(ms) == 116
    h = hashlib.sha256()
    for m in ms:
        row = [m, *(list(f(m).coeffs) for f in
                    (cyclotomic_prime_power, upsilon_of, psi_of))]
        h.update(json.dumps(row).encode() + b"\n")
    assert h.hexdigest() == GOLDEN_TABLE


class TestCanonicalParams:
    def test_fields(self):
        params = canonical_params(5)
        assert isinstance(params, CanonicalParams)
        assert params.m == 5
        assert params.p_m == 5
        assert params.k == 1
        assert params.d == 2
        assert list(params.upsilon.coeffs) == TABLE1[5][1]
        assert list(params.psi.coeffs) == TABLE1[5][2]

    def test_cached(self):
        assert canonical_params(7) is canonical_params(7)

    def test_power_of_two(self):
        params = canonical_params(16)
        assert (params.p_m, params.k, params.d) == (2, 4, 4)


class TestFindResult:
    def test_exactly_one_payload_required(self):
        with pytest.raises(ValueError):
            FindResult(1)
        with pytest.raises(ValueError):
            FindResult(1, divisor=3, qnr=5)
        assert FindResult(2, m=5).m == 5


class TestFindQnrOrM:
    def test_frozen_traces(self):
        cases = [
            (NC, "m", 5, 3),
            (N22, "m", 7, 4),
            (HC1, "m", 13, 6),
            (HC2, "m", 23, 9),
            (1729, "m", 5, 3),
            (97, "qnr", 5, 3),
            (1105, "divisor", 5, 3),
            (25, "divisor", 5, 0),
            (49, "divisor", 7, 0),
        ]
        for n, kind, value, iters in cases:
            res = find_qnr_or_m(n)
            assert res.iterations == iters, n
            assert getattr(res, kind) == value, n
            for other in ("divisor", "qnr", "m"):
                if other != kind:
                    assert getattr(res, other) is None, n

    def test_deep_valuations_are_quick(self):
        # n - 1 = 3 * 2^16000 and 8 * 3^10000: the valuation loop walks 16,000
        # and 10,000 powers of p by dividing one running quotient by p. A
        # full-width remainder by each p**k took over 20 times as long.
        for n in (3 * 2**16000 + 1, 8 * 3**10000 + 1):
            t0 = time.perf_counter()
            assert find_qnr_or_m(n) == (3, None, None, 5)
            assert time.perf_counter() - t0 < 0.5

    def test_rejects_wrong_residue_class(self):
        with pytest.raises(ValueError):
            find_qnr_or_m(35)  # 35 % 24 == 11
        with pytest.raises(ValueError):
            find_qnr_or_m(23)

    def test_returned_m_is_admissible(self):
        for n in range(25, 50000, 24):
            res = find_qnr_or_m(n)
            if res.m is None:
                continue
            assert math.gcd(res.m, n) == 1, n
            assert n % res.m != 1, n
            params = canonical_params(res.m)
            assert params.d >= 2, n

    def test_divisor_results_divide(self):
        for n in range(25, 20000, 24):
            res = find_qnr_or_m(n)
            if res.divisor is not None:
                assert n % res.divisor == 0, n

    def test_qnr_results_are_nonresidues(self):
        from ppt.ntcore import jacobi
        for n in range(25, 20000, 24):
            res = find_qnr_or_m(n)
            if res.qnr is not None:
                assert jacobi(res.qnr, n) == -1, n
