"""Unit tests for the Euler, binomial, and battery congruence checks."""

import random

import pytest

import ppt.checks
import ppt.polyring
from ppt.canonical import canonical_params, find_qnr_or_m
from ppt.checks import bcc, ecc, fgpc_check, pgpc_check, pgpc_condition
from ppt.ntcore import jacobi

from conftest import (
    ARN,
    BATTERY_EXITS,
    BCC_2_ARN,
    BCC_2_NHC,
    BCC_7_NHC,
    BCC_33_NHC,
    BCC_34_NHC,
    BCC_35_NHC,
    BCC_CARM2_CAR,
    CAR,
    HC2,
    M37_COMPOSITE,
    M37_PRIME,
    M61_COMPOSITE,
    M61_COMPOSITE_256,
    M61_PRIME,
    M61_PRIME_256,
    MBEC_1729_UPS5,
    MBEC_HC2_PSI23,
    MBEC_N22_PSI7,
    MBEC_NC_PSI5,
    N22,
    NC,
    NHC,
    QUAD_589,
)
from reference import QuadCtx, quad_pow


class TestEcc:
    def test_frozen_values(self):
        assert ecc(3, 2047) == 1566
        assert ecc(2, 341) == 2
        assert ecc(2045, 2047) == 0
        assert ecc(389, 561) == 2
        assert ecc(13, 15) == 8
        assert ecc(31, HC2) == 2
        assert ecc(2, NHC) == 0
        assert ecc(2, ARN) == 0
        assert ecc(CAR - 2, CAR) == 0
        assert ecc(2046, 2047) == 0

    def test_first_random_nonresidues_for_589(self):
        for q, _, euler_defect in QUAD_589:
            assert jacobi(q, 589) == -1
            assert ecc(q, 589) == euler_defect

    def test_zero_for_primes(self):
        assert ecc(233, 569) == 0
        assert ecc(337, 569) == 0
        assert ecc(3, 569) == 0
        assert ecc(2, 5) == 0

    def test_zero_for_every_unit_when_prime(self):
        for n in (13, 97, 569):
            for q in range(2, n):
                if jacobi(q, n) != 0:
                    assert ecc(q, n) == 0, (q, n)

    def test_rejects_vanishing_jacobi_symbol(self):
        with pytest.raises(ValueError):
            ecc(3, 561)  # 3 divides 561


class TestBcc:
    def test_frozen_values(self):
        assert bcc(15, 2047) == (1194, 322)
        assert bcc(2, 2047) == (1196, 1265)
        assert bcc(2045, 2047) == (1522, 1068)
        assert bcc(389, 561) == (0, 0)
        assert bcc(2, NHC) == BCC_2_NHC
        assert bcc(33, NHC) == BCC_33_NHC
        assert bcc(34, NHC) == BCC_34_NHC
        assert bcc(35, NHC) == BCC_35_NHC
        assert bcc(7, NHC) == BCC_7_NHC
        assert bcc(2, ARN) == BCC_2_ARN
        assert bcc(CAR - 2, CAR) == BCC_CARM2_CAR

    def test_first_random_nonresidues_for_589(self):
        for q, pair, _ in QUAD_589:
            assert bcc(q, 589) == pair

    def test_zero_for_primes_any_radicand(self):
        assert bcc(233, 569) == (0, 0)
        assert bcc(337, 569) == (0, 0)
        assert bcc(3, 569) == (0, 0)
        assert bcc(2, 5) == (0, 0)
        # Holds for residues and even for q = n - 1.
        assert bcc(2046, 2047) == (0, 0)
        assert bcc(CAR - 1, CAR) == (0, 0)
        rng = random.Random(61)
        for _ in range(50):
            q = rng.randrange(2, 569)
            assert bcc(q, 569) == (0, 0), q

    def test_matches_direct_power_computation(self):
        rng = random.Random(67)
        for _ in range(100):
            n = rng.randrange(3, 10**6) | 1
            q = rng.randrange(2, n)
            ctx = QuadCtx(n, q)
            y = quad_pow(ctx.one_plus_root(), n)
            s = pow(q, (n - 1) // 2, n)
            want = ((y.a - 1) % n, (y.b - s) % n)
            assert bcc(q, n) == want

    def test_condition_pair_separation(self):
        # Cases where the Euler defect vanishes but the binomial defect
        # still witnesses compositeness, and one where only the Euler
        # defect fires.
        assert ecc(2045, 2047) == 0 and bcc(2045, 2047) != (0, 0)
        assert ecc(2, NHC) == 0 and bcc(2, NHC) != (0, 0)
        assert ecc(2, ARN) == 0 and bcc(2, ARN) != (0, 0)
        assert ecc(CAR - 2, CAR) == 0 and bcc(CAR - 2, CAR) != (0, 0)
        assert ecc(2, 341) != 0
        # q = n - 1 defeats both defects on these composites, which is
        # why that radicand is excluded by the applicability conditions.
        assert ecc(2046, 2047) == 0 and bcc(2046, 2047) == (0, 0)
        assert bcc(CAR - 1, CAR) == (0, 0)


class TestPgpc:
    def test_composite_fails_second_condition(self):
        report = pgpc_check(NC, canonical_params(5))
        assert report.m == 5
        assert report.cond1 is True
        assert report.cond2 is False
        assert report.failed == "cond2"
        assert not report.all_hold
        assert list(report.witness.coeffs) == MBEC_NC_PSI5
        assert report.expected == ()

    def test_carmichael_fails_first_condition(self):
        report = pgpc_check(1729, canonical_params(5))
        assert report.failed == "cond1"
        assert list(report.witness.coeffs) == MBEC_1729_UPS5

    def test_prime_passes_battery(self):
        report = pgpc_check(97, canonical_params(5))
        assert report.all_hold
        assert report.failed is None
        assert report.witness is None
        assert (report.cond1, report.cond2, report.cond3, report.cond4) == (
            True, True, True, True)

    def test_prime_passes_at_other_orders(self):
        assert pgpc_check(1009, canonical_params(5)).all_hold
        assert pgpc_check(569, canonical_params(7)).all_hold

    def test_refuses_m_4(self):
        # Upsilon_4 = t, so x = 0 modulo it and cond3 cannot hold at any
        # prime (nor cond4 at a prime 3 mod 4, such as 103 and 107). Each
        # entry point of the battery refuses m = 4; the same primes pass at
        # m = 3 and m = 8.
        for p in (101, 103, 107, 109, 569, 1009):
            for check in (pgpc_check, fgpc_check):
                with pytest.raises(ValueError, match="m = 4"):
                    check(p, canonical_params(4))
            with pytest.raises(ValueError, match="m = 4"):
                pgpc_condition(p, canonical_params(4), "cond1")
            assert pgpc_check(p, canonical_params(3)).all_hold
            assert pgpc_check(p, canonical_params(8)).all_hold

    def test_refuses_n_outside_the_odd_domain(self):
        # cond4 at n = 10 returned a residue, cond3 at n = 2 held, and cond1
        # leaked pow's or mbec_remainder's own error; all now refuse alike.
        for n in (1, 2, 4, 10, 1122):
            for m in (5, 13, 16):
                params = canonical_params(m)
                for check in (pgpc_check, fgpc_check):
                    with pytest.raises(ValueError, match="^pgpc_condition: n must be odd and >= 3$"):
                        check(n, params)
                for name in ("cond1", "cond2", "cond3", "cond4"):
                    with pytest.raises(ValueError, match="^pgpc_condition: n must be odd and >= 3$"):
                        pgpc_condition(n, params, name)

    def test_short_circuit_evaluation(self):
        # Once a condition fails, later ones are never evaluated.
        report = pgpc_check(1729, canonical_params(5))
        assert report.cond1 is False
        assert report.cond2 is None
        assert report.cond3 is None
        assert report.cond4 is None


class TestFgpc:
    def test_single_condition_results(self):
        ok, witness = fgpc_check(97, canonical_params(5))
        assert ok and witness.is_zero
        ok, witness = fgpc_check(NC, canonical_params(5))
        assert not ok
        assert list(witness.coeffs) == MBEC_NC_PSI5
        ok, witness = fgpc_check(N22, canonical_params(7))
        assert not ok
        assert list(witness.coeffs) == MBEC_N22_PSI7
        ok, witness = fgpc_check(HC2, canonical_params(23))
        assert not ok
        assert list(witness.coeffs) == MBEC_HC2_PSI23


class TestSharedChecks:
    @pytest.mark.parametrize("n, m", [(1729, 5), (NC, 5), (1009, 5), (N22, 7),
                                      (CAR, 7), (97, 3), (1153, 16)])
    def test_pgpc_check_is_the_conditions_in_order(self, n, m):
        params = canonical_params(m)
        rep = pgpc_check(n, params)
        for name in ("cond1", "cond2", "cond3", "cond4"):
            residue, want = pgpc_condition(n, params, name)
            if residue.coeffs != want:
                assert (rep.failed, rep.witness, rep.expected) == (name, residue, want)
                break
            assert getattr(rep, name) is True
        else:
            assert rep.all_hold
        rem, _ = pgpc_condition(n, params, "cond2")
        assert fgpc_check(n, params) == (rem.is_zero, rem)

    def test_battery_goes_through_polyring_names(self, monkeypatch):
        # The per-layer benchmark times the battery by wrapping these two
        # names in ppt.checks; a battery that stopped calling them would
        # leave its polyring figures silently empty.
        calls = []

        def spy(name):
            real = getattr(ppt.checks, name)

            def wrapper(*args):
                calls.append(name)
                return real(*args)
            return wrapper

        monkeypatch.setattr(ppt.checks, "mbec_remainder", spy("mbec_remainder"))
        monkeypatch.setattr(ppt.checks, "poly_powmod", spy("poly_powmod"))
        # x**n modulo Psi_m goes through poly_powmod once: cond1 derives its
        # two powers modulo Upsilon_m from it, and cond2 and cond4 reuse it;
        # at a prime, cond3/cond4 then need no other power.
        assert pgpc_check(1009, canonical_params(5)).all_hold
        assert calls == ["poly_powmod", "mbec_remainder", "mbec_remainder"]
        calls.clear()
        assert fgpc_check(NC, canonical_params(5))[0] is False
        assert calls == ["poly_powmod", "mbec_remainder"]

    @pytest.mark.parametrize("m", [5, 7, 16])
    def test_battery_builds_each_ring_once(self, monkeypatch, m):
        # Upsilon_m, Psi_m and Psi_m's half ring P(w), Psi_m = P(x**2):
        # three fold tables over Z for the four conditions (Upsilon_16 is
        # even too), built at the first n; none for the verifier's second
        # pass over the same n, and none for a second n at the same m.
        built = []
        real = ppt.polyring._fold_columns
        monkeypatch.setattr(ppt.polyring, "_fold_columns",
                            lambda *a: built.append(a) or real(*a))
        ppt.polyring._shared.cache_clear()
        tables = 4 if m == 16 else 3
        first, second = {5: (1009, 409), 7: (569, 1801), 16: (1153, 7561)}[m]
        for n in (first, first, second):
            assert pgpc_check(n, canonical_params(m)).all_hold
            assert len(built) == tables
        assert all(n == 0 for _, n, _ in built)

    def test_battery_raises_only_x_and_one_plus_x(self, monkeypatch):
        # Every power the battery takes, at primes and composites whose
        # search exits at each m, the crafted m = 37 and 61 members (up to
        # 256 bits) included, is of x or 1 + x: it runs on a generated
        # ladder or a half ring, and never on the list ladder. At odd m
        # cond1 raises nothing modulo Upsilon_m, since it derives both
        # powers from x**n modulo Psi_m, so no Upsilon table compiles a
        # ladder; m = 16, which has no rule, raises both x and 1 + x there.
        def refuse(*args):
            raise AssertionError("the battery took the list ladder")

        monkeypatch.setattr(ppt.polyring, "_power", refuse)
        ppt.polyring._shared.cache_clear()
        cases = [*((m, p, c) for m, (p, c) in BATTERY_EXITS.items()),
                 (37, M37_PRIME, M37_COMPOSITE), (61, M61_PRIME, M61_COMPOSITE),
                 (61, M61_PRIME_256, M61_COMPOSITE_256)]
        for m, p, c in cases:
            params = canonical_params(m)
            assert find_qnr_or_m(p).m == find_qnr_or_m(c).m == m
            assert pgpc_check(p, params).all_hold and fgpc_check(p, params)[0], m
            assert not pgpc_check(c, params).all_hold, m
            fgpc_check(c, params)
            tables = [ppt.polyring.QuotientRing(div, p)._table for div in (params.upsilon, params.psi)]
            kinds = [t.ladders.keys() for t in tables + [t.half for t in tables] if t is not None]
            assert set().union(*kinds) == {"x", "1+x"}, m
            ups = [t.ladders.keys() for t in (tables[0], tables[0].half) if t is not None]
            assert set().union(*ups) == ({"x", "1+x"} if m == 16 else set()), m

    def test_pgpc_condition_rejects_unknown_name(self):
        with pytest.raises(ValueError):
            pgpc_condition(1009, canonical_params(5), "cond5")
