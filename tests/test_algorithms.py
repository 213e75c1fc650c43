"""Unit tests for the end-to-end deciders, mechanisms, and certificates."""

import json
import pickle
import random
import sys
import time
from functools import partial

import pytest
import sympy

from ppt.algorithms import (
    ALGORITHMS,
    MAX_BITS,
    BinomialWitness,
    EulerWitness,
    JacobiZeroFactor,
    Outcome,
    PerfectSquare,
    PrimeBasis,
    QnrSearch,
    TrivialFactor,
    Verdict,
    _CLAIMS,
    _claim_to_json,
    _decide,
    _decode,
    certificate,
    enhanced_mr,
    find_qnr,
    miller_rabin_base,
    ppta_eqnr,
    ppta_inr,
    verify_certificate,
)
from ppt.canonical import canonical_params, find_qnr_or_m
from ppt.checks import bcc, ecc, pgpc_condition
from ppt.harness import run_batch

from conftest import (
    ARN,
    BCC_2_ARN,
    BCC_2_NHC,
    CAR,
    CARMICHAELS_1E5,
    HC1,
    HC2,
    M37_COMPOSITE,
    M37_PRIME,
    M61_COMPOSITE,
    M61_COMPOSITE_256,
    M61_PRIME,
    M61_PRIME_256,
    MBEC_1729_PSI5,
    MBEC_HC2_PSI23,
    MBEC_N22_PSI7,
    MBEC_NC_PSI5,
    N17,
    N22,
    NC,
    NHC,
)


class TestMillerRabinBase:
    def test_nontrivial_root_detection(self):
        out = miller_rabin_base(341, 2)
        assert out.witness and out.witness_kind == "nontrivial_root"
        assert out.value == 32

    def test_strong_liar_passes(self):
        out = miller_rabin_base(2047, 2)
        assert not out.witness

    def test_fermat_style_witness(self):
        out = miller_rabin_base(341, 3)
        assert out.witness

    def test_primes_always_pass(self):
        for n in (5, 7, 97, 569, 2053):
            for a in (2, 3, 5, 11):
                if a % n in (0, 1, n - 1):
                    continue
                assert not miller_rabin_base(n, a).witness, (n, a)

    def test_rejects_even_modulus(self):
        with pytest.raises(ValueError):
            miller_rabin_base(10, 3)


class TestFindQnr:
    def test_frozen_traces(self):
        cases = [
            (2047, False, 3, 1),
            (561, True, 3, 1),
            (569, False, 3, 1),
            (1105, True, 5, 2),
            (1729, True, 7, 3),
            (HC1, True, 17, 6),
            (N22, False, 83, 22),
            (HC2, False, 31, 10),
            (N17, True, 61, 17),
        ]
        for n, factor_found, p, iters in cases:
            probe = find_qnr(n)
            assert probe.found_factor == factor_found, n
            assert probe.p == p, n
            assert probe.iterations == iters, n

    def test_iteration_limit_exhaustion(self, monkeypatch):
        import ppt.algorithms

        monkeypatch.setattr(ppt.algorithms, "_QNR_PROBE_CAP", 10)
        with pytest.raises(RuntimeError, match="first 10 odd primes"):
            find_qnr(N22)


class TestEqnr:
    def test_euler_witness(self):
        v = ppta_eqnr(341)
        assert v.outcome is Outcome.COMPOSITE
        assert v.mechanism.kind == "euler_witness"
        assert v.mechanism.q == 2
        assert v.mechanism.ecc_value == 2
        assert v.qnr_search == QnrSearch(False, 0, 2)

    def test_binomial_witness_without_search(self):
        v = ppta_eqnr(2047)
        assert v.outcome is Outcome.COMPOSITE
        assert v.mechanism.kind == "binomial_witness"
        assert (v.mechanism.q, v.mechanism.a, v.mechanism.b) == (
            2045, 1522, 1068)
        assert v.qnr_search == QnrSearch(False, 0, 2045)

    def test_jacobi_zero_factor(self):
        v = ppta_eqnr(561)
        assert v.outcome is Outcome.COMPOSITE
        assert v.mechanism.kind == "jacobi_zero_factor"
        assert v.mechanism.p == 3
        assert v.qnr_search.needed and v.qnr_search.iterations == 1
        assert v.qnr_search.q == 0

    def test_shared_factor_found_late(self):
        v = ppta_eqnr(HC1)
        assert v.mechanism.kind == "jacobi_zero_factor"
        assert v.mechanism.p == 17
        assert v.qnr_search.iterations == 6
        v17 = ppta_eqnr(N17)
        assert v17.mechanism.p == 61
        assert v17.qnr_search.iterations == 17

    def test_prime_with_searched_radicand(self):
        v = ppta_eqnr(569)
        assert v.outcome is Outcome.PRIME
        assert v.prime_basis.kind == "pbpc"
        assert v.prime_basis.q == 3
        assert v.qnr_search == QnrSearch(True, 1, 3)

    def test_strong_pseudoprime_exposed_without_search(self):
        # NHC = 5 mod 8, so q = 2 applies immediately and the binomial
        # defect certifies compositeness.
        v = ppta_eqnr(NHC)
        assert v.mechanism.kind == "binomial_witness"
        assert (v.mechanism.a, v.mechanism.b) == BCC_2_NHC
        assert v.qnr_search == QnrSearch(False, 0, 2)

    def test_three_mod_eight_branch(self):
        v = ppta_eqnr(ARN)
        assert v.mechanism.kind == "binomial_witness"
        assert (v.mechanism.a, v.mechanism.b) == BCC_2_ARN
        assert v.qnr_search == QnrSearch(False, 0, 2)

    def test_seven_mod_eight_branch(self):
        v = ppta_eqnr(CAR)
        assert v.mechanism.kind == "binomial_witness"
        assert v.mechanism.q == CAR - 2

    def test_perfect_squares(self):
        for s in (3, 5, 7, 35):
            v = ppta_eqnr(s * s)
            assert v.outcome is Outcome.COMPOSITE
            assert v.mechanism.kind == "perfect_square"
            assert v.mechanism.s == s

    def test_degenerate_inputs(self):
        assert ppta_eqnr(1).outcome is Outcome.NOT_APPLICABLE
        v2 = ppta_eqnr(2)
        assert v2.outcome is Outcome.PRIME and v2.prime_basis is None
        v4 = ppta_eqnr(4)
        assert v4.outcome is Outcome.COMPOSITE
        assert v4.mechanism.kind == "even"

    def test_small_primes(self):
        for n, q in ((3, 2), (5, 2), (7, 5), (11, 2), (13, 2), (17, 3)):
            v = ppta_eqnr(n)
            assert v.outcome is Outcome.PRIME, n
            assert v.prime_basis.q == q, n

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ppta_eqnr(0)

    def test_agreement_on_small_range(self):
        for n in range(3, 3000, 2):
            v = ppta_eqnr(n)
            assert (v.outcome is Outcome.PRIME) == sympy.isprime(n), n


class TestInr:
    def test_battery_violation_modes(self):
        v = ppta_inr(NC)
        assert v.outcome is Outcome.COMPOSITE
        assert v.mechanism.kind == "pgpc_violation"
        assert v.mechanism.m == 5
        assert v.mechanism.failed == "cond2"
        assert list(v.mechanism.remainder) == MBEC_NC_PSI5
        assert v.qnr_search == QnrSearch(True, 3, 0)

        vf = ppta_inr(NC, mode="fgpc")
        assert vf.mechanism.kind == "binomial_witness"
        assert vf.mechanism.divisor_kind == "psi"
        assert vf.mechanism.m == 5
        assert list(vf.mechanism.remainder) == MBEC_NC_PSI5

    def test_carmichael_battery(self):
        v = ppta_inr(1729)
        assert v.mechanism.kind == "pgpc_violation"
        assert (v.mechanism.m, v.mechanism.failed) == (5, "cond1")
        vf = ppta_inr(1729, mode="fgpc")
        assert list(vf.mechanism.remainder) == MBEC_1729_PSI5

    def test_large_frozen_remainders(self):
        vf = ppta_inr(N22, mode="fgpc")
        assert vf.mechanism.m == 7
        assert list(vf.mechanism.remainder) == MBEC_N22_PSI7
        assert vf.qnr_search.iterations == 4
        vf2 = ppta_inr(HC2, mode="fgpc")
        assert vf2.mechanism.m == 23
        assert list(vf2.mechanism.remainder) == MBEC_HC2_PSI23
        assert vf2.qnr_search.iterations == 9

    def test_pgpc_composite_on_large_inputs(self):
        for n in (N22, HC1, HC2):
            v = ppta_inr(n)
            assert v.outcome is Outcome.COMPOSITE, n
            assert v.mechanism.kind == "pgpc_violation", n

    def test_battery_at_m_37(self):
        """Both modes decide a prime and a composite whose search exits at
        m = 37, where Psi_37's shared fold table over Z has 76-bit entries,
        wider than these n, and their certificates verify after a JSON
        round trip."""
        for n in (M37_PRIME, M37_COMPOSITE):
            assert find_qnr_or_m(n).m == 37
            for mode in ("pgpc", "fgpc"):
                v = ppta_inr(n, mode)
                assert (v.outcome is Outcome.PRIME) == sympy.isprime(n), (n, mode)
                assert verify_certificate(json.loads(json.dumps(certificate(v)))), (n, mode)

    def test_battery_at_m_61(self):
        """Both modes decide the crafted members whose search exits at m =
        61, the widest m a tier-1 test reaches: the primes run cond1's rule
        on the plan's walk and cond3/cond4 on its images there. Each
        certificate verifies after a JSON round trip."""
        for n in (M61_PRIME, M61_COMPOSITE, M61_PRIME_256, M61_COMPOSITE_256):
            assert find_qnr_or_m(n).m == 61
            for mode in ("pgpc", "fgpc"):
                v = ppta_inr(n, mode)
                assert (v.outcome is Outcome.PRIME) == sympy.isprime(n), (n, mode)
                assert verify_certificate(json.loads(json.dumps(certificate(v)))), (n, mode)

    def test_prime_via_searched_nonresidue(self):
        v = ppta_inr(97)
        assert v.outcome is Outcome.PRIME
        assert v.prime_basis.kind == "pbpc"
        assert v.prime_basis.q == 5
        assert v.qnr_search == QnrSearch(True, 3, 5)

    def test_prime_via_battery(self):
        v = ppta_inr(1009)
        assert v.outcome is Outcome.PRIME
        assert v.prime_basis.kind == "pgpc"
        assert v.prime_basis.m == 5
        vf = ppta_inr(1009, mode="fgpc")
        assert vf.prime_basis.kind == "fgpc"
        assert vf.prime_basis.m == 5

    def test_deterministic_radicand_branches(self):
        # 569 = 17 mod 24 -> q = 3; 2047 = 7 mod 24 -> q = n - 2.
        v = ppta_inr(569)
        assert v.outcome is Outcome.PRIME
        assert v.prime_basis.q == 3
        assert v.qnr_search == QnrSearch(False, 0, 3)
        v2 = ppta_inr(2047)
        assert v2.mechanism.kind == "binomial_witness"
        assert v2.mechanism.q == 2045

    def test_multiple_of_three_shortcut(self):
        for n in (9, 561, 62745):
            v = ppta_inr(n)
            assert v.mechanism.kind == "trivial_factor", n
            assert v.mechanism.p == 3, n

    def test_divisor_exits(self):
        v = ppta_inr(25)
        assert v.mechanism.kind == "perfect_square"
        assert v.mechanism.s == 5
        assert v.qnr_search.iterations == 0
        v2 = ppta_inr(1105)
        assert v2.mechanism.kind == "trivial_factor"
        assert v2.mechanism.p == 5
        assert v2.qnr_search.iterations == 3

    def test_degenerate_inputs(self):
        assert ppta_inr(1).outcome is Outcome.NOT_APPLICABLE
        for n in (2, 3):
            v = ppta_inr(n)
            assert v.outcome is Outcome.PRIME and v.prime_basis is None
        assert ppta_inr(16).mechanism.kind == "even"

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            ppta_inr(97, mode="x")

    def test_agreement_on_small_range(self):
        for n in range(3, 3000, 2):
            for mode in ("pgpc", "fgpc"):
                v = ppta_inr(n, mode=mode)
                assert (v.outcome is Outcome.PRIME) == sympy.isprime(n), (
                    n, mode)


class TestEnhancedMr:
    def test_multiple_of_three_shortcut(self):
        v = enhanced_mr(561)
        assert v.mechanism.kind == "trivial_factor"
        assert v.mechanism.p == 3

    def test_deterministic_radicand_branches(self):
        v = enhanced_mr(CAR)  # 7 mod 24 -> q = n - 2
        assert v.mechanism.kind == "binomial_witness"
        assert v.mechanism.q == CAR - 2
        v2 = enhanced_mr(2465)  # 17 mod 24 -> q = 3
        assert v2.outcome is Outcome.COMPOSITE

    def test_perfect_square(self):
        v = enhanced_mr(49)
        assert v.mechanism.kind == "perfect_square"
        assert v.mechanism.s == 7

    def test_seeded_runs_are_reproducible(self):
        a = enhanced_mr(NC, rng_seed=5)
        b = enhanced_mr(NC, rng_seed=5)
        assert a == b

    def test_composite_one_mod_24(self):
        for seed in range(5):
            v = enhanced_mr(NC, rng_seed=seed)
            assert v.outcome is Outcome.COMPOSITE, seed
            assert verify_certificate(certificate(v)), seed

    def test_carmichael_one_mod_24(self):
        v = enhanced_mr(N17)
        assert v.outcome is Outcome.COMPOSITE

    def test_prime_one_mod_24(self):
        v = enhanced_mr(1009)
        assert v.outcome is Outcome.PRIME
        assert v.prime_basis.kind == "pbpc"

    def test_inconclusive_when_budget_exhausted(self):
        # With a single draw, some seed hits a strong liar with Jacobi
        # symbol +1 and the run must admit it cannot decide.
        hit = None
        for seed in range(500):
            v = enhanced_mr(1729, max_random_iters=1, rng_seed=seed)
            if v.outcome is Outcome.INCONCLUSIVE:
                hit = v
                break
        assert hit is not None
        assert hit.mechanism is None
        assert hit.prime_basis is None
        assert verify_certificate(certificate(hit))

    def test_mr_witness_mechanisms_appear(self):
        kinds = set()
        for seed in range(40):
            v = enhanced_mr(1729, max_random_iters=64, rng_seed=seed)
            assert v.outcome is Outcome.COMPOSITE
            kinds.add(v.mechanism.kind)
        assert "mr_nontrivial_root" in kinds or "fermat_witness" in kinds

    def test_degenerate_inputs(self):
        assert enhanced_mr(1).outcome is Outcome.NOT_APPLICABLE
        for n in (2, 3):
            assert enhanced_mr(n).outcome is Outcome.PRIME
        assert enhanced_mr(100).mechanism.kind == "even"

    def test_rejects_bad_budget(self):
        with pytest.raises(ValueError):
            enhanced_mr(NC, max_random_iters=0)

    def test_agreement_on_small_range(self):
        for n in range(5, 2000, 2):
            v = enhanced_mr(n)
            want = sympy.isprime(n)
            assert (v.outcome is Outcome.PRIME) == want, n


class TestVerdictModel:
    def test_equality_ignores_timings(self):
        a = ppta_eqnr(2047)
        b = ppta_eqnr(2047)
        assert a == b
        assert a.timings["total_s"] >= 0.0

    def test_registry_contents(self):
        assert set(ALGORITHMS) == {"eqnr", "inr_pgpc", "inr_fgpc",
                                   "enhanced_mr"}
        v = ALGORITHMS["inr_fgpc"](NC)
        assert v.mechanism.kind == "binomial_witness"

    def test_verdict_is_frozen(self):
        v = ppta_eqnr(341)
        with pytest.raises(AttributeError):
            v.outcome = Outcome.PRIME
        with pytest.raises(AttributeError):
            v.qnr_search.q = 3
        probe = find_qnr(569)
        for name in ("found_factor", "p", "iterations", "extra"):
            with pytest.raises(AttributeError):
                setattr(probe, name, 5)


class TestCertificates:
    CASES_EQNR = (1, 2, 3, 4, 9, 341, 561, 569, 2047, CAR, NC, NHC, ARN,
                  HC1, N17)
    CASES_INR = (1, 2, 3, 25, 97, 341, 561, 569, 1009, 1105, 1729, 2047,
                 NC, N22, HC1, HC2)

    def test_round_trip_and_verify_eqnr(self):
        for n in self.CASES_EQNR:
            v = ppta_eqnr(n)
            cert = json.loads(json.dumps(certificate(v)))
            assert verify_certificate(cert), n

    def test_round_trip_and_verify_inr(self):
        for n in self.CASES_INR:
            for mode in ("pgpc", "fgpc"):
                v = ppta_inr(n, mode=mode)
                cert = json.loads(json.dumps(certificate(v)))
                assert verify_certificate(cert), (n, mode)

    def test_round_trip_and_verify_enhanced(self):
        for n in (1, 2, 4, 49, 561, 1009, 2465, CAR, NC):
            v = enhanced_mr(n)
            cert = json.loads(json.dumps(certificate(v)))
            assert verify_certificate(cert), n

    def test_certificate_shape(self):
        cert = certificate(ppta_eqnr(2047))
        assert cert["n"] == 2047
        assert cert["outcome"] == "composite"
        assert cert["mechanism"]["kind"] == "binomial_witness"
        assert cert["prime_basis"] is None
        assert cert["qnr_search"] == {"needed": False, "iterations": 0,
                                      "q": 2045}
        assert "total_s" in cert["timings"]
        cert569 = certificate(ppta_inr(569))
        assert cert569["prime_basis"] == {"kind": "pbpc", "q": 3}
        cert1009 = certificate(ppta_inr(1009))
        assert cert1009["prime_basis"] == {"kind": "pgpc", "m": 5}

    def test_mechanism_json_round_trip(self):
        for n in (341, 561, 2047, NC):
            mech = ppta_inr(n).mechanism
            back = _decode(certificate(ppta_inr(n))["mechanism"], "mechanism")[0]
            assert back == mech

    def test_tampered_certificates_fail(self):
        cert = certificate(ppta_eqnr(341))
        cert["mechanism"]["ecc_value"] += 1
        assert not verify_certificate(cert)

        cert = certificate(ppta_eqnr(561))
        cert["mechanism"]["p"] = 5  # 5 does not divide 561
        assert not verify_certificate(cert)

        cert = certificate(ppta_eqnr(2047))
        cert["mechanism"]["a"] ^= 1
        assert not verify_certificate(cert)

        cert = certificate(ppta_eqnr(569))
        cert["prime_basis"]["q"] = 2  # jacobi(2, 569) = +1
        assert not verify_certificate(cert)

        cert = certificate(ppta_inr(1009))
        cert["prime_basis"]["m"] = 25  # 1009 = 9 mod 25, admissible but
        assert verify_certificate(cert) in (True, False)  # must not crash

        cert = certificate(ppta_eqnr(1))
        cert["n"] = 5
        assert not verify_certificate(cert)

    @pytest.mark.parametrize("decide, n, kind", [
        (ppta_eqnr, 4, "even"),
        (ppta_inr, 9, "trivial_factor"),
        (ppta_eqnr, 9, "perfect_square"),
        (ppta_eqnr, 33, "jacobi_zero_factor"),
        (ppta_eqnr, 15, "euler_witness"),
        (ppta_eqnr, 2047, "binomial_witness"),
        (lambda n: ppta_inr(n, "fgpc"), 649, "binomial_witness"),
        (ppta_inr, 649, "pgpc_violation"),
        (enhanced_mr, 6409, "mr_nontrivial_root"),
        (enhanced_mr, 385, "fermat_witness"),
    ])
    def test_each_mechanism_kind_verifies(self, decide, n, kind):
        cert = json.loads(json.dumps(certificate(decide(n))))
        assert cert["mechanism"]["kind"] == kind
        assert _decode(cert["mechanism"], "mechanism")[0].verify(n)
        assert verify_certificate(cert)

    def test_nontrivial_root_forgeries_fail(self):
        cert = certificate(enhanced_mr(6409))
        assert cert["mechanism"] == {"kind": "mr_nontrivial_root",
                                     "base": 3160, "b": 1886}
        for b in (1, 6408, 1887, 1886 + 6409):  # the trivial roots, a non-root, b + n
            cert["mechanism"]["b"] = b
            assert not verify_certificate(cert), b
        # The root must be the one a Miller-Rabin round at the base meets, at
        # a base strictly between 1 and n - 1; a wide base reads False before
        # any arithmetic.
        cert["mechanism"]["b"] = 1886
        assert verify_certificate(cert)
        wide = random.Random(59).getrandbits(4_000_000) | 1 << 3_999_999
        for base in (3159, 3161, 3160 + 6409, 0, 1, 6408, -3160, wide, 2**4_000_000):
            cert["mechanism"]["base"] = base
            t0 = time.perf_counter()
            assert not verify_certificate(cert), base
            assert time.perf_counter() - t0 < 0.05, base

    def test_binomial_witness_forgeries_fail(self):
        # 569 is prime, so its true defect at q = 3 is the zero pair.
        cert = {"n": 569, "outcome": "composite",
                "mechanism": {"kind": "binomial_witness", "q": 3, "a": 0, "b": 0}}
        assert not verify_certificate(cert)
        for missing in ("remainder", "divisor"):
            cert = certificate(ppta_inr(649, "fgpc"))
            assert verify_certificate(cert)
            del cert["mechanism"][missing]
            assert not verify_certificate(cert), missing

    def test_composite_claim_on_prime_fails(self):
        cert = certificate(ppta_eqnr(2047))
        cert["n"] = 2053  # prime; recorded witness no longer checks out
        assert not verify_certificate(cert)

    def test_fermat_witness_needs_base_prime_to_n(self):
        # a = 0 mod n (or n <= 2) fails a**(n-1) = 1 for every n.
        forged = [(1, 1), (2, 2), (2, 0)]
        forged += [(p, a) for p in sympy.primerange(3, 200) for a in (0, p, 2 * p)]
        for n, a in forged:
            cert = {"n": n, "outcome": "composite",
                    "mechanism": {"kind": "fermat_witness", "a": a}}
            assert not verify_certificate(cert), (n, a)
        cert = {"n": 561, "outcome": "composite",
                "mechanism": {"kind": "fermat_witness", "a": 3}}
        assert verify_certificate(cert)

    @staticmethod
    def _pgpc_claim(n, m, failed, remainder, expected):
        return {"n": n, "outcome": "composite",
                "mechanism": {"kind": "pgpc_violation", "m": m, "failed": failed,
                              "remainder": remainder, "expected": expected}}

    @pytest.mark.parametrize("failed, remainder", [
        ("cond1", []), ("cond2", []), ("cond3", [1]), ("cond4", [1]),
    ])
    def test_pgpc_expected_is_recomputed(self, failed, remainder):
        # 1009 is prime and searches to m = 5; each remainder is the true
        # residue there, so only the claimed expected value differs.
        cert = self._pgpc_claim(1009, 5, failed, remainder, [7])
        assert not verify_certificate(cert)
        cert["mechanism"]["expected"] = remainder
        assert not verify_certificate(cert)

    @pytest.mark.parametrize("n, m, failed, remainder, expected", [
        (1000000007, 5, "cond1", [], [7]),
        (7, 4, "cond3", [], [1]),
        (7, 4, "cond4", [6], [1]),
        (7, 7, "cond3", [3, 2, 2], [1]),
        (11, 11, "cond3", [5, 6, 8, 9, 9], [1]),
        (1009, 4, "cond3", [], [1]),
    ])
    def test_battery_parameter_must_be_searched_m(self, n, m, failed, remainder,
                                                  expected):
        # Each residue is honestly computed at m, but m is not the
        # parameter find_qnr_or_m picks for n (n prime in every case).
        assert not verify_certificate(
            self._pgpc_claim(n, m, failed, remainder, expected))

    def test_prime_basis_must_use_searched_m(self):
        for kind in ("pgpc", "fgpc"):
            cert = certificate(ppta_inr(1009, kind))
            assert verify_certificate(cert)
            for m in (4, 7, 25):
                cert["prime_basis"]["m"] = m
                assert not verify_certificate(cert), (kind, m)

    def test_claims_hold_only_the_fields_of_their_form(self):
        # Each forgery adds a field its claim never reads, or drops or
        # changes the divisor kind. All but the one with q (read as a
        # scalar witness, whose pair fails) verify if those are ignored.
        pbpc = certificate(ppta_inr(569))
        pgpc = certificate(ppta_inr(1009))
        scalar = certificate(ppta_eqnr(2047))
        poly = certificate(ppta_inr(649, "fgpc"))
        for cert in (pbpc, pgpc, scalar, poly):
            assert verify_certificate(cert)
        forged = [
            {**pbpc, "prime_basis": {**pbpc["prime_basis"], "m": 5}},
            {**pgpc, "prime_basis": {**pgpc["prime_basis"], "q": 7},
             "qnr_search": {**pgpc["qnr_search"], "q": 7}},
            {**pgpc, "prime_basis": {**pgpc["prime_basis"], "extra": 0}},
        ]
        mech = scalar["mechanism"]
        for extra in ({"m": 5}, {"divisor": [1, 0, 1]}, {"divisor_kind": "psi"},
                      {"extra": 0}):
            forged.append({**scalar, "mechanism": {**mech, **extra}})
        mech = poly["mechanism"]
        for extra in ({"a": 1}, {"b": 1}, {"q": 3}, {"divisor_kind": "upsilon"}):
            forged.append({**poly, "mechanism": {**mech, **extra}})
        no_kind = {k: v for k, v in mech.items() if k != "divisor_kind"}
        forged.append({**poly, "mechanism": no_kind})
        # The fields of the other form, or the other parameter, as null.
        unused = dict.fromkeys(("m", "divisor", "divisor_kind", "remainder"))
        forged += [
            {**scalar, "mechanism": {**scalar["mechanism"], **unused}},
            {**pgpc, "prime_basis": {**pgpc["prime_basis"], "q": None}},
            {**pbpc, "prime_basis": {**pbpc["prime_basis"], "m": None}},
        ]
        for cert in forged:
            assert verify_certificate(cert) is False, cert

    def test_certificates_hold_only_the_six_keys(self):
        # A key certificate() never writes reads False, as a field a claim
        # never reads does; qnr_search and timings may be absent. The three
        # forgeries below verified True before the key set was checked.
        root, eqnr = certificate(enhanced_mr(6409)), certificate(ppta_eqnr(1009))
        assert set(root) == set(eqnr) == {"n", "outcome", "mechanism", "prime_basis",
                                          "qnr_search", "timings"}
        for cert in (root, eqnr):
            assert verify_certificate(cert)
            trimmed = {k: v for k, v in cert.items() if k not in ("qnr_search", "timings")}
            assert verify_certificate(trimmed)
        for cert in ({**root, "p": 6409}, {**root, "anything": {"x": [1, 1, 1]}},
                     {**eqnr, "mechanism_note": "forged"}, {**eqnr, "": None}):
            assert verify_certificate(cert) is False, cert

    def test_polynomial_binomial_witness_needs_psi_divisor(self):
        cert = certificate(ppta_inr(1729, "fgpc"))
        assert verify_certificate(cert)
        # The true remainder mod Upsilon_5, an honest residue of the wrong
        # divisor.
        cert["mechanism"]["divisor"] = [1728, 1, 1]
        cert["mechanism"]["remainder"] = [399]
        assert not verify_certificate(cert)
        cert = certificate(ppta_inr(1729, "fgpc"))
        cert["mechanism"]["m"] = 7
        assert not verify_certificate(cert)

    @pytest.mark.parametrize("cert", [
        [],
        None,
        "composite",
        {},
        {"outcome": "composite", "mechanism": {"kind": "even"}},
        {"n": "561", "outcome": "composite", "mechanism": {"kind": "even"}},
        {"n": True, "outcome": "not_applicable"},
        {"n": 561, "outcome": "composite", "mechanism": "even"},
        {"n": 561, "outcome": "composite", "mechanism": {"kind": ["even"]}},
        {"n": 561, "outcome": "composite", "mechanism": {}},
        {"n": 561, "outcome": "composite", "mechanism": {"kind": "trivial_factor"}},
        {"n": 561, "outcome": "composite",
         "mechanism": {"kind": "trivial_factor", "p": "3"}},
        {"n": 561, "outcome": "composite",
         "mechanism": {"kind": "pgpc_violation", "m": 5, "failed": 1,
                       "remainder": [], "expected": []}},
        {"n": 561, "outcome": "composite",
         "mechanism": {"kind": "pgpc_violation", "m": 5, "failed": "cond9",
                       "remainder": [1], "expected": []}},
        {"n": 1729, "outcome": "composite",
         "mechanism": {"kind": "binomial_witness", "divisor": [5, "0"],
                       "remainder": [1], "m": 5}},
        {"n": 8, "outcome": "composite",
         "mechanism": {"kind": "euler_witness", "q": 3, "ecc_value": 1}},
        {"n": 569, "outcome": "prime", "prime_basis": "pbpc"},
        {"n": 569, "outcome": "prime", "prime_basis": {"kind": "pbpc", "q": "x"}},
        {"n": 1009, "outcome": "prime", "prime_basis": {"kind": "pgpc", "m": "x"}},
        {"n": 1009, "outcome": "prime", "prime_basis": {"kind": "pgpc"}},
        {"n": 1009, "outcome": "prime", "prime_basis": {"kind": {}, "m": 5}},
        {"n": 10, "outcome": "prime", "prime_basis": {"kind": "pbpc", "q": 3}},
        {"n": 1009, "outcome": "prime", "prime_basis": {"kind": "pgpc", "m": 5, "q": "x"}},
        {"n": 569, "outcome": "prime", "prime_basis": {"kind": "pbpc", "q": 3, "m": True}},
        # A filled slot that the outcome does not use.
        {"n": 1, "outcome": "not_applicable", "prime_basis": {"kind": "pbpc", "q": 3}},
        {"n": 3, "outcome": "prime", "mechanism": {"kind": "even"}},
        {"n": 10, "outcome": "composite", "mechanism": {"kind": "even"},
         "prime_basis": {"kind": "pgpc", "m": 5}},
        # No claim, and an outcome other than inconclusive and the one
        # _degenerate gives n; n = 5 has none, so a missing outcome is not it.
        {"n": 5},
        {"n": 5, "outcome": None, "mechanism": None, "prime_basis": None},
        {"n": 5, "outcome": "prime"},
        {"n": 4, "outcome": "composite"},
        {"n": 2, "outcome": "not_applicable"},
        {"n": 1, "outcome": "prime"},
        {"n": 3, "outcome": "composite"},
        # A claim, even a true one, is not an inconclusive verdict.
        {"n": 561, "outcome": "inconclusive", "mechanism": {"kind": "trivial_factor", "p": 3}},
        {"n": 1009, "outcome": "inconclusive", "prime_basis": {"kind": "pgpc", "m": 5}},
    ])
    def test_verify_certificate_is_total(self, cert):
        assert verify_certificate(cert) is False

    @pytest.mark.parametrize("cert", [
        # With no claim, only inconclusive and the Outcome _degenerate gives n.
        {"n": 2, "outcome": "prime"},
        {"n": 3, "outcome": "prime", "mechanism": None, "prime_basis": None},
        {"n": 1, "outcome": "not_applicable"},
        {"n": 561, "outcome": "inconclusive"},
        {"n": 4, "outcome": "inconclusive", "mechanism": None,
         "qnr_search": {"needed": True, "iterations": 1, "q": 0}},
    ])
    def test_claimless_certificate_verifies(self, cert):
        assert verify_certificate(cert) is True

    def test_search_and_timing_records_must_fit(self):
        # The two forged prime certificates for 1009 (an ill-typed search
        # record, a string for timings) verified True before these checks,
        # and so did a search record with iterations but no search.
        for cert in (certificate(ppta_inr(1009)), certificate(ppta_eqnr(1009)),
                     certificate(ppta_eqnr(NC)), certificate(ppta_inr(2))):
            assert verify_certificate(cert)
            search = cert["qnr_search"]
            claim = cert["mechanism"] or cert["prime_basis"] or {}
            assert search["q"] == claim.get("q", 0)
            for bad in ({"q": "junk", "iterations": -5}, None, "x",
                        {**search, "q": search["q"] + 1},
                        {**search, "q": str(search["q"])},
                        {**search, "iterations": -1},
                        {**search, "needed": int(search["needed"])},
                        {**search, "needed": False, "iterations": 7},
                        {**search, "extra": 0}):
                assert not verify_certificate({**cert, "qnr_search": bad}), bad
            for bad in ("x", None, [], {"total_s": -1.0}, {"total_s": "1"},
                        {1: 0.5}, {"total_s": float("nan")},
                        {"total_s": float("inf")}, {"total_s": True}):
                assert not verify_certificate({**cert, "timings": bad}), bad
            assert verify_certificate({**cert, "timings": {"total_s": 0, "x_s": 2.5}})
            bare = {k: v for k, v in cert.items() if k not in ("qnr_search", "timings")}
            assert verify_certificate(bare)

    @pytest.mark.parametrize("n, slot, kind", [
        (15, "mechanism", "euler_witness"),
        (2047, "mechanism", "binomial_witness"),
        (569, "prime_basis", "pbpc"),
    ])
    def test_scalar_claim_verifies_with_one_symbol(self, monkeypatch, n, slot, kind):
        # The verifier evaluates (q | n) once, and the scalar tail it re-runs
        # takes that symbol rather than evaluating it again. The spy replaces
        # every binding of jacobi in the package's modules.
        import sys

        import ppt.ntcore

        real, calls = ppt.ntcore.jacobi, []

        def spy(a, m):
            calls.append((a, m))
            return real(a, m)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "ppt" and getattr(module, "jacobi", None) is real:
                monkeypatch.setattr(module, "jacobi", spy)
        cert = json.loads(json.dumps(certificate(ppta_eqnr(n))))
        assert cert[slot]["kind"] == kind
        calls.clear()
        assert verify_certificate(cert)
        assert calls == [(cert[slot]["q"], n)]

    def test_verify_certificate_survives_search_failure(self, monkeypatch):
        import ppt.algorithms

        def fail(n):
            raise RuntimeError("find_qnr_or_m: iteration cap exceeded")

        cert = certificate(ppta_inr(1009))
        monkeypatch.setattr(ppt.algorithms, "find_qnr_or_m", fail)
        assert verify_certificate(cert) is False

    def test_claims_no_route_makes_fail(self):
        # Each forged claim is true arithmetic at its q or m, but no decider
        # makes it: a q not reduced mod n, a binomial pair where the Euler
        # check already fails, a condition after the first one that fails.
        def forge(n, slot, claim):
            cert = certificate(ppta_inr(n) if slot == "mechanism" else ppta_eqnr(n))
            assert verify_certificate(cert)
            cert[slot] = claim
            cert["qnr_search"]["q"] = claim.get("q", 0)
            return cert

        assert bcc(13, 15) == (9, 12) and ecc(13, 15) != 0
        residue, want = pgpc_condition(649, canonical_params(5), "cond2")
        assert residue.coeffs != want
        forged = [
            forge(15, "mechanism", {"kind": "euler_witness", "q": 13 + 15,
                                    "ecc_value": ecc(13 + 15, 15)}),
            forge(15, "mechanism", {"kind": "binomial_witness", "q": 13, "a": 9, "b": 12}),
            forge(569, "prime_basis", {"kind": "pbpc", "q": 3 + 569}),
            forge(649, "mechanism", {"kind": "pgpc_violation", "m": 5, "failed": "cond2",
                                     "remainder": list(residue.coeffs),
                                     "expected": list(want)}),
        ]
        for cert in forged:
            assert verify_certificate(cert) is False, cert
        # A q sharing a factor with n reads False; it does not raise.
        for q in (3, 5, 0, 15):
            assert EulerWitness(q=q, ecc_value=1).verify(15) is False
            assert BinomialWitness(q=q, a=1, b=1).verify(15) is False
        # No route makes a basis of another kind.
        with pytest.raises(ValueError):
            PrimeBasis("xyz", m=5)


# One JSON value per field type, the same for every kind, so that claims of
# two kinds whose fields hold equal values meet in the comparison below.
_SAMPLE = {int: 5, str: "psi", list: [1, 2]}


def _samples(kind):
    """A claim of each form of kind, decoded from its certificate entry."""
    return [_decode({"kind": kind, **{f: _SAMPLE[t] for f, t in form.fields.items()}},
                    _CLAIMS[kind][1])[0]
            for form in _CLAIMS[kind][2:]]


@pytest.mark.parametrize("kind", sorted(_CLAIMS))
def test_claim_kind_round_trips_and_equals_only_itself(kind):
    slot = _CLAIMS[kind][1]
    others = [c for k in _CLAIMS if k != kind for c in _samples(k)]
    for claim in _samples(kind):
        assert claim.kind == kind and claim.describe()
        data = json.loads(json.dumps(_claim_to_json(claim)))
        assert _decode(data, slot)[0] == claim
        with pytest.raises(ValueError):  # the other slot holds no claim of this kind
            _decode(data, "prime_basis" if slot == "mechanism" else "mechanism")
        assert pickle.loads(pickle.dumps(claim)) == claim
        assert hash(claim) == hash(_decode(data, slot)[0])
        for name in (*claim._fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(claim, name, 7)
        assert all(claim != other for other in others), claim
    # Each pair holds equal values, and would compare equal as bare tuples.
    assert PerfectSquare(5) != TrivialFactor(5)
    assert JacobiZeroFactor(3) != TrivialFactor(3)
    assert PrimeBasis("pgpc", m=5) != PrimeBasis("fgpc", m=5)


@pytest.mark.parametrize("kind", sorted(_CLAIMS))
def test_verdict_puts_each_claim_in_its_slot(kind):
    """_decide's per-kind table, checked against the slots of _CLAIMS, and
    the certificate of each verdict against one built field by field. 97 is
    1 mod 24 and no square, so the stub search step decides it."""
    slot = _CLAIMS[kind][1]
    outcome = {"mechanism": Outcome.COMPOSITE, "prime_basis": Outcome.PRIME}[slot]
    for claim in _samples(kind):
        q = claim.q if "q" in claim._fields and claim.q is not None else 0
        entry = {"kind": kind}
        for name, value in zip(claim._fields[1:], claim[1:]):
            if value is not None:
                entry[name] = list(value) if isinstance(value, tuple) else value
        for iters in (None, 0, 4):
            verdict = _decide(97, lambda n: (claim, iters))
            assert type(verdict) is Verdict and type(verdict.qnr_search) is QnrSearch
            assert verdict.n == 97 and verdict.outcome is outcome
            assert verdict.mechanism is (claim if slot == "mechanism" else None)
            assert verdict.prime_basis is (claim if slot == "prime_basis" else None)
            assert verdict.qnr_search == (iters is not None, iters or 0, q)
            assert list(verdict.timings) == ["total_s"] and verdict.timings["total_s"] > 0
            assert certificate(verdict) == {
                "n": 97,
                "outcome": outcome.value,
                "mechanism": entry if slot == "mechanism" else None,
                "prime_basis": entry if slot == "prime_basis" else None,
                "qnr_search": {"needed": iters is not None, "iterations": iters or 0, "q": q},
                "timings": {"total_s": verdict.timings["total_s"]},
            }


@pytest.mark.parametrize("outcome", list(Outcome))
def test_verdict_of_an_outcome_holds_no_claim(outcome):
    verdict = _decide(97, lambda n: (outcome, 4))
    assert verdict[:5] == (97, outcome, None, None, (True, 4, 0))
    assert certificate(verdict) == {
        "n": 97, "outcome": outcome.value, "mechanism": None, "prime_basis": None,
        "qnr_search": {"needed": True, "iterations": 4, "q": 0},
        "timings": {"total_s": verdict.timings["total_s"]},
    }


class TestRandomisedCrossCheck:
    def test_random_inputs_against_sympy(self):
        rng = random.Random(71)
        for _ in range(300):
            n = rng.randrange(3, 10**10) | 1
            want = sympy.isprime(n)
            assert (ppta_eqnr(n).outcome is Outcome.PRIME) == want, n
            assert (ppta_inr(n).outcome is Outcome.PRIME) == want, n

    def test_carmichael_numbers_all_exposed(self):
        for n in CARMICHAELS_1E5:
            assert ppta_eqnr(n).outcome is Outcome.COMPOSITE, n
            assert ppta_inr(n).outcome is Outcome.COMPOSITE, n
            assert ppta_inr(n, mode="fgpc").outcome is Outcome.COMPOSITE, n
            assert enhanced_mr(n).outcome is Outcome.COMPOSITE, n


class TestBitLimit:
    """One limit on n's bits for the three deciders, which raise ValueError
    above it, and for verify_certificate, which reads False above it before
    any arithmetic; both read algorithms.MAX_BITS at each call."""

    WIDE = 2**10**6 - 1  # 10**6 bits, 7 mod 8

    def test_deciders_refuse_a_wide_n(self, monkeypatch):
        for decide in (ppta_eqnr, ppta_inr, partial(ppta_inr, mode="fgpc"), enhanced_mr):
            with pytest.raises(ValueError, match="over the limit"):
                decide(self.WIDE)
            with pytest.raises(ValueError, match="over the limit"):
                decide(2**MAX_BITS + 1)
            assert decide(2**(MAX_BITS - 1)).mechanism.kind == "even"
        monkeypatch.setattr("ppt.algorithms.MAX_BITS", 10)
        for decide in (ppta_eqnr, ppta_inr, partial(ppta_inr, mode="fgpc"), enhanced_mr):
            assert decide(1009).outcome is Outcome.PRIME
            with pytest.raises(ValueError, match="over the limit of 10"):
                decide(2053)

    def test_verifier_reads_false_quickly(self, monkeypatch):
        # An honest pbpc claim at 2^127 - 1 (q = n - 2), moved to a 10**6-bit n
        # whose re-check would run the scalar tail there.
        cert = certificate(ppta_eqnr(2**127 - 1))
        assert verify_certificate(cert)
        q = self.WIDE - 2
        wide = {**cert, "n": self.WIDE, "prime_basis": {"kind": "pbpc", "q": q},
                "qnr_search": {**cert["qnr_search"], "q": q}}
        t0 = time.perf_counter()
        assert verify_certificate(wide) is False
        assert time.perf_counter() - t0 < 0.1
        small = certificate(ppta_eqnr(1009))
        assert verify_certificate(small) is True
        monkeypatch.setattr("ppt.algorithms.MAX_BITS", 9)
        assert verify_certificate(small) is False

    def test_perfect_square_claim_reads_false_quickly(self):
        # A perfect_square claim for n = 9 whose s is a dense 4,000,000-bit
        # integer: squaring s would take most of a second, so the check
        # bounds s by n before it squares.
        cert = certificate(ppta_eqnr(9))
        assert cert["mechanism"] == {"kind": "perfect_square", "s": 3}
        assert verify_certificate(cert) is True
        s = random.Random(53).getrandbits(4_000_000) | 1 << 3_999_999
        for forged in (s, -s, 9, 1, -3):
            bad = {**cert, "mechanism": {"kind": "perfect_square", "s": forged}}
            t0 = time.perf_counter()
            assert verify_certificate(bad) is False, forged
            assert time.perf_counter() - t0 < 0.05, forged

    def test_run_batch_counts_an_error(self, capsys, monkeypatch):
        stats = run_batch([561, 2**MAX_BITS + 1, 569])
        assert stats.errors == 1 and stats.outcomes.total() == 2
        assert capsys.readouterr().err == (f"warning: a {MAX_BITS + 1}-bit n: n has {MAX_BITS + 1}"
                                           f" bits, over the limit of {MAX_BITS}\n")
        # The warning names n by its size only where the interpreter's
        # int-to-str limit would refuse its 663 digits.
        monkeypatch.setattr("ppt.algorithms.MAX_BITS", 9)
        n = 2**2200 + 1
        before = sys.get_int_max_str_digits()
        try:
            for limit in (640, 663, 0):
                sys.set_int_max_str_digits(limit)
                run_batch([n])
                name = "a 2201-bit n" if limit == 640 else str(n)
                assert capsys.readouterr().err == (f"warning: {name}: n has 2201 bits,"
                                                   " over the limit of 9\n")
        finally:
            sys.set_int_max_str_digits(before)
