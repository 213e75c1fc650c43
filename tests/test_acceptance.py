"""Acceptance gate: one test per numbered criterion.

Run with `pytest -v tests/test_acceptance.py` to get one PASS/FAIL line
per criterion.  Criterion 7 needs an external dataset and is skipped
with an explanatory message when that file is not supplied.
"""

import json
import math
import os
import random
from itertools import repeat

import pytest

from ppt.algorithms import (
    Outcome,
    certificate,
    enhanced_mr,
    find_qnr,
    miller_rabin_base,
    ppta_eqnr,
    ppta_inr,
    verify_certificate,
)
from ppt.canonical import (
    canonical_params,
    cyclotomic_prime_power,
    find_qnr_or_m,
    psi_of,
    upsilon_of,
)
from ppt.checks import bcc, ecc, pgpc_check
from ppt.harness import load_dataset, run_batch
from ppt.ntcore import jacobi, next_prime
from ppt.polyring import Poly, QuotientRing, mbec_remainder, poly_powmod

from conftest import (
    BCC_2_NHC,
    BCC_CARM2_CAR,
    CAR,
    HC1,
    HC2,
    MBEC_589_PSI5,
    MBEC_HC1_PSI13,
    MBEC_HC2_PSI23,
    MBEC_N22_PSI7,
    MBEC_NC_PSI5,
    N17,
    N22,
    NC,
    NHC,
    PHI5,
    PSI5,
    PSI23,
    TABLE1,
    UPS5,
    UPS23,
)
from reference import QuadCtx, conjugate, prime_flags, quad_mul, quad_pow


def test_criterion_1_exhaustive_agreement_below_one_million():
    """Every odd n in [3, 1e6): all deciders match a sieve of
    Eratosthenes, whose primes are sympy's 78,498 below 1e6."""
    import sympy
    limit = 10**6
    is_prime = prime_flags(limit)
    assert [k for k in range(limit) if is_prime[k]] == list(sympy.sieve.primerange(2, limit))
    decided = (Outcome.PRIME, Outcome.COMPOSITE)
    mismatches = []
    for n in range(3, limit, 2):
        want_prime = bool(is_prime[n])
        for label, verdict in (
            ("eqnr", ppta_eqnr(n)),
            ("inr_pgpc", ppta_inr(n, "pgpc")),
            ("inr_fgpc", ppta_inr(n, "fgpc")),
        ):
            if (verdict.outcome not in decided
                    or (verdict.outcome is Outcome.PRIME) != want_prime):
                mismatches.append((label, n, verdict.outcome))
        if mismatches:
            break
    assert not mismatches, mismatches


def test_criterion_2_exact_value_regression():
    """Frozen defects, powers, and remainders reproduce byte-exactly."""
    # Quadratic-ring defect pairs.
    assert bcc(15, 2047) == (1194, 322)
    assert bcc(2, 2047) == (1196, 1265)
    assert bcc(389, 561) == (0, 0)
    assert ecc(3, 2047) == 1566
    assert bcc(2, NHC) == BCC_2_NHC
    assert bcc(CAR - 2, CAR) == BCC_CARM2_CAR
    # The full power and the defect pair it induces: the defect equals
    # the power minus 1 and minus the scalar q^((n-1)/2) on the root
    # coordinate.
    ctx = QuadCtx(2047, 2045)
    power = quad_pow(ctx.one_plus_root(), 2047)
    assert (power.a, power.b) == (1523, 1067)
    assert bcc(2045, 2047) == (1522, 1068)

    # Binomial-congruence remainders against divisor polynomials.
    assert list(mbec_remainder(589, Poly(PSI5)).coeffs) == MBEC_589_PSI5
    assert mbec_remainder(569, Poly(PSI5)).is_zero

    # Battery at n = 6368689, order 5: the weaker conditions hold and
    # the squared-root-form condition fails with a frozen remainder.
    assert mbec_remainder(NC, Poly(UPS5)).is_zero
    assert mbec_remainder(NC, Poly(PHI5)).is_zero
    e = NC * NC - 1
    for divisor in (UPS5, PHI5, PSI5):
        ring = QuotientRing(Poly(divisor), NC)
        assert poly_powmod(ring, Poly([0, 1]), e).coeffs == (1,)
    report = pgpc_check(NC, canonical_params(5))
    assert (report.cond1, report.cond2) == (True, False)
    assert list(report.witness.coeffs) == MBEC_NC_PSI5

    # Large frozen remainders: six, twelve, and twenty-two coefficients.
    assert list(mbec_remainder(N22, Poly([7, 0, 14, 0, 7, 0, 1])).coeffs
                ) == MBEC_N22_PSI7
    assert list(mbec_remainder(
        HC1, Poly(TABLE1[13][2])).coeffs) == MBEC_HC1_PSI13
    assert list(mbec_remainder(HC2, Poly(PSI23)).coeffs) == MBEC_HC2_PSI23


def test_criterion_3_divisor_polynomial_table():
    """The three divisor polynomials match the frozen table exactly."""
    for m, (phi, ups, psi) in TABLE1.items():
        assert list(cyclotomic_prime_power(m).coeffs) == phi, m
        assert list(upsilon_of(m).coeffs) == ups, m
        assert list(psi_of(m).coeffs) == psi, m
    assert list(upsilon_of(23).coeffs) == UPS23
    assert list(psi_of(23).coeffs) == PSI23


def test_criterion_4_mechanism_regression():
    """Known inputs resolve through the expected mechanisms."""
    v341 = ppta_eqnr(341)
    assert v341.outcome is Outcome.COMPOSITE
    assert v341.mechanism.kind == "euler_witness"

    v2047 = ppta_eqnr(2047)
    assert v2047.outcome is Outcome.COMPOSITE
    assert v2047.mechanism.kind == "binomial_witness"
    assert not v2047.qnr_search.needed

    v561 = ppta_eqnr(561)
    assert v561.outcome is Outcome.COMPOSITE
    assert v561.mechanism.kind == "jacobi_zero_factor"
    assert v561.qnr_search.needed

    vhc = ppta_eqnr(NHC)
    assert vhc.outcome is Outcome.COMPOSITE
    assert vhc.mechanism.kind == "binomial_witness"
    assert vhc.mechanism.q == 2
    assert not vhc.qnr_search.needed


def test_criterion_5_search_iteration_depths():
    """Non-residue search depths match the frozen traces."""
    probe = find_qnr(N17)
    assert probe.iterations == 17
    assert (probe.found_factor, probe.p) == (True, 61)

    # 31 is the tenth odd prime probed (3, 5, 7, 11, 13, 17, 19, 23,
    # 29, 31), so the one-indexed depth is 10.
    probe2 = find_qnr(HC2)
    assert (probe2.found_factor, probe2.p) == (False, 31)
    assert probe2.iterations == 10

    probe3 = find_qnr(HC1)
    assert (probe3.found_factor, probe3.p) == (True, 17)
    assert probe3.iterations == 6


def test_criterion_6_property_suites():
    """Invariant batteries over exhaustive desk-scale ranges."""
    # (a) For odd composites below 1e5 and prime non-residues below 50:
    # a Miller-Rabin witness forces a nonzero Euler defect.
    limit = 10**5
    sieve = prime_flags(limit)
    small_primes = [q for q in range(2, 50) if sieve[q]]
    for n in range(9, limit, 2):
        if sieve[n]:
            continue
        for q in small_primes:
            if n % q == 0 or jacobi(q, n) != -1:
                continue
            if miller_rabin_base(n, q).witness:
                assert ecc(q, n) != 0, (q, n)

    # (b) Conjugation fuzz: multiplicative and commutes with powers.
    rng = random.Random(997)
    for _ in range(10**3):
        n = rng.randrange(3, 10**9) | 1
        ctx = QuadCtx(n, rng.randrange(2, n))
        x = ctx.element(rng.randrange(n), rng.randrange(n))
        y = ctx.element(rng.randrange(n), rng.randrange(n))
        assert conjugate(quad_mul(x, y)) == quad_mul(conjugate(x),
                                                     conjugate(y))
        e = rng.randrange(0, 100)
        assert conjugate(quad_pow(x, e)) == quad_pow(conjugate(x), e)

    # (c) The binomial congruence vanishes for primes below 2000
    # against 50 random monic divisors each (degrees 1..8).
    rng = random.Random(991)
    p = 3
    while p < 2000:
        for _ in range(50):
            deg = rng.randint(1, 8)
            coeffs = [rng.randrange(p) for _ in range(deg)] + [1]
            assert mbec_remainder(p, Poly(coeffs, p)).is_zero, p
        p = next_prime(p)

    # (d) Unit order: for prime n and non-residue q, every nonzero
    # element P of the quadratic ring satisfies P^(n^2 - 1) = 1.
    rng = random.Random(983)
    p = 3
    while p < 200:
        q = 2
        while jacobi(q, p) != -1:
            q += 1
        ctx = QuadCtx(p, q)
        e = p * p - 1
        for _ in range(10):
            a, b = rng.randrange(p), rng.randrange(p)
            if a == 0 and b == 0:
                a = 1
            y = quad_pow(ctx.element(a, b), e)
            assert (y.a, y.b) == (1, 0), (p, q, a, b)
        p = next_prime(p)

    # (e) Exactly half of the units are non-residues for every odd
    # non-square modulus below 1e4.
    import sympy
    for n in range(3, 10**4, 2):
        if math.isqrt(n) ** 2 == n:
            continue
        symbols = list(map(jacobi, range(1, n), repeat(n)))
        assert symbols.count(-1) == symbols.count(1) == sympy.totient(n) // 2, n

    # (f) The parameter search stays below max(2 lg n, 30) whenever it
    # settles on a prime power, for all n = 1 mod 24 in [1e3, 1e6].
    start = 1009  # smallest n >= 1e3 with n = 1 mod 24
    kinds = {"divisor": 0, "qnr": 0, "m": 0}
    for n in range(start, 10**6 + 1, 24):
        res = find_qnr_or_m(n)
        if res.m is not None:
            kinds["m"] += 1
            assert res.m < max(2 * math.log2(n), 30), (n, res.m)
        elif res.qnr is not None:
            kinds["qnr"] += 1
        else:
            kinds["divisor"] += 1
    assert all(kinds.values()), kinds


def _pinch_set1_path():
    env = os.environ.get("PPT_PINCH_SET1")
    if env and os.path.exists(env):
        return env
    local = os.path.join(os.path.dirname(__file__), "..", "data",
                         "pinch_set1.txt")
    return local if os.path.exists(local) else None


def test_criterion_7_external_dataset_row():
    """First stats row over the external composite list, verbatim."""
    path = _pinch_set1_path()
    if path is None:
        pytest.skip(
            "external dataset not supplied: place it at data/"
            "pinch_set1.txt or point PPT_PINCH_SET1 at it")
    rows = []
    run_batch(load_dataset(path), "eqnr", print_every=24668, emit=rows.append)
    assert rows[0] == ("24668 | 8905 (0.3610), 15575 (0.6314), "
                       "188 (0.0076) | 21726 (0.8807), 4.0622, 17")


def test_criterion_8_certificate_soundness():
    """Random composite certificates re-verify from their own fields."""
    rng = random.Random(20260819)
    checked = 0
    for i in range(10**4):
        n = rng.randrange(3, 10**12) | 1
        verdict = ppta_eqnr(n) if i % 2 == 0 else ppta_inr(
            n, "pgpc" if i % 4 == 1 else "fgpc")
        cert = json.loads(json.dumps(certificate(verdict)))
        if verdict.outcome is Outcome.COMPOSITE:
            assert verify_certificate(cert), n
            checked += 1
        elif verdict.outcome is Outcome.PRIME:
            assert verify_certificate(cert), n
    assert checked > 9000  # nearly all random odd n are composite
    # A sample through the randomised hybrid as well.
    for _ in range(500):
        n = rng.randrange(3, 10**12) | 1
        verdict = enhanced_mr(n)
        cert = json.loads(json.dumps(certificate(verdict)))
        if verdict.outcome is Outcome.COMPOSITE:
            assert verify_certificate(cert), n
