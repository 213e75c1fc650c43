"""Golden Mersenne certificates: the scalar ladder at up to 2203 bits.

Every 2^p - 1 with p odd is 7 mod 8, so ppta_eqnr takes q = n - 2 with
no search. A composite Mersenne number is an Euler liar at that q (2 is a
square mod n, so (n-2 | n) = -1 and (n-2)^((n-1)/2) = -1 both hold), so
the binomial defect of (1 + sqrt(q))^n alone decides it. The digest is the
sha256 of the certificates, timings dropped, as canonical JSON one per
line in exponent order.
"""

import hashlib
import json

import sympy

from ppt.algorithms import BinomialWitness, certificate, ppta_eqnr, verify_certificate

EXPONENTS = (67, 101, 257, 521, 607, 1021, 1279, 2039, 2203)

GOLDEN = "bd9aebff9423462f0c165d2761b00f7eb65beb5b0aef8ee4466df3f401f2e802"


def test_mersenne_certificates_match_golden_digest():
    h = hashlib.sha256()
    for p in EXPONENTS:
        n = 2**p - 1
        verdict = ppta_eqnr(n)
        cert = certificate(verdict)
        assert verify_certificate(json.loads(json.dumps(cert))), p
        if sympy.isprime(n):
            assert cert["outcome"] == "prime" and verdict.prime_basis.kind == "pbpc", p
            assert verdict.prime_basis.q == n - 2, p
        else:
            assert cert["outcome"] == "composite", p
            assert type(verdict.mechanism) is BinomialWitness, p
        del cert["timings"]
        h.update(json.dumps(cert, sort_keys=True, separators=(",", ":")).encode())
        h.update(b"\n")
    assert h.hexdigest() == GOLDEN
