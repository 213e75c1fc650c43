"""Golden certificates: every decider's certificates over fixed input sets.

Each digest is the sha256 of the certificates of one decider over one
input set, timings dropped, written as canonical JSON (sorted keys, no
spaces) one per line in input order. A change of any verdict, mechanism
field, prime basis or search record (the probe count included) moves the
digest, and every certificate digested must verify True after a JSON round
trip. The input sets:

* INPUTS: all n below 20000, the notable inputs of conftest, and the
  Carmichael numbers below 1e5; together they cover every decider branch.
* WIDE_INPUTS: the Carmichael numbers below 1e8 that are 1 mod 24 and 300
  seeded 65-bit n = 1 mod 24. Both walks over small primes run here: the
  non-residue scan of ppta_eqnr and the parameter search of ppta_inr, to
  its divisor, non-residue and m exits.
"""

import hashlib
import json
import random

import pytest

from ppt.algorithms import ALGORITHMS, certificate, verify_certificate
from ppt.harness import generate_carmichaels

from conftest import ARN, CAR, CARMICHAELS_1MOD24_1E8, HC1, HC2, N17, N22, NC, NHC


def _seeded_1mod24(bits: int, count: int, seed: int) -> list[int]:
    """Seeded random n = 1 mod 24 of exactly `bits` bits."""
    rng = random.Random(seed)
    lo, hi = (1 << (bits - 1)) // 24 + 1, (1 << bits) // 24
    return [24 * rng.randrange(lo, hi) + 1 for _ in range(count)]


INPUTS = [
    *range(1, 20000),
    N22, HC1, HC2, NHC, ARN, N17, CAR, NC,
    *generate_carmichaels(10**5),
]
WIDE_INPUTS = [*CARMICHAELS_1MOD24_1E8, *_seeded_1mod24(65, 300, 65)]

GOLDEN = {
    "eqnr": "171e52e226d349bffff3774a1ab81e42b207abeee69dff113bb8e7e0e13ef5e5",
    "inr_pgpc": "55a5b2f178161f1bb6c95149f42084ae6df0a1fd814081ce68ee256fa99fefc8",
    "inr_fgpc": "e90750af586011d2a0d1b16e780cca0b75557b332804e4324ea77cbc7416b569",
    "enhanced_mr": "16a529efbac239b5daed574044435640ebc71fec23cb022174895f19d95cae55",
}
WIDE_GOLDEN = {
    "eqnr": "e40dde1225335086d0d8cdb40d8b37da526002bbb3be8235b169abd81fc982cc",
    "inr_pgpc": "04e3012a5b69b2233141443c0fc49b85c6dfbecb951ddac36c7fd036308b0b7c",
    "inr_fgpc": "7818c2859287005ac1669dc73c3d61c41b54cf1887c157162d0c4c1548d2119e",
    "enhanced_mr": "2314c227d5c5d5b77b488eb97a5f4bc8c7d85d5149df7b4efba85505f5864f1e",
}


def certificate_digest(decide, inputs) -> tuple[str, list[int]]:
    """The digest of decide's certificates over inputs, and the n whose
    certificate does not verify after a JSON round trip."""
    h = hashlib.sha256()
    unverified = []
    for n in inputs:
        cert = certificate(decide(n))
        del cert["timings"]
        text = json.dumps(cert, sort_keys=True, separators=(",", ":"))
        h.update(text.encode())
        h.update(b"\n")
        if not verify_certificate(json.loads(text)):
            unverified.append(n)
    return h.hexdigest(), unverified


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_certificates_match_golden_digest(name):
    assert certificate_digest(ALGORITHMS[name], INPUTS) == (GOLDEN[name], [])


@pytest.mark.parametrize("name", sorted(WIDE_GOLDEN))
def test_wide_certificates_match_golden_digest(name):
    assert certificate_digest(ALGORITHMS[name], WIDE_INPUTS) == (WIDE_GOLDEN[name], [])
