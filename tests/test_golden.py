"""Golden certificates: every decider's certificates over a fixed input set.

Each digest is the sha256 of the certificates of one decider, timings
dropped, written as canonical JSON (sorted keys, no spaces) one per line in
input order. The inputs cover every decider branch: all n below 20000, the
notable inputs of conftest, and the Carmichael numbers below 1e5. A change
of any verdict, mechanism field, prime basis or search record moves the
digest.
"""

import hashlib
import json

import pytest

from ppt.algorithms import ALGORITHMS, certificate
from ppt.harness import generate_carmichaels

from conftest import ARN, CAR, HC1, HC2, N17, N22, NC, NHC

INPUTS = [
    *range(1, 20000),
    N22, HC1, HC2, NHC, ARN, N17, CAR, NC,
    *generate_carmichaels(10**5),
]

GOLDEN = {
    "eqnr": "171e52e226d349bffff3774a1ab81e42b207abeee69dff113bb8e7e0e13ef5e5",
    "inr_pgpc": "55a5b2f178161f1bb6c95149f42084ae6df0a1fd814081ce68ee256fa99fefc8",
    "inr_fgpc": "e90750af586011d2a0d1b16e780cca0b75557b332804e4324ea77cbc7416b569",
    "enhanced_mr": "16a529efbac239b5daed574044435640ebc71fec23cb022174895f19d95cae55",
}


def certificate_digest(decide) -> str:
    h = hashlib.sha256()
    for n in INPUTS:
        cert = certificate(decide(n))
        del cert["timings"]
        h.update(json.dumps(cert, sort_keys=True, separators=(",", ":")).encode())
        h.update(b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_certificates_match_golden_digest(name):
    assert certificate_digest(ALGORITHMS[name]) == GOLDEN[name]
