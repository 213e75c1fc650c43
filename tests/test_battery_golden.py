"""Golden battery residues: the polynomial battery on wide moduli.

tests/test_golden.py pins certificates for n below 20000 and a few notable
inputs, where every coefficient is narrow. This file pins the raw residues
of the polynomial battery on 64- to 1024-bit moduli n = 1 mod 24 and on
NC, N22 and HC2, at canonical parameters m from 5 to 23. Each digest is
the sha256 of one line per (n, m): the residue and expected value of
pgpc_condition for cond1-cond4 and the binomial remainder modulo the
cyclotomic polynomial Phi_m; then one line per n with the Euler power
q**((n-1)/2) mod n for q in {2, 3, n-2}. A change to any coefficient moves the digest.
"""

import hashlib
import random

import pytest

from ppt.canonical import canonical_params, cyclotomic_prime_power
from ppt.checks import pgpc_condition
from ppt.polyring import mbec_remainder

from conftest import HC2, N22, NC

SMALL_M = (5, 7, 9, 11)
LARGE_M = (13, 16, 17, 23)


def _moduli(bits: int, count: int, seed: int) -> list[int]:
    """Seeded random n = 1 mod 24 of exactly `bits` bits."""
    rng = random.Random(seed)
    lo, hi = (1 << (bits - 1)) // 24 + 1, (1 << bits) // 24
    return [24 * rng.randrange(lo, hi) + 1 for _ in range(count)]


# (label, moduli, parameters m)
CASES = [
    ("conftest", [NC, N22, HC2], SMALL_M + LARGE_M),
    ("64", _moduli(64, 3, 64), SMALL_M + LARGE_M),
    ("256", _moduli(256, 2, 256), SMALL_M + LARGE_M),
    ("512", _moduli(512, 2, 512), SMALL_M),
    ("1024", _moduli(1024, 3, 1024), (5,)),
]

GOLDEN = {
    "conftest": "6afb4319241430fbb20935d84ac263214c7c5a8e45edb300936e1ecab0cb2ba0",
    "64": "a11d13f20ec4c0c83382f05a4c78634f58ced113d59263586fb42be678bc9483",
    "256": "342cf940350425f81662f3cc8324eeca927ce0e72ccdf2afbfed989303182709",
    "512": "455baee5f197535900cadaa363f29e6607c8adcb75db91a259ef175223759fb3",
    "1024": "735eb97f85b7855c69b2d9cfd3e1a8e387400f25331a2be485a62288c180f6ce",
}


def battery_digest(moduli, ms) -> str:
    h = hashlib.sha256()
    for n in moduli:
        for m in ms:
            params = canonical_params(m)
            row = [n, m]
            for cond in ("cond1", "cond2", "cond3", "cond4"):
                residue, expected = pgpc_condition(n, params, cond)
                row.append((residue.coeffs, expected))
            row.append(mbec_remainder(n, cyclotomic_prime_power(m)).coeffs)
            h.update(repr(row).encode())
            h.update(b"\n")
        row = [n, [pow(q, (n - 1) >> 1, n) for q in (2, 3, n - 2)]]
        h.update(repr(row).encode())
        h.update(b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("label, moduli, ms", CASES, ids=[c[0] for c in CASES])
def test_battery_residues_match_golden_digest(label, moduli, ms):
    assert battery_digest(moduli, ms) == GOLDEN[label]
