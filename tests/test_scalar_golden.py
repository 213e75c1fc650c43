"""Golden scalar results: the quadratic ring Z_n[sqrt(q)] on wide moduli.

tests/test_golden.py pins certificates for n below 20000, where every
coordinate is narrow. This file pins the raw scalar results on seeded
prime and composite moduli of 64 to 2048 bits. For each n and each q in
{2, 3, n-2, n-1, (n-1)/2, (n+1)/2, random} one line holds the scalar
tail (ecc(q, n), then bcc's pair only if that is zero, else (0, 0)),
bcc(q, n), the Euler power q**((n-1)/2) mod n and two powers in
QuadCtx(n, q) by the reference quad_pow (tests/reference.py): (1 +
sqrt(q))**n and a seeded element to a seeded exponent. The halves
(n-1)/2 and (n+1)/2 sit on either side of the point where q's
least-absolute residue changes sign. A vanishing Jacobi symbol, which makes
ecc raise, is recorded as the marker "jacobi0". Each digest is the sha256
of one size's lines; a change to any coordinate moves it.
"""

import hashlib
import random

import pytest
import sympy

from ppt.checks import bcc, ecc

from reference import QuadCtx, quad_pow


def _prime(bits: int, rng: random.Random) -> int:
    return sympy.nextprime(rng.getrandbits(bits - 1) | 1 << (bits - 1))


def _moduli(bits: int, primes: int, composites: int, seed: int) -> list[int]:
    """Seeded primes, then products of two primes, each of `bits` bits or so."""
    rng = random.Random(seed)
    out = [_prime(bits, rng) for _ in range(primes)]
    out += [_prime(bits // 2, rng) * _prime(bits // 2, rng)
            for _ in range(composites)]
    return out


def _q_values(n: int, rng: random.Random, full: bool) -> list[int]:
    if not full:
        return [2, n - 2, rng.randrange(2, n - 1)]
    return [2, 3, n - 2, n - 1, (n - 1) // 2, (n + 1) // 2,
            rng.randrange(2, n - 1)]


# (label, moduli, all seven q values or only {2, n-2, random})
CASES = [
    ("64", [*_moduli(64, 2, 2, 64), 3 * _prime(62, random.Random(3))], True),
    ("256", _moduli(256, 2, 2, 256), True),
    ("512", _moduli(512, 1, 1, 512), True),
    ("1024", _moduli(1024, 1, 1, 1024), True),
    ("2048", _moduli(2048, 0, 1, 2048), False),
]

GOLDEN = {
    "64": "9ccc4f9a6bc117cfcf7e790b69dd3a693e97c6e81053fe694ce4bd6011c8d3c8",
    "256": "6d6031a407bb74b6e8d39ec6359f26caf0fd5a766de3e8b7d2addb4a7d11e1b7",
    "512": "0b6be4f1009c1600d4cf4a3b1a0b3a811c9cd327428085640bbdbb7987cacb28",
    "1024": "e9bffd098be7a7d5e46ce3b4fe7c16eccc5f67842e843cca9310bbcc419b2ac2",
    "2048": "11436cb5f3d43601ada38483f256289b617eff8d95e47dd9625a5ec99c647f3b",
}


def scalar_digest(moduli, full: bool) -> str:
    h = hashlib.sha256()
    for n in moduli:
        rng = random.Random(n)
        for q in _q_values(n, rng, full):
            ctx = QuadCtx(n, q)
            x = ctx.element(rng.randrange(n), rng.randrange(n))
            e = rng.randrange(n)
            y = quad_pow(ctx.one_plus_root(), n)
            z = quad_pow(x, e)
            b = bcc(q, n)
            try:
                euler = ecc(q, n)
                tail = (euler, *((0, 0) if euler else b))
            except ValueError:
                tail = "jacobi0"
            row = [n, q, tail, b,
                   pow(q, (n - 1) >> 1, n), (y.a, y.b), (z.a, z.b)]
            h.update(repr(row).encode())
            h.update(b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("label, moduli, full", CASES, ids=[c[0] for c in CASES])
def test_scalar_results_match_golden_digest(label, moduli, full):
    assert scalar_digest(moduli, full) == GOLDEN[label]
