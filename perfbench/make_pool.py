"""Regenerate pool.json, the big primes the scalar_big workload draws from.

A 2048-bit prime costs seconds to find in pure Python, far more than one
benchmark run may spend on set-up, so scalar_big picks its primes from this
committed pool (by its own seed) and generates its composites fresh. The
pool itself comes from a fixed seed: random odd starting points in each
residue class mod 24, stepped by 24 until sympy.isprime accepts.

    python3 perfbench/make_pool.py            # rewrites perfbench/pool.json
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import sympy

POOL_SEED = 20191908
POOL_SIZES = {1024: 40, 2048: 16}
# Residues mod 24 of each scalar class, all coprime to 6:
# q2 is n = 3 or 5 mod 8, qn2 is n = 7 mod 8, q3 is n = 17 mod 24.
SCALAR_CLASSES = {"q2": (5, 11, 13, 19), "qn2": (7, 23), "q3": (17,)}
POOL_PATH = Path(__file__).with_name("pool.json")


def random_in_class(rng: random.Random, bits: int, residues: tuple[int, ...]) -> int:
    """Random bits-bit integer congruent mod 24 to one of residues."""
    n = rng.getrandbits(bits) | (1 << (bits - 1))
    return n - n % 24 + rng.choice(residues)


def prime_in_class(rng: random.Random, bits: int, residues: tuple[int, ...]) -> int:
    n = random_in_class(rng, bits, residues)
    while not sympy.isprime(n):
        n += 24
    if n.bit_length() != bits:
        return prime_in_class(rng, bits, residues)
    return n


def main() -> None:
    rng = random.Random(POOL_SEED)
    pool = {
        str(bits): {
            cls: [prime_in_class(rng, bits, res) for _ in range(size)]
            for cls, res in SCALAR_CLASSES.items()
        }
        for bits, size in POOL_SIZES.items()
    }
    POOL_PATH.write_text(json.dumps(pool, indent=1) + "\n")


if __name__ == "__main__":
    main()
