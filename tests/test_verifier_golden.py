"""Golden verifier: verify_certificate over seeded mutants of real certificates.

The base corpus is every certificate the four ALGORITHMS deciders and
enhanced_mr with one draw make for n below 400, the numbers the CLI tests
and CI use, the conftest notable inputs, 150 seeded 40-bit odd n and 60
seeded 70-bit n = 1 mod 24, each after a JSON round trip. A mutant is one
base certificate with one or two of these edits, at a seeded place:

* drop, add or retype a field (or a list element);
* move an int by +-1 or +-n, or set it to 0 or n - 1;
* swap the kind of a claim, the outcome, or the two claim slots;
* put null or nested junk in place of a value.

The digest is the sha256 of the sequence of results, one byte per mutant
("1" True, "0" False, "E" raised). No call may raise, and every True whose
outcome is prime or composite must agree with sympy.isprime.

    PYTHONPATH=src python tests/test_verifier_golden.py COUNT

verifies COUNT mutants, prints the counts and the digest, and exits 1 on
a raise or on a True that sympy.isprime contradicts.
"""

import collections
import copy
import functools
import hashlib
import json
import random
import sys

import sympy

from ppt.algorithms import ALGORITHMS, certificate, enhanced_mr, verify_certificate

from conftest import ARN, CAR, HC1, HC2, N17, N22, NC, NHC

KINDS = ["even", "trivial_factor", "perfect_square", "jacobi_zero_factor",
         "euler_witness", "binomial_witness", "mr_nontrivial_root", "fermat_witness",
         "pgpc_violation", "pbpc", "pgpc", "fgpc"]
OUTCOMES = ["prime", "composite", "not_applicable", "inconclusive"]
KEYS = ["n", "outcome", "mechanism", "prime_basis", "qnr_search", "timings", "kind",
        "p", "q", "s", "a", "b", "m", "base", "ecc_value", "divisor_kind", "divisor",
        "remainder", "expected", "failed", "needed", "iterations", "total_s", "x"]
JUNK = [None, {"kind": [None, {"m": []}]}, [[], {}], [None], {}, "", "psi", 1.5, True]

CI_NUMBERS = [
    41658819602401, 31119895200241, 10000000000129, 6368689, 10000000127881,
    10000000011961, 14283595418401, 2162161, 2882881, 6409, 7561, 10081,
    37801, 55441, 166321, 2 ** 89 - 1, 2 ** 127 - 1,
]


def base_certificates() -> list[str]:
    """The JSON text of every base certificate, timings fixed."""
    rng = random.Random(23)
    inputs = [
        *range(1, 400), *CI_NUMBERS, N22, HC1, HC2, NHC, ARN, N17, CAR, NC,
        *(rng.getrandbits(40) | (1 << 39) | 1 for _ in range(150)),
        *(24 * rng.getrandbits(65) + 1 for _ in range(60)),
    ]
    deciders = [*(ALGORITHMS[name] for name in sorted(ALGORITHMS)),
                lambda n: enhanced_mr(n, 1)]
    texts = []
    for n in inputs:
        for decide in deciders:
            cert = certificate(decide(n))
            cert["timings"] = {"total_s": 0.001}
            texts.append(json.dumps(cert))
    return texts


def _places(value, path=()):
    """The path of every value inside value, depth first."""
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, inner in items:
        yield path + (key,)
        yield from _places(inner, path + (key,))


def _containers(value, path=()):
    """The path of value and of every dict or list inside it."""
    if isinstance(value, (dict, list)):
        yield path
    for place in _places(value, path):
        if isinstance(_get(value, place[len(path):]), (dict, list)):
            yield place


def _get(value, path):
    for key in path:
        value = value[key]
    return value


def _retyped(value, rng):
    if type(value) is int:
        return rng.choice([str(value), float(value), value != 0, [value], {"v": value}])
    if isinstance(value, (list, dict)):
        return rng.choice([str(value), len(value), list(value) if isinstance(value, dict)
                           else dict(enumerate(value))])
    return rng.choice([0, 1, [value], {"kind": value}, str(value)])


def mutate(cert: dict, rng: random.Random) -> None:
    """Apply one seeded edit to cert in place."""
    n = cert.get("n") if type(cert.get("n")) is int else 1
    op = rng.choice(["drop", "add", "retype", "int", "int", "kind", "outcome", "slot",
                     "null", "junk"])
    places = list(_places(cert))
    if op == "int":
        ints = [p for p in places if type(_get(cert, p)) is int]
        if ints:
            place = rng.choice(ints)
            old = _get(cert, place)
            new = rng.choice([old + 1, old - 1, old + n, old - n, 0, n - 1])
            _get(cert, place[:-1])[place[-1]] = new
            return
        op = "retype"
    if op == "kind":
        slot = rng.choice(["mechanism", "prime_basis"])
        claim = cert.get(slot)
        if isinstance(claim, dict):
            claim["kind"] = rng.choice(KINDS)
        else:
            cert[slot] = {"kind": rng.choice(KINDS)}
    elif op == "outcome":
        cert["outcome"] = rng.choice(OUTCOMES)
    elif op == "slot":
        cert["mechanism"], cert["prime_basis"] = cert.get("prime_basis"), cert.get("mechanism")
    elif op == "add":
        path = rng.choice(list(_containers(cert)))
        holder = _get(cert, path)
        value = rng.choice([0, 1, 2, 3, n - 1, n, rng.randrange(n + 1), None, "psi"])
        if isinstance(holder, dict):
            holder[rng.choice(KEYS)] = value
        else:
            holder.insert(rng.randrange(len(holder) + 1), value)
    else:
        place = rng.choice(places)
        holder, key = _get(cert, place[:-1]), place[-1]
        if op == "drop":
            del holder[key]
        elif op == "retype":
            holder[key] = _retyped(holder[key], rng)
        elif op == "null":
            holder[key] = None
        else:
            holder[key] = copy.deepcopy(rng.choice(JUNK))


def run(count: int, seed: int = 2023) -> dict:
    """Verify count seeded mutants; their digest, counts and wrong Trues."""
    bases = base_certificates()
    rng = random.Random(seed)
    h = hashlib.sha256()
    counts = {"mutants": count, "true": 0, "false": 0, "raised": 0, "wrong_true": 0}
    wrong = []
    for _ in range(count):
        cert = json.loads(rng.choice(bases))
        for _ in range(rng.choice([1, 1, 2])):
            mutate(cert, rng)
        try:
            ok = verify_certificate(cert)
        except Exception:
            h.update(b"E")
            counts["raised"] += 1
            continue
        h.update(b"1" if ok else b"0")
        counts["true" if ok else "false"] += 1
        outcome = cert.get("outcome")
        if ok and outcome in ("prime", "composite") and (
                sympy.isprime(cert["n"]) != (outcome == "prime")):
            counts["wrong_true"] += 1
            wrong.append(cert)
    return {"digest": h.hexdigest(), "counts": counts, "wrong": wrong}


GOLDEN = "b01484f8ae4670c5952110e51383f02da0a43dc411e517e1fbd61c681db6663d"


def test_mutants_match_golden_digest():
    result = run(50000)
    assert result["counts"]["raised"] == 0
    assert result["wrong"] == []
    assert result["digest"] == GOLDEN


# The sha256 of the base certificates' JSON texts, joined by newlines, as
# certificate() wrote them before its one-pass rewrite: it may not drift by
# a byte.
BASES_DIGEST = "456ec6819b155112ae5bdc9bde190d93137ad23cca23d50a4c9a15d3f141bc48"


@functools.lru_cache(maxsize=1)
def _bases() -> tuple:
    return tuple(base_certificates())


def _rebuilt(value, mapping=dict, reverse=False):
    """value with each dict inside it rebuilt as a mapping, its keys reversed if reverse."""
    if isinstance(value, dict):
        items = [(key, _rebuilt(inner, mapping, reverse)) for key, inner in value.items()]
        return mapping(items[::-1] if reverse else items)
    if isinstance(value, list):
        return [_rebuilt(inner, mapping, reverse) for inner in value]
    return value


def test_base_certificates_match_golden_digest():
    assert hashlib.sha256("\n".join(_bases()).encode()).hexdigest() == BASES_DIGEST


def test_verifier_reads_ordered_dicts_and_any_key_order():
    for text in _bases():
        cert = json.loads(text)
        assert verify_certificate(cert) is True
        assert verify_certificate(_rebuilt(cert, collections.OrderedDict)) is True
        assert verify_certificate(_rebuilt(cert, reverse=True)) is True
    rng = random.Random(31)
    for _ in range(3000):
        cert = json.loads(rng.choice(_bases()))
        mutate(cert, rng)
        ok = verify_certificate(cert)
        assert verify_certificate(_rebuilt(cert, collections.OrderedDict)) is ok
        assert verify_certificate(_rebuilt(cert, reverse=True)) is ok


def test_bool_coefficients_are_refused():
    """A bool is no int in a divisor or remainder, though True == 1 and False == 0."""
    certs = [cert for cert in map(json.loads, _bases())
             if cert["mechanism"] and cert["mechanism"]["kind"] in ("binomial_witness",
                                                                   "pgpc_violation")]
    swapped = 0
    for cert in certs:
        claim = cert["mechanism"]
        for name in ("divisor", "remainder"):
            if name not in claim:
                continue
            bads = [[True]]
            # The same coefficients, each 0 or 1 among them as a bool.
            as_bools = [bool(c) if c in (0, 1) else c for c in claim[name]]
            if bool in map(type, as_bools):
                bads.append(as_bools)
                swapped += 1
            for bad in bads:
                assert verify_certificate({**cert, "mechanism": {**claim, name: bad}}) is False
    assert swapped >= 10


if __name__ == "__main__":
    result = run(int(sys.argv[1]) if len(sys.argv) > 1 else 50000)
    print(json.dumps(result["counts"]))
    print(result["digest"])
    for cert in result["wrong"]:
        print("wrong True:", json.dumps(cert))
    sys.exit(1 if result["counts"]["raised"] or result["wrong"] else 0)
