"""Primality deciders built on quadratic non-residues and binomial congruences.

The three deciders are routes through one sequence, _decide: screen the
degenerate n, take the route n's class fixes, screen perfect squares, run
the decider's search step and build the Verdict. The steps:

* ppta_eqnr: scan small primes for a quadratic non-residue q (find_qnr),
  then test the Euler criterion followed by the binomial congruence in
  Z_n[sqrt(q)] (_pbpc_tail).
* ppta_inr: a parameter search (_search) yields a divisor, a non-residue,
  or a prime power m whose canonical divisor polynomials drive a
  four-condition (or single-condition) polynomial battery.
* enhanced_mr: random bases serve either as Miller-Rabin bases or, once
  one is a non-residue, as the q for the two checks above.

Composite verdicts carry a mechanism and prime verdicts the basis (explicit
non-residue or parameter m) that certified them. Both are claims, and one
table, _CLAIMS, describes every claim kind: its class, its certificate
slot, and the forms it takes, each with its fields and their JSON types,
its check and its description. The claim classes and the certificate
codec are built from that table. A claim re-verifies from n and its own
fields: a factor or square by arithmetic, and a root, or a claim made at
a q or an m, by re-running the route that made it there (the Miller-Rabin
round, _pbpc_tail, or ppta_inr's step _search) and comparing the result
with the claim.

The scalar routes need ppt.ntcore only. The polynomial battery, ppt.checks
with ppt.canonical and ppt.polyring, is imported the first time ppta_inr
meets n = 1 mod 24, a certificate's claim is checked at an m, or one of
its names is read from this module (_load_battery).
"""

from __future__ import annotations

import math
import random
import time
from collections import namedtuple
from enum import Enum
from typing import Any, Callable, NamedTuple

from . import ntcore as nt
from .ntcore import _tail, jacobi, miller_rabin_base

__all__ = [
    "ALGORITHMS",
    "BinomialWitness",
    "Even",
    "EulerWitness",
    "FermatWitness",
    "JacobiZeroFactor",
    "MAX_BITS",
    "MrNontrivialRoot",
    "Outcome",
    "PerfectSquare",
    "PgpcViolation",
    "PrimeBasis",
    "QnrProbe",
    "QnrSearch",
    "TrivialFactor",
    "Verdict",
    "certificate",
    "enhanced_mr",
    "find_qnr",
    "ppta_eqnr",
    "ppta_inr",
    "verify_certificate",
]


# The polynomial battery's names, by module: each battery module's __all__,
# which ppt resolves through this table. _load_battery binds them all here
# on first use, so that importing ppt, and every scalar decision or
# certificate, does not compile the battery; bcc, ecc, mbec_remainder and
# poly_powmod, not called here, are bound so that tracing tools can wrap them.
_BATTERY = {
    "canonical": ("CanonicalParams", "FindResult", "canonical_params", "cyclotomic_prime_power",
                  "factor_prime_power", "find_qnr_or_m", "psi_of", "upsilon_of"),
    "checks": ("PgpcReport", "bcc", "ecc", "fgpc_check", "pgpc_check", "pgpc_condition"),
    "polyring": ("Poly", "QuotientRing", "mbec_remainder", "poly_powmod"),
}
_battery_loaded = False


def _load_battery() -> None:
    """Import ppt.checks, which imports ppt.canonical and ppt.polyring, and
    bind each name of _BATTERY that is not bound here yet, so that a name a
    tracing tool has rebound keeps its binding."""
    global _battery_loaded
    from . import canonical, checks, polyring

    modules = {"canonical": canonical, "checks": checks, "polyring": polyring}
    for module, names in _BATTERY.items():
        for name in names:
            globals().setdefault(name, getattr(modules[module], name))
    _battery_loaded = True


def __getattr__(name: str) -> Any:
    """A battery name read from this module loads the battery (PEP 562)."""
    if any(name in names for names in _BATTERY.values()):
        _load_battery()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class Outcome(Enum):
    PRIME = "prime"
    COMPOSITE = "composite"
    NOT_APPLICABLE = "not_applicable"
    INCONCLUSIVE = "inconclusive"


# ------------------------------------------------------------------ claims


def _tail_makes(claim: _Claim, n: int) -> bool:
    """Whether the scalar tail at claim.q, a non-residue of n, makes claim."""
    return jacobi(claim.q, n) == -1 and _pbpc_tail(n, claim.q) == claim


def _proper_factor(claim: _Claim, n: int) -> bool:
    return 1 < claim.p < n and n % claim.p == 0


class _Form(NamedTuple):
    """One form of a claim kind.

    fields maps each field the form holds to its JSON type: int, str, or
    list (of ints, held as a tuple). verify(n) runs check(claim, n), and
    describe() fills text from the fields.
    """

    fields: dict[str, type]
    check: Callable[[Any, int], bool]
    text: str


# kind -> (claim class, certificate slot, *forms). A claim holds the fields
# of one form of its kind; the other fields of its class read None.
_CLAIMS: dict[str, tuple] = {
    "even": ("Even", "mechanism", _Form({}, lambda c, n: n > 2 and n % 2 == 0, "even")),
    "trivial_factor": ("TrivialFactor", "mechanism",
                       _Form({"p": int}, _proper_factor, "factor {p}")),
    "perfect_square": ("PerfectSquare", "mechanism",
                       _Form({"s": int}, lambda c, n: 1 < c.s < n and c.s * c.s == n,
                             "perfect square of {s}")),
    "jacobi_zero_factor": ("JacobiZeroFactor", "mechanism",
                           _Form({"p": int}, _proper_factor, "shared factor {p}")),
    "euler_witness": ("EulerWitness", "mechanism",
                      _Form({"q": int, "ecc_value": int}, _tail_makes,
                            "euler defect {ecc_value} at q={q}")),
    "binomial_witness": (
        "BinomialWitness", "mechanism",
        _Form({"q": int, "a": int, "b": int}, _tail_makes,
              "binomial defect ({a}, {b}) at q={q}"),
        _Form({"divisor_kind": str, "divisor": list, "remainder": list, "m": int},
              lambda c, n: _search(n, "fgpc")[0] == c,
              "binomial defect mod {divisor_kind} (m={m})"),
    ),
    "mr_nontrivial_root": ("MrNontrivialRoot", "mechanism",
                           _Form({"base": int, "b": int},
                                 lambda c, n: 1 < c.base < n - 1 and miller_rabin_base(
                                     n, c.base)[1:] == ("nontrivial_root", c.b),
                                 "nontrivial root of unity {b} (base {base})")),
    "fermat_witness": ("FermatWitness", "mechanism",
                       _Form({"a": int},
                             lambda c, n: n >= 3 and c.a % n != 0 and pow(c.a, n - 1, n) != 1,
                             "fermat witness {a}")),
    "pgpc_violation": ("PgpcViolation", "mechanism",
                       _Form({"m": int, "failed": str, "remainder": list, "expected": list},
                             lambda c, n: _search(n, "pgpc")[0] == c,
                             "polynomial battery failed {failed} at m={m}")),
    "pbpc": ("PrimeBasis", "prime_basis",
             _Form({"q": int}, _tail_makes, "explicit non-residue q={q}")),
    "pgpc": ("PrimeBasis", "prime_basis",
             _Form({"m": int}, lambda c, n: _search(n, "pgpc")[0] == c, "pgpc at m={m}")),
    "fgpc": ("PrimeBasis", "prime_basis",
             _Form({"m": int}, lambda c, n: _search(n, "fgpc")[0] == c, "fgpc at m={m}")),
}


class _Claim(tuple):
    """A claim is the tuple (kind, *fields), so == and hash include the kind.

    Each claim class also derives from the namedtuple of those names, which
    reads them by name; the fields outside the claim's form read None.
    """

    __slots__ = ()
    _kinds: list[str]
    _form: Callable[[_Claim], _Form]  # the claim's own form

    def verify(self, n: int) -> bool:
        return self._form().check(self, n)

    def describe(self) -> str:
        return self._form().text.format(**self._asdict())

    def __getnewargs__(self) -> tuple:
        return tuple(self) if len(self._kinds) > 1 else self[1:]


# The compiled members of a claim class. The constructor refuses a kind not
# of the class, or values whose set fields are not one form of the kind.
_CLASS_SOURCE = """
def __new__(cls{params}):
    if ({kind}, ({given})) not in forms:
        raise ValueError("not the fields of one form of " + repr({kind}))
    return new(cls, ({kind}, {values}))

def _form(self):
    return forms[self[0], ({held})]
"""


def _claim_class(name: str, doc: str) -> type:
    """The class of the kinds that _CLAIMS gives to name.

    Its fields are those of the kinds' forms, in table order, after the
    kind. Its constructor takes them by position or name, after the kind
    where the class has several kinds, and each defaults to None. Like
    namedtuple, it compiles that constructor, and _form, from the field
    names (_CLASS_SOURCE).
    """
    kinds = [kind for kind, (cls, *_) in _CLAIMS.items() if cls == name]
    pairs = [(kind, form) for kind in kinds for form in _CLAIMS[kind][2:]]
    fields = tuple(dict.fromkeys(f for _, form in pairs for f in form.fields))
    forms = {(k, tuple(f in form.fields for f in fields)): form for k, form in pairs}
    several = len(kinds) > 1
    namespace = {"forms": forms, "new": tuple.__new__}
    exec(_CLASS_SOURCE.format(
        params="".join([", kind"] * several + [f", {f}=None" for f in fields]),
        kind="kind" if several else repr(kinds[0]),
        given="".join(f"{f} is not None, " for f in fields),
        values="".join(f"{f}, " for f in fields),
        held="".join(f"self[{i}] is not None, " for i in range(1, len(fields) + 1)),
    ), namespace)
    return type(name, (_Claim, namedtuple(name, ("kind", *fields))), {
        "__doc__": doc, "__module__": __name__, "__slots__": (),
        "__new__": namespace["__new__"], "_form": namespace["_form"], "_kinds": kinds,
    })


Even = _claim_class("Even", "n is even and greater than 2.")
TrivialFactor = _claim_class(
    "TrivialFactor", "A proper divisor p found by direct residue screening.")
PerfectSquare = _claim_class("PerfectSquare", "n = s**2 with s > 1.")
JacobiZeroFactor = _claim_class(
    "JacobiZeroFactor", "A probe shared a factor p with n (vanishing Jacobi symbol).")
EulerWitness = _claim_class(
    "EulerWitness", "Nonzero Euler-criterion defect at a non-residue q (made by _pbpc_tail).")
BinomialWitness = _claim_class("BinomialWitness", """Nonzero binomial-congruence defect.

    Scalar form (made by _pbpc_tail): (q, a, b) is the defect pair in
    Z_n[sqrt(q)]. Polynomial form (made by _search in mode 'fgpc'):
    `divisor`, Psi_m mod n in ascending coefficients, leaves the nonzero
    `remainder`; `divisor_kind` names the canonical polynomial, always
    "psi", and `m` its parameter.
    """)
MrNontrivialRoot = _claim_class(
    "MrNontrivialRoot", "A square root b of 1, not +-1, met in a Miller-Rabin round at base.")
FermatWitness = _claim_class("FermatWitness", "a**(n-1) != 1 mod n, for a not divisible by n.")
PgpcViolation = _claim_class(
    "PgpcViolation", """First failing condition of the four-condition polynomial battery.

    Made by _search in mode 'pgpc'. `remainder` holds the offending
    residue (ascending coefficients mod n) and `expected` what a prime
    would have produced there: the empty tuple for the two binomial
    conditions, (1,) or the Jacobi constant for the power conditions.
    """)
PrimeBasis = _claim_class("PrimeBasis", """What certified a prime verdict.

    kind 'pbpc': explicit non-residue q passed both scalar checks (made by
    _pbpc_tail). kind 'pgpc' or 'fgpc': parameter m passed the battery in
    that mode, four conditions or the single one (made by _search).
    """)

# kind -> per form: (its entry's keys, slot, class, form, the claim's values with
# the form's fields unset, and (position, field, JSON type) per field), for _decode.
_DECODE = {kind: [(frozenset(("kind", *form.fields)), slot, cls, form,
                   (kind,) + (None,) * (len(cls._fields) - 1),
                   [(cls._fields.index(f), f, t) for f, t in form.fields.items()])
                  for form in forms]
           for kind, (name, slot, *forms) in _CLAIMS.items() for cls in [globals()[name]]}


# ------------------------------------------------------------ verdict model


class QnrSearch(NamedTuple):
    """Search bookkeeping: whether a scan ran, how long, and the q used.

    q is the non-residue the verdict relied on (also set on the
    deterministic branches, where needed is False); it is 0 whenever the
    run ended without one (factor, square, or polynomial-battery paths).
    """

    needed: bool
    iterations: int
    q: int


class Verdict(NamedTuple):
    """What decided n, and how long it took; == and hash ignore timings."""

    n: int
    outcome: Outcome
    mechanism: _Claim | None
    prime_basis: _Claim | None
    qnr_search: QnrSearch
    timings: dict

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Verdict) and self[:5] == other[:5]

    def __ne__(self, other: object) -> bool:  # tuple's own != would compare timings
        return not self == other

    def __hash__(self) -> int:
        return hash(self[:5])


# The outcome a claim makes, by the certificate slot _CLAIMS gives its kind.
_SLOT_OUTCOME = {"mechanism": Outcome.COMPOSITE, "prime_basis": Outcome.PRIME}
# kind -> (the outcome its claims make, their slot), read by _decide.
_KIND_VERDICT = {kind: (_SLOT_OUTCOME[slot], slot) for kind, (_, slot, *_) in _CLAIMS.items()}
_new = tuple.__new__
_CERT_KEYS = frozenset(("n", "outcome", "mechanism", "prime_basis", "qnr_search", "timings"))


# The widest n, in bits, that a decider decides and verify_certificate reads,
# looked up at each call. A decision costs a few Fermat tests, and one
# pow(2, n - 1, n) takes 0.19 s at 4,423 bits and 8.4 s at 16,384 on a
# 2.1 GHz Xeon. The widest input pinned by a test, the CLI's 2^20000 (even),
# fits; a 10**6-bit n is refused before any arithmetic.
MAX_BITS = 1 << 15


def _degenerate(n: int, prime_three: bool) -> _Claim | Outcome | None:
    """What decides n = 1, n = 2, optionally n = 3, and even n; else None.

    The deciders' one domain check: raises ValueError for n < 1 and for n
    wider than MAX_BITS.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n.bit_length() > MAX_BITS:
        raise ValueError(f"n has {n.bit_length()} bits, over the limit of {MAX_BITS}")
    if n == 1:
        return Outcome.NOT_APPLICABLE
    if n == 2 or (prime_three and n == 3):
        return Outcome.PRIME
    return None if n & 1 else Even()


# ---------------------------------------------------------------- qnr scans

# The most odd primes find_qnr probes; below it, math.isqrt(n) bounds the scan.
_QNR_PROBE_CAP = 10**6


class QnrProbe(NamedTuple):
    """find_qnr outcome: whether probe p divides n, p, and the probe count."""

    found_factor: bool
    p: int
    iterations: int


def find_qnr(n: int) -> QnrProbe:
    """Scan odd primes 3, 5, 7, ... for a quadratic non-residue of n.

    Stops at the first prime p with (p | n) = -1 (found_factor False), or
    at a probe p that divides n first (found_factor True). It probes at
    most min(floor(sqrt(n)), 10**6) primes and raises RuntimeError past
    them.
    """
    if n < 3 or not n & 1:
        raise ValueError("find_qnr: n must be odd and >= 3")
    limit = min(math.isqrt(n), _QNR_PROBE_CAP)
    for i in range(1, limit + 1):
        p = nt._prime(i)
        j = jacobi(p, n)
        if j != 1:
            return QnrProbe(j == 0, p, i)
    raise RuntimeError(
        f"find_qnr: no quadratic non-residue among the first {limit} odd primes"
    )


# ---------------------------------------------------------------- the driver


def _pbpc_tail(n: int, q: int) -> _Claim:
    """Euler criterion then binomial congruence at q, where (q | n) = -1 is
    known: n's class fixes it, or the caller has just evaluated it."""
    q %= n
    euler, a, b = _tail(q, n, -1)
    if euler:  # each class's first fields: (q, ecc_value), (q, a, b), (kind, q)
        return EulerWitness(q, euler)
    if a or b:
        return BinomialWitness(q, a, b)
    return PrimeBasis("pbpc", q)


def _decide(n: int, search: Callable[..., tuple], args: tuple = (), eqnr: bool = False,
            square: bool = True) -> Verdict:
    """The sequence every decider runs; search(n, *args) is the decider's own step.

    _degenerate screens n (3 is prime there unless eqnr). With eqnr, n mod 8
    may fix the non-residue: 2 at 3, 5 mod 8, n - 2 at 7 mod 8. Without it,
    n != 1 mod 24 is fixed: by the factor 3, by that non-residue, or at 17
    mod 24 by 3, as (3 | n) = (n | 3) = (2 | 3) = -1. A perfect square is
    next, if square. Else search(n, *args) gives the claim or Outcome that
    decided n and its probe count. The one Verdict is built here: a claim
    takes its slot and outcome from _KIND_VERDICT, and qnr_search records
    whether search ran and q, the claim's non-residue or 0 (tuple.__new__
    builds both).
    """
    t0 = time.perf_counter()
    what = _degenerate(n, not eqnr)
    iters = None
    if what is None and (eqnr or n % 24 != 1):
        r8 = n & 7
        q = 2 if r8 == 3 or r8 == 5 else n - 2 if r8 == 7 else 0 if eqnr else 3
        if not eqnr and n % 3 == 0:
            what = TrivialFactor(3)
        elif q:
            what = _pbpc_tail(n, q)
    if what is None and square and (s := math.isqrt(n)) * s == n:
        what = PerfectSquare(s)
    if what is None:
        what, iters = search(n, *args)
    timings = {"total_s": time.perf_counter() - t0}
    record = _new(QnrSearch, (iters is not None, iters or 0, getattr(what, "q", None) or 0))
    if type(what) is Outcome:
        return _new(Verdict, (n, what, None, None, record, timings))
    outcome, slot = _KIND_VERDICT[what[0]]
    if slot == "mechanism":
        return _new(Verdict, (n, outcome, what, None, record, timings))
    return _new(Verdict, (n, outcome, None, what, record, timings))


# ------------------------------------------------------------ the deciders


def _scan(n: int) -> tuple[_Claim, int]:
    """ppta_eqnr's step: find_qnr's factor, or the scalar tail at its non-residue."""
    probe = find_qnr(n)
    what = JacobiZeroFactor(probe.p) if probe.found_factor else _pbpc_tail(n, probe.p)
    return what, probe.iterations


def ppta_eqnr(n: int) -> Verdict:
    """Decide n with an explicit quadratic non-residue.

    For n = 3, 5 mod 8 the non-residue is 2; for n = 7 mod 8 it is n - 2.
    Otherwise (n = 1 mod 8) a perfect-square screen runs and small primes
    are scanned; a vanishing Jacobi symbol along the way is a factor. The
    chosen q then passes through the Euler criterion and the binomial
    congruence; surviving both is decisive under the explicit-non-residue
    hypothesis.
    """
    return _decide(n, _scan, (), True)


def _search(n: int, mode: str) -> tuple[_Claim, int]:
    """ppta_inr's step at n = 1 mod 24, which the verifier re-runs.

    find_qnr_or_m gives a square root or divisor of n, a non-residue, for
    the scalar tail, or m, for the battery: its four conditions (mode
    'pgpc') or cond2 alone. Raises ValueError at any other n.
    """
    if not _battery_loaded:
        _load_battery()
    fr = find_qnr_or_m(n)
    m = fr.m
    if (d := fr.divisor) is not None:
        what = PerfectSquare(d) if d * d == n else TrivialFactor(d)
    elif m is None:
        what = _pbpc_tail(n, fr.qnr)
    elif mode == "pgpc":
        rep = pgpc_check(n, canonical_params(m))
        what = PrimeBasis(mode, m=m) if rep.all_hold else PgpcViolation(
            m, rep.failed, rep.witness.coeffs, rep.expected)
    else:
        params = canonical_params(m)
        ok, rem = fgpc_check(n, params)
        what = PrimeBasis(mode, m=m) if ok else BinomialWitness(
            divisor_kind="psi", divisor=params.psi.reduced(n).coeffs, remainder=rem.coeffs, m=m)
    return what, fr.iterations


def ppta_inr(n: int, mode: str = "pgpc") -> Verdict:
    """Decide n without scanning for a non-residue.

    For n != 1 mod 24 a non-residue is available deterministically (2,
    n - 2, or 3 according to n mod 8). For n = 1 mod 24 the parameter
    search either factors n, still finds a small non-residue, or produces
    the prime power m whose canonical divisor polynomials drive the
    four-condition battery (mode 'pgpc') or its single-condition variant
    (mode 'fgpc').
    """
    if mode not in ("pgpc", "fgpc"):
        raise ValueError("ppta_inr: mode must be 'pgpc' or 'fgpc'")
    return _decide(n, _search, (mode,), False, False)


def _draws(n: int, max_random_iters: int, rng_seed: int) -> tuple[_Claim | Outcome, int]:
    """enhanced_mr's step: seeded random bases, until one decides n."""
    rng = random.Random(rng_seed)
    for i in range(1, max_random_iters + 1):
        a = rng.randint(5, n - 5)
        j = jacobi(a, n)
        if j == 0:
            return JacobiZeroFactor(math.gcd(a, n)), i
        if j == -1:
            return _pbpc_tail(n, a), i
        out = miller_rabin_base(n, a)
        if out.witness_kind == "nontrivial_root":
            return MrNontrivialRoot(a, out.value), i
        if out.witness:
            return FermatWitness(a), i
    return Outcome.INCONCLUSIVE, max_random_iters


def enhanced_mr(n: int, max_random_iters: int = 64, rng_seed: int = 0) -> Verdict:
    """Randomized hybrid of Miller-Rabin rounds and the two scalar checks.

    For n != 1 mod 24 this is ppta_inr's deterministic branch. Otherwise
    random bases a in [5, n-5] are drawn: a vanishing Jacobi symbol yields
    a factor, a residue serves as a Miller-Rabin base, and the first
    non-residue becomes the q for the Euler and binomial checks. If every
    draw is a surviving residue the verdict is INCONCLUSIVE.
    """
    if max_random_iters < 1:
        raise ValueError("enhanced_mr: max_random_iters must be >= 1")
    return _decide(n, _draws, (max_random_iters, rng_seed))


# ------------------------------------------------------------- certificates


def _claim_to_json(claim: _Claim) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for name, value in zip(claim._fields, claim):
        if value is not None:
            out[name] = list(value) if isinstance(value, tuple) else value
    return out


def _decode(data: Any, slot: str) -> tuple[_Claim, _Form]:
    """The claim in certificate slot `slot` rebuilt from its entry there, and its form.

    Raises ValueError unless data is a dictionary whose kind _CLAIMS gives
    to slot, and whose other keys are exactly the fields of one form of
    that kind, each of its JSON type: int, str, or list of ints (null fits
    none of them). Each field is read once, into its place in the claim.
    """
    kind = data.get("kind") if isinstance(data, dict) else None
    forms = _DECODE.get(kind, ()) if isinstance(kind, str) else ()
    for keys, held_in, cls, form, unset, plan in forms:
        if held_in == slot and data.keys() == keys:
            break
    else:
        raise ValueError(f"not a {slot} holding the fields of one form of a known kind")
    values = list(unset)
    for i, name, json_type in plan:
        value = data[name]
        if json_type is list and isinstance(value, (list, tuple)) and all(
                type(c) is int for c in value):
            value = tuple(value)
        elif json_type is list or type(value) is not json_type:
            raise ValueError(f"{kind}.{name} must be {json_type.__name__}")
        values[i] = value
    return _new(cls, values), form


def certificate(verdict: Verdict) -> dict[str, Any]:
    """JSON-ready dictionary of every field a re-check needs, from one unpacking of the verdict."""
    n, outcome, mech, basis, (needed, iterations, q), timings = verdict
    return {
        "n": n,
        "outcome": outcome._value_,  # .value, without the property's cost
        "mechanism": None if mech is None else _claim_to_json(mech),
        "prime_basis": None if basis is None else _claim_to_json(basis),
        "qnr_search": {"needed": needed, "iterations": iterations, "q": q},
        "timings": dict(timings),
    }


def _records_fit(cert: dict, q: int) -> bool:
    """Whether the certificate's qnr_search and timings fit; either may be absent.

    qnr_search must hold exactly `needed` (bool), `iterations` (int >= 0,
    and 0 where needed is false) and `q`, the claim's scalar non-residue or
    0 where it has none, as _decide records it; timings must map str to
    finite numbers >= 0.
    """
    timings = cert.get("timings", {})
    if not isinstance(timings, dict):
        return False
    if "qnr_search" in cert:
        search = cert["qnr_search"]
        if not isinstance(search, dict) or len(search) != 3:
            return False
        # Three keys, and a value of its type under each of these three: no other key.
        needed, iterations, held = search.get("needed"), search.get("iterations"), search.get("q")
        if not (type(needed) is bool and type(iterations) is int and iterations >= 0
                and (needed or iterations == 0) and type(held) is int and held == q):
            return False
    for key, value in timings.items():  # a loop: all() over a generator costs more here
        if not (isinstance(key, str) and type(value) in (int, float) and 0 <= value < math.inf):
            return False
    return True


def verify_certificate(cert: Any) -> bool:
    """Re-check a certificate from its own fields; never raises.

    No key but the six certificate() writes may appear (_CERT_KEYS), and at
    most one slot may hold a claim. A claim must have its slot's outcome
    (_SLOT_OUTCOME) and re-verify against n by the check of the form _decode
    found for it. With no claim, the outcome must be inconclusive, which
    claims nothing, or the Outcome _degenerate gives n: not_applicable at
    1, prime at 2 and 3. qnr_search and timings must fit (_records_fit). A
    malformed certificate, a non-int where an int belongs, or an n outside
    a check's domain reads False, and so does an n wider than MAX_BITS,
    before any arithmetic.
    """
    if (not isinstance(cert, dict) or not cert.keys() <= _CERT_KEYS
            or type(n := cert.get("n")) is not int or n < 1 or n.bit_length() > MAX_BITS):
        return False
    outcome, mech, basis = cert.get("outcome"), cert.get("mechanism"), cert.get("prime_basis")
    # An Outcome's _value_ is its .value, read without the property's cost.
    if mech is None and basis is None:
        made = _degenerate(n, prime_three=True)
        fits = outcome == "inconclusive" or isinstance(made, Outcome) and outcome == made._value_
        return fits and _records_fit(cert, 0)
    slot, entry = ("mechanism", mech) if basis is None else ("prime_basis", basis)
    if (mech is not None and basis is not None) or outcome != _SLOT_OUTCOME[slot]._value_:
        return False
    try:
        claim, form = _decode(entry, slot)
        return _records_fit(cert, getattr(claim, "q", None) or 0) and form.check(claim, n)
    except (ValueError, RuntimeError):
        return False


ALGORITHMS: dict[str, Callable[[int], Verdict]] = {
    "eqnr": ppta_eqnr,
    "inr_pgpc": lambda n: ppta_inr(n, "pgpc"),
    "inr_fgpc": lambda n: ppta_inr(n, "fgpc"),
    "enhanced_mr": enhanced_mr,
}
