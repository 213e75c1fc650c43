"""Primality deciders built on quadratic non-residues and binomial congruences.

Three deciders share one verdict model:

* ppta_eqnr: picks an explicit quadratic non-residue q (deterministically
  from n mod 8 when possible, otherwise by scanning small primes) and tests
  the Euler criterion followed by the binomial congruence in Z_n[sqrt(q)].
* ppta_inr: for n != 1 mod 24 the non-residue is deterministic; otherwise a
  parameter search yields a divisor, a non-residue, or a prime power m whose
  canonical divisor polynomials drive a four-condition (or single-condition)
  polynomial battery.
* enhanced_mr: randomized hybrid; random bases serve either as Miller-Rabin
  bases or, once one is a non-residue, as the q for the two checks above.

Composite verdicts carry a mechanism object and prime verdicts the basis
(explicit non-residue or parameter m) that certified them. Each re-verifies
from n and its own fields: a factor, square or root by arithmetic, and a
claim made at a q or an m by re-running the route that made it there
(_pbpc_tail or _battery) and comparing the result with the claim.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import MISSING, dataclass, field, fields
from enum import Enum
from typing import Any, Callable, get_args

from . import ntcore as nt
from .canonical import canonical_params, find_qnr_or_m
from .checks import _tail, fgpc_check, pgpc_check
from .ntcore import jacobi, miller_rabin_base
# Not called here; bound so that tracing tools can wrap them on this module.
from .checks import bcc, ecc  # noqa: F401
from .polyring import mbec_remainder, poly_powmod  # noqa: F401

__all__ = [
    "BinomialWitness",
    "Even",
    "EulerWitness",
    "FermatWitness",
    "JacobiZeroFactor",
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
    "mechanism_from_json",
    "miller_rabin_base",
    "ppta_eqnr",
    "ppta_inr",
    "verify_certificate",
]


class Outcome(Enum):
    PRIME = "prime"
    COMPOSITE = "composite"
    NOT_APPLICABLE = "not_applicable"
    INCONCLUSIVE = "inconclusive"


# --------------------------------------------------------------- mechanisms


def _tail_makes(claim: Mechanism | PrimeBasis, n: int) -> bool:
    """Whether the scalar tail at claim.q, a non-residue of n, makes claim."""
    return jacobi(claim.q, n) == -1 and _pbpc_tail(n, claim.q) == claim


def _battery_makes(claim: Mechanism | PrimeBasis, n: int, mode: str) -> bool:
    """Whether the battery makes claim at claim.m, the m find_qnr_or_m picks.

    The searched m fixes the divisors, and bounds the verifier's cost.
    """
    m = claim.m
    searched = n >= 25 and n % 24 == 1 and find_qnr_or_m(n).m == m
    return searched and _battery(n, m, mode) == claim


@dataclass(frozen=True)
class Even:
    """n is even and greater than 2."""

    kind = "even"

    def verify(self, n: int) -> bool:
        return n > 2 and n % 2 == 0

    def describe(self) -> str:
        return "even"


@dataclass(frozen=True)
class TrivialFactor:
    """A proper divisor found by direct residue screening."""

    p: int
    kind = "trivial_factor"

    def verify(self, n: int) -> bool:
        return 1 < self.p < n and n % self.p == 0

    def describe(self) -> str:
        return f"factor {self.p}"


@dataclass(frozen=True)
class PerfectSquare:
    """n = s**2 with s > 1."""

    s: int
    kind = "perfect_square"

    def verify(self, n: int) -> bool:
        return self.s > 1 and self.s * self.s == n

    def describe(self) -> str:
        return f"perfect square of {self.s}"


@dataclass(frozen=True)
class JacobiZeroFactor(TrivialFactor):
    """A probe shared a factor with n (vanishing Jacobi symbol)."""

    kind = "jacobi_zero_factor"

    def describe(self) -> str:
        return f"shared factor {self.p}"


@dataclass(frozen=True)
class EulerWitness:
    """Nonzero Euler-criterion defect at a non-residue q (made by _pbpc_tail)."""

    q: int
    ecc_value: int
    kind = "euler_witness"

    def verify(self, n: int) -> bool:
        return _tail_makes(self, n)

    def describe(self) -> str:
        return f"euler defect {self.ecc_value} at q={self.q}"


@dataclass(frozen=True)
class BinomialWitness:
    """Nonzero binomial-congruence defect.

    Scalar form (made by _pbpc_tail): (q, a, b) is the defect pair in
    Z_n[sqrt(q)]. Polynomial form (made by _battery in mode 'fgpc'):
    `divisor`, Psi_m mod n in ascending coefficients, leaves the nonzero
    `remainder`; `divisor_kind` names the canonical polynomial, always
    "psi", and `m` its parameter. A witness holds exactly the fields of one
    form.
    """

    q: int | None = None
    a: int | None = None
    b: int | None = None
    divisor_kind: str | None = None
    divisor: tuple[int, ...] | None = None
    remainder: tuple[int, ...] | None = None
    m: int | None = None
    kind = "binomial_witness"

    def __post_init__(self) -> None:
        scalar, poly = (self.q, self.a, self.b), (self.divisor, self.remainder, self.m)
        if not (None not in scalar and poly == (None,) * 3 and self.divisor_kind is None
                or scalar == (None,) * 3 and None not in poly and self.divisor_kind == "psi"):
            raise ValueError("a binomial witness holds the fields of one form")

    def verify(self, n: int) -> bool:
        if self.q is not None:
            return _tail_makes(self, n)
        return _battery_makes(self, n, "fgpc")

    def describe(self) -> str:
        if self.q is not None:
            return f"binomial defect ({self.a}, {self.b}) at q={self.q}"
        return f"binomial defect mod {self.divisor_kind} (m={self.m})"


@dataclass(frozen=True)
class MrNontrivialRoot:
    """A square root of 1 other than +-1, found while squaring base**odd."""

    base: int
    b: int
    kind = "mr_nontrivial_root"

    def verify(self, n: int) -> bool:
        r = self.b % n
        return r not in (1, n - 1) and r * r % n == 1

    def describe(self) -> str:
        return f"nontrivial root of unity {self.b} (base {self.base})"


@dataclass(frozen=True)
class FermatWitness:
    """a**(n-1) != 1 mod n, for a not divisible by n."""

    a: int
    kind = "fermat_witness"

    def verify(self, n: int) -> bool:
        return n >= 3 and self.a % n != 0 and pow(self.a, n - 1, n) != 1

    def describe(self) -> str:
        return f"fermat witness {self.a}"


@dataclass(frozen=True)
class PgpcViolation:
    """First failing condition of the four-condition polynomial battery.

    Made by _battery in mode 'pgpc'. `remainder` holds the offending
    residue (ascending coefficients mod n) and `expected` what a prime
    would have produced there: the empty tuple for the two binomial
    conditions, (1,) or the Jacobi constant for the power conditions.
    """

    m: int
    failed: str
    remainder: tuple[int, ...]
    expected: tuple[int, ...]
    kind = "pgpc_violation"

    def verify(self, n: int) -> bool:
        return _battery_makes(self, n, "pgpc")

    def describe(self) -> str:
        return f"polynomial battery failed {self.failed} at m={self.m}"


Mechanism = (
    Even | TrivialFactor | PerfectSquare | JacobiZeroFactor | EulerWitness
    | BinomialWitness | MrNontrivialRoot | FermatWitness | PgpcViolation
)

_MECHANISMS = {cls.kind: cls for cls in get_args(Mechanism)}


# ------------------------------------------------------------ verdict model


@dataclass(frozen=True)
class QnrSearch:
    """Search bookkeeping: whether a scan ran, how long, and the q used.

    q is the non-residue the verdict relied on (also set on the
    deterministic branches, where needed is False); it is 0 whenever the
    run ended without one (factor, square, or polynomial-battery paths).
    """

    needed: bool
    iterations: int
    q: int


@dataclass(frozen=True)
class PrimeBasis:
    """What certified a prime verdict.

    kind 'pbpc': explicit non-residue q passed both scalar checks.
    kind 'pgpc': parameter m passed the four-condition battery.
    kind 'fgpc': parameter m passed the single-condition battery.
    A basis holds its own parameter alone. Like a mechanism, it re-verifies
    by re-running the route that made it: _pbpc_tail, or _battery with the
    kind as its mode.
    """

    kind: str
    q: int | None = None
    m: int | None = None

    def __post_init__(self) -> None:
        own, other = (self.q, self.m) if self.kind == "pbpc" else (self.m, self.q)
        if self.kind not in _BASES or own is None or other is not None:
            raise ValueError(f"a {self.kind} basis: unknown kind, or not its parameter alone")

    def verify(self, n: int) -> bool:
        if self.kind == "pbpc":
            return _tail_makes(self, n)
        return _battery_makes(self, n, self.kind)

    def describe(self) -> str:
        if self.kind == "pbpc":
            return f"explicit non-residue q={self.q}"
        return f"{self.kind} at m={self.m}"


@dataclass(frozen=True)
class Verdict:
    n: int
    outcome: Outcome
    mechanism: Mechanism | None
    prime_basis: PrimeBasis | None
    qnr_search: QnrSearch
    timings: dict = field(compare=False, hash=False, default_factory=dict)


Decision = Mechanism | PrimeBasis | Outcome


def _verdict(n: int, t0: float, what: Decision, iters: int | None = None) -> Verdict:
    """The one place a Verdict is built, from what decided n.

    A mechanism makes n composite and a PrimeBasis prime; an Outcome stands
    alone. iters counts a search's probes, None where n's class fixed the
    route. The recorded q is the scalar non-residue `what` relied on, or 0;
    total_s is the time since t0.
    """
    if isinstance(what, Outcome):
        outcome, mech, basis = what, None, None
    elif isinstance(what, PrimeBasis):
        outcome, mech, basis = Outcome.PRIME, None, what
    else:
        outcome, mech, basis = Outcome.COMPOSITE, what, None
    search = QnrSearch(iters is not None, iters or 0, getattr(what, "q", None) or 0)
    timings = {"total_s": time.perf_counter() - t0}
    return Verdict(n, outcome, mech, basis, search, timings)


def _degenerate(n: int, *, prime_three: bool) -> Decision | None:
    """What decides n = 1, n = 2, optionally n = 3, and even n; else None."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return Outcome.NOT_APPLICABLE
    if n == 2 or (prime_three and n == 3):
        return Outcome.PRIME
    return None if n & 1 else Even()


# ---------------------------------------------------------------- qnr scans

_probe_primes: list[int] = [3]


def _probe_prime(i: int) -> int:
    """The i-th odd prime (1-based): 3, 5, 7, 11, ..."""
    while len(_probe_primes) < i:
        _probe_primes.append(nt.next_prime(_probe_primes[-1]))
    return _probe_primes[i - 1]


# The most odd primes find_qnr probes; below it, isqrt(n) bounds the scan.
_QNR_PROBE_CAP = 10**6


@dataclass(frozen=True)
class QnrProbe:
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
        p = _probe_prime(i)
        j = jacobi(p, n)
        if j != 1:
            return QnrProbe(j == 0, p, i)
    raise RuntimeError(
        f"find_qnr: no quadratic non-residue among the first {limit} odd primes"
    )


# ----------------------------------------------------------- shared closing


def _pbpc_tail(n: int, q: int) -> Mechanism | PrimeBasis:
    """Euler criterion then binomial congruence at q, where (q | n) = -1 is
    known: n's class fixes it, or the caller has just evaluated it."""
    q %= n
    euler, a, b = _tail(q, n, -1)
    if euler:
        return EulerWitness(q=q, ecc_value=euler)
    if a or b:
        return BinomialWitness(q=q, a=a, b=b)
    return PrimeBasis("pbpc", q=q)


def _battery(n: int, m: int, mode: str) -> Mechanism | PrimeBasis:
    """The battery at parameter m: four conditions (mode 'pgpc') or cond2 alone."""
    params = canonical_params(m)
    if mode == "pgpc":
        rep = pgpc_check(n, params)
        if not rep.all_hold:
            return PgpcViolation(m, rep.failed, rep.witness.coeffs, rep.expected)
    else:
        ok, rem = fgpc_check(n, params)
        if not ok:
            psi = params.psi.reduced(n).coeffs
            return BinomialWitness(divisor_kind="psi", divisor=psi, remainder=rem.coeffs, m=m)
    return PrimeBasis(mode, m=m)


def _class_qnr(n: int) -> int | None:
    """The non-residue n mod 8 fixes: 2 for 3, 5 mod 8, n - 2 for 7 mod 8."""
    r8 = n & 7
    if r8 == 3 or r8 == 5:
        return 2
    return n - 2 if r8 == 7 else None


def _no_search(n: int) -> Mechanism | PrimeBasis:
    """Odd n > 3 with n != 1 mod 24: 3 divides n, or a non-residue is known.

    Beyond the classes of _class_qnr, n = 17 mod 24 leaves q = 3, since
    (3 | n) = (n | 3) = (2 | 3) = -1.
    """
    if n % 3 == 0:
        return TrivialFactor(3)
    return _pbpc_tail(n, _class_qnr(n) or 3)


# ------------------------------------------------------------ the deciders


def ppta_eqnr(n: int) -> Verdict:
    """Decide n with an explicit quadratic non-residue.

    For n = 3, 5 mod 8 the non-residue is 2; for n = 7 mod 8 it is n - 2.
    Otherwise (n = 1 mod 8) a perfect-square screen runs and small primes
    are scanned; a vanishing Jacobi symbol along the way is a factor. The
    chosen q then passes through the Euler criterion and the binomial
    congruence; surviving both is decisive under the explicit-non-residue
    hypothesis.
    """
    t0 = time.perf_counter()
    what = _degenerate(n, prime_three=False)
    q = _class_qnr(n)
    if what is None and q is not None:
        what = _pbpc_tail(n, q)
    if what is None:
        s, exact = nt.isqrt(n)
        what = PerfectSquare(s) if exact else None
    if what is not None:
        return _verdict(n, t0, what)
    probe = find_qnr(n)
    what = JacobiZeroFactor(probe.p) if probe.found_factor else _pbpc_tail(n, probe.p)
    return _verdict(n, t0, what, probe.iterations)


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
    t0 = time.perf_counter()
    what = _degenerate(n, prime_three=True)
    if what is None and n % 24 != 1:
        what = _no_search(n)
    if what is not None:
        return _verdict(n, t0, what)
    fr = find_qnr_or_m(n)
    if fr.divisor is not None:
        d = fr.divisor
        what = PerfectSquare(d) if d * d == n else TrivialFactor(d)
    elif fr.qnr is not None:
        what = _pbpc_tail(n, fr.qnr)
    else:
        what = _battery(n, fr.m, mode)
    return _verdict(n, t0, what, fr.iterations)


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
    t0 = time.perf_counter()
    what = _degenerate(n, prime_three=True)
    if what is None and n % 24 != 1:
        what = _no_search(n)
    if what is None:
        s, exact = nt.isqrt(n)
        what = PerfectSquare(s) if exact else None
    if what is not None:
        return _verdict(n, t0, what)
    rng = random.Random(rng_seed)
    for i in range(1, max_random_iters + 1):
        a = rng.randint(5, n - 5)
        j = jacobi(a, n)
        if j == 0:
            return _verdict(n, t0, JacobiZeroFactor(math.gcd(a, n)), i)
        if j == -1:
            return _verdict(n, t0, _pbpc_tail(n, a), i)
        out = miller_rabin_base(n, a)
        if out.witness_kind == "nontrivial_root":
            return _verdict(n, t0, MrNontrivialRoot(base=a, b=out.value), i)
        if out.witness:
            return _verdict(n, t0, FermatWitness(a=a), i)
    return _verdict(n, t0, Outcome.INCONCLUSIVE, max_random_iters)


# ------------------------------------------------------------- certificates


def _claim_to_json(claim: Mechanism | PrimeBasis) -> dict[str, Any]:
    out: dict[str, Any] = {"kind": claim.kind}
    for name in claim.__dataclass_fields__:
        value = getattr(claim, name)
        if isinstance(value, tuple):
            value = list(value)
        if value is not None:
            out[name] = value
    return out


# Prime-basis kind -> claim class, as _MECHANISMS is for the mechanism slot
_BASES = dict.fromkeys(("pbpc", "pgpc", "fgpc"), PrimeBasis)

# class -> (name, annotation, required) for each field of that claim
_FIELDS = {
    cls: [(f.name, f.type, f.default is MISSING) for f in fields(cls)]
    for cls in (*_MECHANISMS.values(), PrimeBasis)
}
# class -> the keys its certificate entry may hold
_KEYS = {cls: {"kind", *(name for name, _, _ in spec)} for cls, spec in _FIELDS.items()}


def _fits(value: Any, annotation: str) -> bool:
    """Whether a JSON value fits a field annotated int, str, or tuple of ints."""
    if type(value) is int:
        return annotation.startswith("int")
    if value is None:
        return "None" in annotation
    if isinstance(value, (list, tuple)):
        return annotation.startswith("tuple") and all(type(c) is int for c in value)
    return isinstance(value, str) and annotation.startswith("str")


def _claim_from_json(data: Any, table: dict[str, type]) -> Any:
    """Rebuild the claim of class table[data["kind"]] from its certificate entry.

    Raises ValueError unless data is a dictionary whose kind is in table,
    every field is present (or has a default) with its annotated type (int,
    str or list of ints), no other key is present, and the claim's own
    checks pass.
    """
    kind = data.get("kind") if isinstance(data, dict) else None
    cls = table.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError("not a claim dictionary of a known kind")
    if not data.keys() <= _KEYS[cls]:
        raise ValueError(f"{kind} holds a field it does not define")
    kwargs = {}
    for name, annotation, required in _FIELDS[cls]:
        if name in data:
            value = data[name]
            if not _fits(value, annotation):
                raise ValueError(f"{kind}.{name} must be {annotation}")
            kwargs[name] = tuple(value) if isinstance(value, list) else value
        elif required:
            raise ValueError(f"{kind}.{name} is missing")
    return cls(**kwargs)


def mechanism_from_json(data: dict[str, Any]) -> Mechanism:
    """Rebuild a mechanism object from its certificate dictionary.

    Raises ValueError unless the kind is known, every field is present
    (or has a default) with its annotated type (int, str or list of ints),
    and the fields make one form of the claim.
    """
    return _claim_from_json(data, _MECHANISMS)


def certificate(verdict: Verdict) -> dict[str, Any]:
    """JSON-ready dictionary carrying every field a re-check needs."""
    mech, basis = verdict.mechanism, verdict.prime_basis
    return {
        "n": verdict.n,
        "outcome": verdict.outcome.value,
        "mechanism": None if mech is None else _claim_to_json(mech),
        "prime_basis": None if basis is None else _claim_to_json(basis),
        "qnr_search": {
            "needed": verdict.qnr_search.needed,
            "iterations": verdict.qnr_search.iterations,
            "q": verdict.qnr_search.q,
        },
        "timings": dict(verdict.timings),
    }


_SEARCH_KEYS = frozenset(("needed", "iterations", "q"))


def _records_fit(cert: dict, q: int) -> bool:
    """Whether the certificate's qnr_search and timings, where present, fit.

    qnr_search must hold exactly `needed` (bool), `iterations` (int >= 0)
    and `q`, the claim's scalar non-residue or 0 where it has none, as
    _verdict records it; timings must map str to finite numbers >= 0.
    """
    if "qnr_search" in cert:
        search = cert["qnr_search"]
        if not (
            isinstance(search, dict) and search.keys() == _SEARCH_KEYS
            and type(search["needed"]) is bool
            and type(search["iterations"]) is int and search["iterations"] >= 0
            and type(search["q"]) is int and search["q"] == q
        ):
            return False
    timings = cert.get("timings", {})
    if not isinstance(timings, dict):
        return False
    for key, value in timings.items():
        if not (isinstance(key, str) and type(value) in (int, float) and 0 <= value < math.inf):
            return False
    return True


def verify_certificate(cert: Any) -> bool:
    """Re-check a certificate from its own fields; never raises.

    Composite: the mechanism must re-verify against n. Prime: the recorded
    basis must re-verify (a degenerate small prime passes with no basis).
    Not-applicable requires n = 1; inconclusive makes no claim beyond
    consistency. The slot an outcome does not use must be None, and
    qnr_search and timings must fit (_records_fit). A malformed
    certificate, a non-int where an int belongs, or an n outside a
    check's domain reads False.
    """
    if not isinstance(cert, dict) or type(cert.get("n")) is not int or cert["n"] < 1:
        return False
    n, outcome = cert["n"], cert.get("outcome")
    mech, basis = cert.get("mechanism"), cert.get("prime_basis")
    try:
        if outcome == "composite":
            if basis is not None or mech is None:
                return False
            claim = mechanism_from_json(mech)
        elif outcome == "prime":
            if mech is not None:
                return False
            claim = None if basis is None else _claim_from_json(basis, _BASES)
        elif outcome in ("not_applicable", "inconclusive"):
            if mech is not None or basis is not None:
                return False
            claim = None
        else:
            return False
        if not _records_fit(cert, getattr(claim, "q", None) or 0):
            return False
        if claim is not None:
            return claim.verify(n)
    except (ValueError, RuntimeError):
        return False
    if outcome == "prime":
        return n in (2, 3)
    return outcome == "inconclusive" or n == 1


ALGORITHMS: dict[str, Callable[[int], Verdict]] = {
    "eqnr": ppta_eqnr,
    "inr_pgpc": lambda n: ppta_inr(n, "pgpc"),
    "inr_fgpc": lambda n: ppta_inr(n, "fgpc"),
    "enhanced_mr": enhanced_mr,
}
