"""Command-line interface.

Commands:

* test N        decide one number (N may be an expression like 2^11 - 1)
* batch FILE    fold a decider over a dataset, streaming run-log rows
* poly M        print the divisor polynomials attached to a prime power
* find-m N      run the parameter search for n = 1 mod 24
* bench FILE    time each decider over a dataset

Exit codes: 0 prime, 1 composite, 2 not applicable or inconclusive,
3 runtime error, 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import time

from .algorithms import ALGORITHMS, Outcome, Verdict, certificate, enhanced_mr
from .canonical import (
    canonical_params,
    cyclotomic_prime_power,
    factor_prime_power,
    find_qnr_or_m,
)
from .harness import CSV_HEADER, load_dataset, run_batch

__all__ = ["main", "parse_int_expr"]

EXIT_PRIME = 0
EXIT_COMPOSITE = 1
EXIT_UNDECIDED = 2
EXIT_ERROR = 3
EXIT_USAGE = 64


class _UsageError(Exception):
    pass


_TOKEN_RE = re.compile(r"\s*(\d+|[()^*+-])")


def _tokenize(text: str) -> list[str]:
    tokens = []
    text = text.rstrip()
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise _UsageError(f"bad character in expression: {text[pos:]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


# Bound on the bit length of each power, product and sum in an expression;
# 2^1048576 fits.
_MAX_POWER_BITS = 1 << 21
# Decimal digits enough to print any n under that bound (log10(2) < 1/3).
_MAX_DIGITS = _MAX_POWER_BITS // 3 + 1
# Decimal digits of 2**_MAX_POWER_BITS; a literal with more is over the bound.
_MAX_LITERAL_DIGITS = int(_MAX_POWER_BITS * math.log10(2)) + 1

# Largest m `poly` builds. The divisor polynomials cost about 8-10x more each
# time m doubles: on one Xeon core about 4 s at the prime 4093, 40 s at 8191.
_MAX_POLY_M = 4096


def parse_int_expr(text: str) -> int:
    """Evaluate 'a^b - c' style integer expressions.

    Grammar: + and - (left associative) over * (left associative) over ^
    (right associative) over integers and parentheses. No unary minus.
    A literal over 2**21 bits, a power a^b with bits(a) * b over 2**21, a
    product a*b with bits(a) + bits(b) over 2**21 and a sum or difference
    whose wider operand has 2**21 bits are rejected; a literal with more
    digits than 2**(2**21) is refused before it is converted, and the
    others before they are computed.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise _UsageError("empty expression")
    pos = 0

    def peek() -> str | None:
        return tokens[pos] if pos < len(tokens) else None

    def take() -> str:
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    def bound(bits: int, what: str) -> None:
        if bits > _MAX_POWER_BITS:
            raise _UsageError(f"{what} too large: over {_MAX_POWER_BITS} bits")

    def atom() -> int:
        tok = peek()
        if tok is None:
            raise _UsageError("unexpected end of expression")
        if tok == "(":
            take()
            v = expr()
            if peek() != ")":
                raise _UsageError("missing ')'")
            take()
            return v
        if tok.isdigit():
            digits = take().lstrip("0") or "0"
            if len(digits) > _MAX_LITERAL_DIGITS:
                raise _UsageError(f"literal too large: over {_MAX_POWER_BITS} bits")
            v = int(digits, 10)
            bound(v.bit_length(), "literal")
            return v
        raise _UsageError(f"unexpected token {tok!r}")

    def power() -> int:
        base = atom()
        if peek() == "^":
            take()
            exponent = power()
            if exponent < 0 or exponent > 1 << 20:
                raise _UsageError("exponent out of range")
            bound(base.bit_length() * exponent, "power")
            return base**exponent
        return base

    def term() -> int:
        v = power()
        while peek() == "*":
            take()
            w = power()
            bound(v.bit_length() + w.bit_length(), "product")
            v *= w
        return v

    def expr() -> int:
        v = term()
        while peek() in ("+", "-"):
            op = take()
            w = term()
            bound(max(v.bit_length(), w.bit_length()) + 1, "sum")
            v = v + w if op == "+" else v - w
        return v

    value = expr()
    if pos != len(tokens):
        raise _UsageError(f"trailing tokens in expression: {tokens[pos:]!r}")
    return value


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 64."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="ppt", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_test = sub.add_parser("test", help="decide one number")
    p_test.add_argument("n", help="integer or expression such as 2^11-1")
    p_test.add_argument(
        "--algo", choices=("eqnr", "inr", "mr-hybrid"), default="eqnr"
    )
    p_test.add_argument("--mode", choices=("pgpc", "fgpc"), default="pgpc")
    p_test.add_argument("--json", action="store_true", dest="as_json")
    p_test.add_argument("--seed", type=int, default=0)
    p_test.add_argument("--max-iters", type=int, default=64)

    p_batch = sub.add_parser("batch", help="run a decider over a dataset file")
    p_batch.add_argument("file")
    p_batch.add_argument(
        "--algo", choices=("eqnr", "inr", "mr-hybrid"), default="eqnr"
    )
    p_batch.add_argument("--mode", choices=("pgpc", "fgpc"), default="pgpc")
    p_batch.add_argument("--print-every", type=int, default=0)
    p_batch.add_argument("--out", help="also write cumulative stats rows as CSV")
    p_batch.add_argument("--jobs", type=int, default=1)

    p_poly = sub.add_parser("poly", help="print divisor polynomials for m")
    p_poly.add_argument("m", type=int)

    p_findm = sub.add_parser("find-m", help="parameter search for n = 1 mod 24")
    p_findm.add_argument("n", help="integer or expression")

    p_bench = sub.add_parser("bench", help="time each decider over a dataset")
    p_bench.add_argument("file")
    p_bench.add_argument(
        "--algos",
        default="eqnr,inr_pgpc,inr_fgpc,enhanced_mr",
        help="comma-separated subset of " + ",".join(sorted(ALGORITHMS)),
    )
    return parser


def _algo_name(algo: str, mode: str) -> str:
    if algo == "eqnr":
        return "eqnr"
    if algo == "inr":
        return f"inr_{mode}"
    return "enhanced_mr"


def _describe(verdict: Verdict) -> str:
    if verdict.outcome is Outcome.PRIME:
        basis = verdict.prime_basis
        detail = "small prime" if basis is None else basis.describe()
        return f"{verdict.n}: Prime ({detail})"
    if verdict.outcome is Outcome.COMPOSITE:
        return f"{verdict.n}: Composite ({verdict.mechanism.describe()})"
    if verdict.outcome is Outcome.NOT_APPLICABLE:
        return f"{verdict.n}: Not applicable (the unit is neither prime nor composite)"
    its = verdict.qnr_search.iterations
    return f"{verdict.n}: Inconclusive after {its} random draws"


def _exit_code(verdict: Verdict) -> int:
    if verdict.outcome is Outcome.PRIME:
        return EXIT_PRIME
    if verdict.outcome is Outcome.COMPOSITE:
        return EXIT_COMPOSITE
    return EXIT_UNDECIDED


def _cmd_test(args) -> int:
    if args.max_iters < 1:
        raise _UsageError("--max-iters must be >= 1")
    n = parse_int_expr(args.n)
    if n < 1:
        raise _UsageError("n must be >= 1")
    algo = _algo_name(args.algo, args.mode)
    if algo == "enhanced_mr":
        verdict = enhanced_mr(n, max_random_iters=args.max_iters, rng_seed=args.seed)
    else:
        verdict = ALGORITHMS[algo](n)
    if args.as_json:
        print(json.dumps(certificate(verdict), indent=2))
    else:
        print(_describe(verdict))
    return _exit_code(verdict)


def _cmd_batch(args) -> int:
    if args.print_every < 0:
        raise _UsageError("--print-every must be >= 0")
    if args.jobs < 1:
        raise _UsageError("--jobs must be >= 1")
    dataset = load_dataset(args.file)
    algo = _algo_name(args.algo, args.mode)

    def emit(line: str) -> None:
        print(line, flush=True)

    stats, _rows = run_batch(
        dataset,
        algo=algo,
        print_every=args.print_every,
        emit=emit,
        jobs=args.jobs,
    )
    print(
        f"# total={stats.total} primes={stats.primes_found} "
        f"composites={stats.composites_found} inconclusive={stats.inconclusive} "
        f"errors={stats.errors} sum_q={stats.sum_of_q} q_cases={stats.q_cases} "
        f"argmax_n={stats.argmax_n}"
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(CSV_HEADER + "\n")
            fh.write(stats.csv_row() + "\n")
    return 0


def _cmd_poly(args) -> int:
    m = args.m
    if m > _MAX_POLY_M:
        raise _UsageError(f"m too large: over {_MAX_POLY_M}")
    try:
        factor_prime_power(m)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    params = canonical_params(m)
    print(f"Phi_{m}(x) = {cyclotomic_prime_power(m).pretty('x')}")
    print(f"Upsilon_{m}(t) = {params.upsilon.pretty('t')}")
    print(f"Psi_{m}(u) = {params.psi.pretty('u')}")
    return 0


def _cmd_find_m(args) -> int:
    n = parse_int_expr(args.n)
    if n < 2 or n % 24 != 1:
        raise _UsageError("find-m requires n > 1 with n mod 24 == 1")
    result = find_qnr_or_m(n)
    if result.divisor is not None:
        suffix = "perfect square root" if result.iterations == 0 else "divisor"
        print(f"divisor = {result.divisor} ({suffix}, {result.iterations} iterations)")
    elif result.qnr is not None:
        print(f"qnr = {result.qnr} ({result.iterations} iterations)")
    else:
        print(f"m = {result.m} ({result.iterations} iterations)")
    return 0


def _cmd_bench(args) -> int:
    names = [s.strip() for s in args.algos.split(",") if s.strip()]
    for name in names:
        if name not in ALGORITHMS:
            raise _UsageError(f"unknown algorithm {name!r}")
    if not names:
        raise _UsageError("no algorithms selected")
    dataset = load_dataset(args.file)
    print(f"{'algorithm':<12} {'cases':>8} {'seconds':>10}")
    for name in names:
        t0 = time.perf_counter()
        stats, _ = run_batch(dataset, algo=name)
        dt = time.perf_counter() - t0
        print(f"{name:<12} {stats.total:>8} {dt:>10.3f}")
    return 0


def main(argv: list[str] | None = None) -> int:
    # Lift Python's int-to-str limit (4300 digits) so every accepted n prints.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if 0 < limit < _MAX_DIGITS:
        sys.set_int_max_str_digits(_MAX_DIGITS)
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "test": _cmd_test,
        "batch": _cmd_batch,
        "poly": _cmd_poly,
        "find-m": _cmd_find_m,
        "bench": _cmd_bench,
    }
    try:
        return handlers[args.command](args)
    except _UsageError as exc:
        print(f"ppt: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"ppt: error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
