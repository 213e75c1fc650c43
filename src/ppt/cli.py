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
import math
import re
import sys
import time
from contextlib import contextmanager

from . import algorithms
from .algorithms import ALGORITHMS, Outcome, Verdict, certificate, enhanced_mr

__all__ = ["main", "parse_int_expr"]

EXIT_PRIME = 0
EXIT_COMPOSITE = 1
EXIT_UNDECIDED = 2
EXIT_ERROR = 3
EXIT_USAGE = 64


class _UsageError(Exception):
    pass


def _echo(value) -> str:
    """repr(value) cut to 60 characters, so a usage error is one short line."""
    text = repr(value)
    return text if len(text) <= 60 else text[:60] + "..."


# A token, or any other character (group 1 unset); with no trailing space,
# the matches tile the text.
_TOKEN_RE = re.compile(r"\s*(?:([0-9]+|[()^*+-])|\S)")


def _tokenize(text: str) -> list[str]:
    tokens = []
    text = text.rstrip()
    for m in _TOKEN_RE.finditer(text):
        if m.group(1) is None:
            raise _UsageError(f"bad character in expression: {_echo(text[m.start():])}")
        tokens.append(m.group(1))
    return tokens


# Bound on the bit length of each power, product and sum in an expression;
# 2^1048576 fits.
_MAX_POWER_BITS = 1 << 21
# Decimal digits enough to print any n under that bound (log10(2) < 1/3).
_MAX_DIGITS = _MAX_POWER_BITS // 3 + 1
# Decimal digits of 2**_MAX_POWER_BITS; a literal with more is over the bound.
_MAX_LITERAL_DIGITS = int(_MAX_POWER_BITS * math.log10(2)) + 1


def _limit_digits() -> str:
    """The decimal digits of 2**_MAX_POWER_BITS, exactly.

    decimal's products are subquadratic: this takes about 0.06 s, where
    int() of a literal that long takes about 3 s.
    """
    import decimal
    prec = _MAX_LITERAL_DIGITS
    ctx = decimal.Context(prec=prec, Emax=prec, traps=[decimal.Inexact])
    return str(ctx.power(2, _MAX_POWER_BITS))


@contextmanager
def _int_limit_lifted():
    """Lift Python's int-to-str limit (4300 digits) inside the block, so every
    accepted n converts and prints; restore it after, as it guards the caller
    against quadratic int/str."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    lifted = 0 < limit < _MAX_DIGITS
    if lifted:
        sys.set_int_max_str_digits(_MAX_DIGITS)
    try:
        yield
    finally:
        if lifted:
            sys.set_int_max_str_digits(limit)


# Largest m `poly` builds. The divisor polynomials cost about 8-10x more each
# time m doubles: on one Xeon core about 4 s at the prime 4093, 40 s at 8191.
_MAX_POLY_M = 4096


# Each binary operator: its binding power (^ alone is right associative), the
# name of its size bound, the bit length that bound checks, and the operation.
_OPERATORS = {
    "+": (1, "sum", lambda a, b: max(a.bit_length(), b.bit_length()) + 1, int.__add__),
    "-": (1, "sum", lambda a, b: max(a.bit_length(), b.bit_length()) + 1, int.__sub__),
    "*": (2, "product", lambda a, b: a.bit_length() + b.bit_length(), int.__mul__),
    "^": (3, "power", lambda a, b: a.bit_length() * b, pow),
}
# Parentheses plus chained ^ nested deeper than this are a usage error, refused
# before they can exhaust the interpreter's stack; no honest expression is near.
_MAX_DEPTH = 100


def parse_int_expr(text: str) -> int:
    """Evaluate 'a^b - c' style integer expressions.

    Grammar: + and - (left associative) over * (left associative) over ^
    (right associative) over integers and parentheses. No unary minus.
    A literal over 2**21 bits, a power a^b with bits(a) * b over 2**21, a
    product a*b with bits(a) + bits(b) over 2**21 and a sum or difference
    whose wider operand has 2**21 bits are rejected; a literal is refused
    from its digits before it is converted, and the others before they are
    computed. Each enclosing pair of parentheses and each enclosing ^ is
    one level of nesting; over 100 levels are rejected.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise _UsageError("empty expression")
    tokens.append("")  # end marker: no operator and no operand
    pos = 0

    def operand(depth: int) -> int:
        nonlocal pos
        if depth > _MAX_DEPTH:
            raise _UsageError(f"nesting too deep: over {_MAX_DEPTH} levels")
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            v = climb(1, depth + 1)
            if tokens[pos] != ")":
                raise _UsageError("missing ')'")
            pos += 1
            return v
        if tok.isdigit():
            digits = tok.lstrip("0") or "0"
            # At or over 2**_MAX_POWER_BITS, compared as digit strings.
            if len(digits) > _MAX_LITERAL_DIGITS or (
                len(digits) == _MAX_LITERAL_DIGITS
                and digits >= _limit_digits()
            ):
                raise _UsageError(f"literal too large: over {_MAX_POWER_BITS} bits")
            with _int_limit_lifted():
                return int(digits, 10)
        if not tok:
            raise _UsageError("unexpected end of expression")
        raise _UsageError(f"unexpected token {tok!r}")

    def climb(min_binding: int, depth: int) -> int:
        nonlocal pos
        v = operand(depth)
        while tokens[pos] in _OPERATORS:
            op = tokens[pos]
            binding, what, bits, compute = _OPERATORS[op]
            if binding < min_binding:
                break
            pos += 1
            if op == "^":
                w = climb(binding, depth + 1)
                if w < 0 or w > 1 << 20:
                    raise _UsageError("exponent out of range")
            else:
                w = climb(binding + 1, depth)
            if bits(v, w) > _MAX_POWER_BITS:
                raise _UsageError(f"{what} too large: over {_MAX_POWER_BITS} bits")
            v = compute(v, w)
        return v

    value = climb(1, 0)
    if tokens[pos]:
        raise _UsageError(f"trailing tokens in expression: {_echo(tokens[pos:-1])}")
    return value


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 64."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# The decider each --algo names, with --mode filled in.
_ALGO_NAMES = {"eqnr": "eqnr", "inr": "inr_{mode}", "mr-hybrid": "enhanced_mr"}


def _build_parser() -> _Parser:
    parser = _Parser(prog="ppt", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    decider = argparse.ArgumentParser(add_help=False)
    decider.add_argument("--algo", choices=tuple(_ALGO_NAMES), default="eqnr")
    decider.add_argument("--mode", choices=("pgpc", "fgpc"), default="pgpc")

    p_test = sub.add_parser("test", help="decide one number", parents=[decider])
    p_test.set_defaults(run=_cmd_test)
    p_test.add_argument("n", help="integer or expression such as 2^11-1")
    p_test.add_argument("--json", action="store_true", dest="as_json")
    p_test.add_argument("--seed", type=int, default=0)
    p_test.add_argument("--max-iters", type=int, default=64)

    p_batch = sub.add_parser(
        "batch", help="run a decider over a dataset file", parents=[decider]
    )
    p_batch.set_defaults(run=_cmd_batch)
    p_batch.add_argument("file")
    p_batch.add_argument("--print-every", type=int, default=0)
    p_batch.add_argument("--out", help="also write the final cumulative row as CSV")
    p_batch.add_argument("--jobs", type=int, default=1)

    p_poly = sub.add_parser("poly", help="print divisor polynomials for m")
    p_poly.set_defaults(run=_cmd_poly)
    p_poly.add_argument("m", type=int)

    p_findm = sub.add_parser("find-m", help="parameter search for n = 1 mod 24")
    p_findm.set_defaults(run=_cmd_find_m)
    p_findm.add_argument("n", help="integer or expression")

    p_bench = sub.add_parser("bench", help="time each decider over a dataset")
    p_bench.set_defaults(run=_cmd_bench)
    p_bench.add_argument("file")
    p_bench.add_argument(
        "--algos",
        default=",".join(ALGORITHMS),
        help="comma-separated subset of " + ",".join(sorted(ALGORITHMS)),
    )
    return parser


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


_EXIT_CODES = {Outcome.PRIME: EXIT_PRIME, Outcome.COMPOSITE: EXIT_COMPOSITE}


def _check_bits(n: int) -> None:
    """Refuse an n the deciders would refuse, as a usage error."""
    if n.bit_length() > (limit := algorithms.MAX_BITS):
        raise _UsageError(f"n has {n.bit_length()} bits, over the limit of {limit}")


def _cmd_test(args) -> int:
    if args.max_iters < 1:
        raise _UsageError("--max-iters must be >= 1")
    n = parse_int_expr(args.n)
    if n < 1:
        raise _UsageError("n must be >= 1")
    _check_bits(n)
    algo = _ALGO_NAMES[args.algo].format(mode=args.mode)
    if algo == "enhanced_mr":
        verdict = enhanced_mr(n, max_random_iters=args.max_iters, rng_seed=args.seed)
    else:
        verdict = ALGORITHMS[algo](n)
    if args.as_json:
        import json
        print(json.dumps(certificate(verdict), indent=2))
    else:
        print(_describe(verdict))
    return _EXIT_CODES.get(verdict.outcome, EXIT_UNDECIDED)


def _cmd_batch(args) -> int:
    if args.print_every < 0:
        raise _UsageError("--print-every must be >= 0")
    if args.jobs < 1:
        raise _UsageError("--jobs must be >= 1")
    from .harness import CSV_HEADER, load_dataset, run_batch
    numbers = load_dataset(args.file)
    for n in numbers:
        _check_bits(n)
    algo = _ALGO_NAMES[args.algo].format(mode=args.mode)
    stats = run_batch(numbers, algo=algo, print_every=args.print_every,
                      emit=lambda row: print(row, flush=True), jobs=args.jobs)
    count = stats.outcomes
    print(
        f"# total={count.total()} primes={count[Outcome.PRIME]} "
        f"composites={count[Outcome.COMPOSITE]} inconclusive={count[Outcome.INCONCLUSIVE]} "
        f"not_applicable={count[Outcome.NOT_APPLICABLE]} errors={stats.errors} "
        f"sum_q={stats.sum_of_q} q_cases={stats.q_cases} argmax_n={stats.argmax_n}"
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(CSV_HEADER + "\n")
            fh.write(stats.csv_row() + "\n")
    return 0


def _cmd_poly(args) -> int:
    # From the package, which loads the battery as one unit on first use.
    from . import canonical_params, cyclotomic_prime_power, factor_prime_power
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
    from . import find_qnr_or_m
    n = parse_int_expr(args.n)
    if n < 2 or n % 24 != 1:
        raise _UsageError("find-m requires n > 1 with n mod 24 == 1")
    _check_bits(n)
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
    from .harness import load_dataset, run_batch
    numbers = load_dataset(args.file)
    for n in numbers:
        _check_bits(n)
    print(f"{'algorithm':<12} {'cases':>8} {'seconds':>10}")
    for name in names:
        t0 = time.perf_counter()
        stats = run_batch(numbers, algo=name)
        dt = time.perf_counter() - t0
        print(f"{name:<12} {stats.outcomes.total():>8} {dt:>10.3f}")
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        with _int_limit_lifted():
            args = _build_parser().parse_args(argv)
            return args.run(args)
    except _UsageError as exc:
        print(f"ppt: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"ppt: error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
