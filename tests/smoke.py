"""A smoke check of ppt that needs no test framework.

    python tests/smoke.py

It imports only the standard library, ppt (from the checkout's src/) and
tests/reference.py, so it runs under any supported interpreter, pytest or
not. It checks:

* for every 1 <= n < 20,000, that each decider of ALGORITHMS and
  enhanced_mr(n, 1) make a certificate that survives a JSON round trip,
  verifies, and has the outcome the sieve prime_flags gives n (the one-draw
  enhanced_mr may also be inconclusive);
* that each of those deciders decides 2^521 - 1 (prime; q = n - 2 is an
  explicit non-residue) and 2^523 - 1 (composite; an Euler liar at
  q = n - 2, so its witness is the binomial defect) and makes a
  certificate that survives a JSON round trip and verifies; both are
  wide enough that the scalar ladder takes its squares-form loop;
* that `ppt batch` prints the same lines with --jobs 1 and --jobs 2;
* the CLI's exit codes, output and certificates on the numbers of CI's
  battery step, and its usage errors on an over-deep and an over-long
  expression.

It prints one line per check and exits 1 if any fails.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from ppt.algorithms import ALGORITHMS, certificate, enhanced_mr, verify_certificate  # noqa: E402
from ppt.cli import main  # noqa: E402
from ppt.ntcore import _SQUARES_FROM  # noqa: E402
from reference import prime_flags  # noqa: E402

LIMIT = 20_000
DECIDERS = {**ALGORITHMS, "enhanced_mr(n, 1)": lambda n: enhanced_mr(n, 1)}
# Two Mersenne numbers, 7 mod 24, at least _SQUARES_FROM bits wide: n's
# outcome and the kind of its claim, which every decider makes at q = n - 2.
MERSENNE = {"2^521 - 1": (2**521 - 1, "prime", "pbpc"),
            "2^523 - 1": (2**523 - 1, "composite", "binomial_witness")}

# CI's battery step: find-m's m, then `ppt test --algo inr` exits 0 on the
# primes and 1 on the composites (each number is commented there).
BATTERY = {
    41658819602401: (17, 0), 31119895200241: (13, 1), 10000000000129: (5, 0),
    6368689: (5, 1), 10000000127881: (16, 0), 10000000011961: (16, 1),
    9469984998762288001: (37, 0), 9464208856646544001: (37, 1),
}
# (decider arguments, n, exit code) of the other certificates the step round-trips.
ROUND_TRIPS = [
    ([], "15", 1), ([], "2047", 1), ([], "569", 0), ([], "4", 1), ([], "9", 1),
    ([], "33", 1), ([], "1", 2), ([], "2", 0),
    (["--algo", "inr"], "9", 1),
    (["--algo", "mr-hybrid"], "6409", 1),
    (["--algo", "mr-hybrid"], "385", 1),
    ([], "2^4423 - 1", 0),
    ([], "2^4421 - 1", 1),
]

failures: list[str] = []


def check(name: str, ok: bool, detail: str = "") -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {name}{': ' + detail if detail and not ok else ''}")
    if not ok:
        failures.append(name)


def cli(*argv: str) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one in-process `ppt` run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def check_certificates() -> None:
    flags = prime_flags(LIMIT)
    for name, decide in DECIDERS.items():
        t0, bad = time.perf_counter(), []
        for n in range(1, LIMIT):
            cert = json.loads(json.dumps(certificate(decide(n))))
            want = "not_applicable" if n == 1 else "prime" if flags[n] else "composite"
            fits = cert["outcome"] == want or (
                cert["outcome"] == "inconclusive" and name == "enhanced_mr(n, 1)")
            if not (fits and verify_certificate(cert)):
                bad.append(n)
        check(f"{name} certificates for 1 <= n < {LIMIT} ({time.perf_counter() - t0:.1f} s)",
              not bad, f"n = {bad[:10]}")


def check_mersenne() -> None:
    for label, (n, outcome, kind) in MERSENNE.items():
        check(f"{label} has at least _SQUARES_FROM = {_SQUARES_FROM} bits",
              n.bit_length() >= _SQUARES_FROM)
        for name, decide in DECIDERS.items():
            cert = json.loads(json.dumps(certificate(decide(n))))
            claim = cert["mechanism"] or cert["prime_basis"] or {}
            check(f"{name} {label}: {outcome} by {kind} at q = n - 2, verifies",
                  cert["outcome"] == outcome and claim.get("kind") == kind
                  and claim.get("q") == n - 2 and verify_certificate(cert), repr(cert))


def check_batch_jobs() -> None:
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "nums.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(" ".join(map(str, range(1, 3000))) + "\n")
        for algo in (["--algo", "eqnr"], ["--algo", "inr"]):
            runs = [cli("batch", path, "--print-every", "250", "--jobs", jobs, *algo)
                    for jobs in ("1", "2")]
            check(f"batch {' '.join(algo)}: --jobs 1 and --jobs 2 print the same lines",
                  runs[0] == runs[1] and runs[0][0] == 0 and runs[0][1].count("\n") == 13,
                  repr(runs))


def check_cli() -> None:
    for n, (m, code) in BATTERY.items():
        got = cli("find-m", str(n))
        check(f"find-m {n}: m = {m}", got[0] == 0 and got[1].startswith(f"m = {m} "), repr(got))
        got = cli("test", "--algo", "inr", str(n))
        check(f"test --algo inr {n}: exit {code}", got[0] == code, repr(got))
        for mode in ("pgpc", "fgpc"):
            got = cli("test", "--json", "--algo", "inr", "--mode", mode, str(n))
            check(f"test --json --algo inr --mode {mode} {n}: exit {code}, verifies",
                  got[0] == code and verify_certificate(json.loads(got[1])), repr(got))
    for args, n, code in ROUND_TRIPS:
        got = cli("test", "--json", *args, n)
        check(f"{' '.join(['test', '--json', *args, repr(n)])}: exit {code}, verifies",
              got[0] == code and verify_certificate(json.loads(got[1])), repr(got[0]))
    got = cli("test", "(" * 10_000 + "7" + ")" * 10_000)
    check("10,000 nested parentheses: exit 64", got[0] == 64, repr(got[0]))
    got = cli("test", "1 " + "2 " * 200_000)
    check("a 400,001-character expression: exit 64, one short stderr line",
          got[0] == 64 and len(got[2]) < 200, repr((got[0], got[2][:300])))


if __name__ == "__main__":
    print(f"Python {sys.version.split()[0]}")
    check_certificates()
    check_mersenne()
    check_batch_jobs()
    check_cli()
    print(f"{len(failures)} failed" if failures else "all passed")
    sys.exit(1 if failures else 0)
