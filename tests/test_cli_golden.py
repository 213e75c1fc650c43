"""Golden CLI: (argv, exit code, stdout, stderr) of every case, by digest.

Each case runs through ppt.cli.main in process, in a scratch directory
that holds the batch datasets. The digest is the sha256 of one JSON line
[argv, exit code, stdout, stderr] per case, in order; where a case writes
a CSV file, its text follows as one more JSON line. Timings are dropped:
the `total_s` of a --json certificate and the seconds column of `bench`
read "-". The cases cover every command, every decider and mode, text and
--json output, batch rows and CSV, find-m at its divisor, non-residue and
m exits, poly at prime powers and at the m it refuses, usage errors, and
runtime errors made by a find_qnr that gives up. argparse's help screens
and its invalid-choice message are left out: their text moves between
Python versions.

    PYTHONPATH=src python tests/test_cli_golden.py

prints every record, one per line, for a diff between two trees.
"""

import contextlib
import hashlib
import io
import json
import os
import re
import tempfile
from unittest import mock

import ppt.algorithms
from ppt.cli import main

NUMBERS = [
    "1", "2", "3", "4", "9", "15", "25", "33", "385", "409", "561", "569",
    "649", "1105", "1801", "2047", "2881", "6409", "7561", "10081", "37801",
    "55441", "166321", "2162161", "2882881", "6368689", "14283595418401",
    "41658819602401", "31119895200241", "10000000000129", "10000000127881",
    "10000000011961", "129545102216217601", "2^127 - 1", "2^89-1",
]
DECIDERS = [[], ["--algo", "inr"], ["--algo", "inr", "--mode", "fgpc"],
            ["--algo", "mr-hybrid"]]

NUMS = "# a comment line\n1 2 3 4 9\n15 25 33 385 409 561 569 649\n1105 1801 2047\n6368689\n"

CASES = [
    *(["test", n, *d] for d in DECIDERS for n in NUMBERS),
    *(["test", "--json", n, *d] for d in DECIDERS for n in NUMBERS),
    *(["test", n, "--algo", "mr-hybrid", "--max-iters", "1", "--seed", s]
      for n in ("73", "97", "193") for s in ("0", "1", "3")),
    ["test", "--json", "97", "--algo", "mr-hybrid", "--max-iters", "1"],
    ["test", "--algo", "mr-hybrid", "--mode", "fgpc", "561", "--seed", "7"],
    *(["find-m", n] for n in (
        "25", "49", "1105", "73", "217", "409", "649", "1201", "1801", "2041",
        "7561", "10081", "55441", "2162161", "2882881", "6368689",
        "41658819602401", "31119895200241", "10000000127881", "24*10^30+1")),
    *(["poly", m] for m in ("3", "4", "5", "7", "8", "9", "13", "16", "17")),
    *(["poly", m] for m in ("1", "2", "6", "12", "4097", "-3")),
    *(["batch", "nums.txt", *d] for d in DECIDERS),
    ["batch", "nums.txt", "--print-every", "5"],
    ["batch", "nums.txt", "--print-every", "4", "--algo", "inr", "--out", "out.csv"],
    ["batch", "nums.txt", "--algo", "mr-hybrid", "--out", "out.csv"],
    ["batch", "nums.txt", "--jobs", "2", "--print-every", "7"],
    ["batch", "empty.txt", "--out", "out.csv"],
    ["batch", "bad.txt"],
    ["batch", "missing.txt"],
    ["batch", "nums.txt", "--print-every", "-1"],
    ["batch", "nums.txt", "--jobs", "0"],
    ["bench", "nums.txt"],
    ["bench", "nums.txt", "--algos", "eqnr, inr_fgpc"],
    ["bench", "nums.txt", "--algos", "nope"],
    ["bench", "nums.txt", "--algos", ","],
    # usage errors
    *(["test", n] for n in (
        "0", "", "abc", "2 3", "(2", "2^^3", "2^", "-5", "2^10000000",
        "(2^1000)^1000000", "(" * 101 + "7" + ")" * 101)),
    ["test", "7", "--max-iters", "0"],
    ["find-m", "1"],
    ["find-m", "23"],
    ["find-m", "48"],
    ["find-m", "2^"],
    [],
    ["test"],
    ["poly", "x"],
    ["test", "5", "--bogus"],
    ["test", "--seed", "x", "5"],
]

# Run with a find_qnr that gives up: a runtime error where the scan runs.
GIVE_UP_CASES = [
    ["test", "129545102216217601"],
    ["test", "--json", "1105"],
    ["test", "569"],
    ["test", "1105", "--algo", "inr"],
    ["batch", "nums.txt"],
]

# Re-pinned when the batch summary line gained its not_applicable= count;
# no other record changed.
GOLDEN = "c476a999b756efdefbd17182840250ffec6edefffd6ce06a1a3fe139c00f7153"


def _give_up(n):
    raise RuntimeError("find_qnr: no quadratic non-residue among the first 5 odd primes")


def _run(argv: list[str]) -> list:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    text = re.sub(r'"total_s": [-+.e0-9]+', '"total_s": "-"', out.getvalue())
    if argv[:1] == ["bench"]:
        text = re.sub(r" [0-9]+\.[0-9]{3}$", " -", text, flags=re.M)
    return [argv, code, text, err.getvalue()]


def cli_records(workdir: str) -> list[list]:
    """The record of each case, run in workdir."""
    here = os.getcwd()
    os.chdir(workdir)
    try:
        for name, text in (("nums.txt", NUMS), ("empty.txt", "# nothing\n"),
                           ("bad.txt", "7 11\n13 x7\n")):
            with open(name, "w", encoding="utf-8") as fh:
                fh.write(text)
        records = []
        with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
            for argv in CASES:
                records.append(_run(argv))
                if os.path.exists("out.csv"):
                    with open("out.csv", encoding="utf-8") as fh:
                        records.append(["out.csv", fh.read()])
                    os.remove("out.csv")
            with mock.patch.object(ppt.algorithms, "find_qnr", _give_up):
                records.extend(_run(argv) for argv in GIVE_UP_CASES)
        return records
    finally:
        os.chdir(here)


def cli_digest(records: list[list]) -> str:
    h = hashlib.sha256()
    for record in records:
        h.update(json.dumps(record).encode())
        h.update(b"\n")
    return h.hexdigest()


def test_cli_matches_golden_digest(tmp_path):
    assert cli_digest(cli_records(str(tmp_path))) == GOLDEN


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        for record in cli_records(workdir):
            print(json.dumps(record))
