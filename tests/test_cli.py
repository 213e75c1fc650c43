"""Unit tests for the command-line interface."""

import contextlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import ppt
from ppt import cli
from ppt.algorithms import verify_certificate
from ppt.cli import (
    EXIT_COMPOSITE,
    EXIT_PRIME,
    EXIT_ERROR,
    EXIT_UNDECIDED,
    EXIT_USAGE,
    main,
    parse_int_expr,
)

from conftest import N22, NC


class TestExpressionParser:
    def test_plain_integers(self):
        assert parse_int_expr("561") == 561
        assert parse_int_expr(" 97 ") == 97

    def test_operators_and_precedence(self):
        assert parse_int_expr("2^11-1") == 2047
        assert parse_int_expr("3*5+2") == 17
        assert parse_int_expr("2+3*4") == 14
        assert parse_int_expr("10-2-3") == 5
        assert parse_int_expr("(2+3)*4") == 20

    def test_power_is_right_associative(self):
        assert parse_int_expr("2^3^2") == 512

    def test_power_binds_tighter_than_product(self):
        assert parse_int_expr("3*2^4") == 48
        assert parse_int_expr("2^4*3") == 48

    def test_whitespace_tolerated(self):
        assert parse_int_expr("2 ^ 11 - 1") == 2047

    def test_rejections(self):
        from ppt.cli import _UsageError
        for bad in ("", "abc", "2^^3", "-5", "2*", "(2+3", "2 3",
                    "2^10000000"):
            with pytest.raises(_UsageError):
                parse_int_expr(bad)

    @pytest.mark.parametrize("text, message", [
        ("", "empty expression"),
        ("   ", "empty expression"),
        ("abc", "bad character in expression: 'abc'"),
        ("2 $3 ", "bad character in expression: ' $3'"),
        ("2^^3", "unexpected token '^'"),
        ("-5", "unexpected token '-'"),
        (")", "unexpected token ')'"),
        ("2*", "unexpected end of expression"),
        ("2^", "unexpected end of expression"),
        ("(2+3", "missing ')'"),
        ("((7)", "missing ')'"),
        ("2 3", "trailing tokens in expression: ['3']"),
        ("(2)(3)", "trailing tokens in expression: ['(', '3', ')']"),
        ("2^10000000", "exponent out of range"),
        ("2^(1-2)", "exponent out of range"),
        ("(2^1000)^1000000", "power too large: over 2097152 bits"),
        ("10^500000*10^500000", "product too large: over 2097152 bits"),
        # (2^32 - 1)^65536 has exactly 2^21 bits, so adding to it is refused.
        ("(2^32-1)^65536+1", "sum too large: over 2097152 bits"),
        ("7" * 650_000, "literal too large: over 2097152 bits"),
    ])
    def test_rejection_messages(self, text, message):
        with pytest.raises(cli._UsageError) as exc:
            parse_int_expr(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize("text", ["\u0663\u0667", "\uff12^\uff15 - 1", "2^1\u0661"])
    def test_digits_are_ascii_only(self, text, capsys):
        """Arabic-Indic and full-width digits are Unicode decimals, which int()
        reads as 37 and 2^5 - 1; the CLI refuses them as usage errors."""
        with pytest.raises(cli._UsageError, match="^bad character in expression: "):
            parse_int_expr(text)
        assert main(["test", text]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("ppt: error: bad character in expression: ")

    def test_usage_errors_echo_a_bounded_piece(self, capsys):
        # Both inputs are 400,001 characters; each message quotes 60 of them.
        for text in ("1 " + "2 " * 200_000, "1$" + "2 " * 200_000):
            assert main(["test", text]) == EXIT_USAGE
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and len(err) < 200, len(err)

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="Python 3.10 has no int-to-str limit")
    def test_long_literal_parses_outside_main(self):
        before = sys.get_int_max_str_digits()
        assert parse_int_expr("7" * 5000) == 7 * (10**5000 - 1) // 9
        assert sys.get_int_max_str_digits() == before

    def test_result_size_cap(self):
        from ppt.cli import _UsageError
        assert parse_int_expr("2^1048576").bit_length() == 1048577
        assert parse_int_expr("2^1048576 - 1").bit_length() == 1048576
        # Each exponent is in range, but the result would have ~3.3e12 or
        # ~1e9 bits; both are refused before any power is computed. Each
        # factor of the product is under the cap, but the product (~3.3e6
        # bits) is not, and it is refused before it is computed.
        for bad in ("(10^1000000)^1000000", "(2^1000)^1000000",
                    "10^500000*10^500000"):
            with pytest.raises(_UsageError, match="too large"):
                parse_int_expr(bad)
        assert main(["test", "(2^1000)^1000000"]) == EXIT_USAGE
        assert main(["test", "10^500000*10^500000"]) == EXIT_USAGE

    def test_literal_size_cap(self, capsys):
        # 650,000 digits is about 2.16M bits, over the cap; 700,001 digits
        # is also over the interpreter's digit limit that main raises. Both
        # are refused from their length, before any conversion.
        for digits in (650_000, 700_001):
            t0 = time.perf_counter()
            assert main(["test", "7" * digits]) == EXIT_USAGE
            assert time.perf_counter() - t0 < 0.5, digits
            assert "literal too large" in capsys.readouterr().err
        # Leading zeros carry no value.
        assert parse_int_expr("0" * 700_001 + "569") == 569

    def test_literal_of_the_bound_length(self, capsys, monkeypatch):
        # 631,306 digits, as many as 2**(2**21) has: a literal from that
        # value up is refused from its digits, without the ~3 s int().
        limit = cli._limit_digits()
        assert len(limit) == cli._MAX_LITERAL_DIGITS
        for lit in ("5" + "0" * (len(limit) - 1), limit):
            t0 = time.perf_counter()
            assert main(["test", lit]) == EXIT_USAGE
            assert time.perf_counter() - t0 < 0.5
            assert "literal too large" in capsys.readouterr().err
        # The same rule at a 64-bit bound: 2**64 = 18446744073709551616.
        monkeypatch.setattr(cli, "_MAX_POWER_BITS", 64)
        monkeypatch.setattr(cli, "_MAX_LITERAL_DIGITS", 20)
        assert parse_int_expr("18446744073709551615") == 2**64 - 1
        assert parse_int_expr("10000000000000000000") == 10**19
        for lit in ("18446744073709551616", "18446744073709551617", "2" + "0" * 19):
            with pytest.raises(cli._UsageError, match="literal too large"):
                parse_int_expr(lit)


    @pytest.mark.parametrize("nest, value", [
        (lambda k: "(" * k + "7" + ")" * k, 7),
        (lambda k: "^".join(["1"] * (k + 1)), 1),
    ], ids=["parentheses", "powers"])
    def test_nesting_depth_bound(self, nest, value, capsys):
        # 100 levels evaluate; one more is a usage error, refused before the
        # nesting can exhaust the interpreter's stack, however deep it goes.
        assert parse_int_expr(nest(100)) == value
        with pytest.raises(cli._UsageError, match="^nesting too deep: over 100 levels$"):
            parse_int_expr(nest(101))
        t0 = time.perf_counter()
        assert main(["test", nest(10_000)]) == EXIT_USAGE
        assert time.perf_counter() - t0 < 0.5
        assert capsys.readouterr().err == "ppt: error: nesting too deep: over 100 levels\n"


class TestTestCommand:
    def test_prime_exit_and_text(self, capsys):
        assert main(["test", "569"]) == EXIT_PRIME
        out = capsys.readouterr().out
        assert "569: Prime" in out
        assert "q=3" in out

    def test_composite_exit_and_text(self, capsys):
        assert main(["test", "561"]) == EXIT_COMPOSITE
        out = capsys.readouterr().out
        assert "561: Composite" in out

    def test_unit_is_undecided(self, capsys):
        assert main(["test", "1"]) == EXIT_UNDECIDED
        assert "Not applicable" in capsys.readouterr().out

    def test_expression_argument(self, capsys):
        assert main(["test", "2^11-1"]) == EXIT_COMPOSITE
        assert "2047" in capsys.readouterr().out
        assert main(["test", "2^5-1"]) == EXIT_PRIME
        capsys.readouterr()

    def test_json_certificate_verifies(self, capsys):
        assert main(["test", "2047", "--json"]) == EXIT_COMPOSITE
        cert = json.loads(capsys.readouterr().out)
        assert cert["n"] == 2047
        assert verify_certificate(cert)

    def test_algo_and_mode_selection(self, capsys):
        assert main(["test", str(NC), "--algo", "inr"]) == EXIT_COMPOSITE
        out = capsys.readouterr().out
        assert "m=5" in out or "m = 5" in out
        assert main(["test", str(NC), "--algo", "inr", "--mode",
                     "fgpc"]) == EXIT_COMPOSITE
        capsys.readouterr()
        assert main(["test", "561", "--algo", "mr-hybrid"]) == EXIT_COMPOSITE
        capsys.readouterr()

    def test_mr_hybrid_seed_and_budget(self, capsys):
        code = main(["test", "1009", "--algo", "mr-hybrid", "--seed", "3"])
        assert code == EXIT_PRIME
        capsys.readouterr()

    def test_max_iters_below_one_rejected(self, capsys):
        for algo in ("mr-hybrid", "eqnr"):
            assert main(["test", "97", "--algo", algo,
                         "--max-iters", "0"]) == EXIT_USAGE
            assert "--max-iters" in capsys.readouterr().err

    def test_inconclusive_exit(self, capsys):
        # Scan seeds for a single-draw run that cannot decide 1729.
        for seed in range(500):
            code = main(["test", "1729", "--algo", "mr-hybrid",
                         "--seed", str(seed), "--max-iters", "1"])
            out = capsys.readouterr().out
            if code == EXIT_UNDECIDED:
                assert "Inconclusive" in out
                return
        pytest.fail("no inconclusive seed found")

    def test_zero_rejected(self, capsys):
        assert main(["test", "0"]) == EXIT_USAGE
        assert "error" in capsys.readouterr().err

    def test_bad_expression_rejected(self, capsys):
        assert main(["test", "abc"]) == EXIT_USAGE
        capsys.readouterr()

    def test_prime_basis_descriptions(self, capsys):
        assert main(["test", "3", "--algo", "inr"]) == EXIT_PRIME
        assert capsys.readouterr().out == "3: Prime (small prime)\n"
        assert main(["test", "1009", "--algo", "inr"]) == EXIT_PRIME
        assert "Prime (pgpc at m=5)" in capsys.readouterr().out
        assert main(["test", "1009", "--algo", "inr", "--mode",
                     "fgpc"]) == EXIT_PRIME
        assert "Prime (fgpc at m=5)" in capsys.readouterr().out
        for algo in ("eqnr", "inr"):
            assert main(["test", "569", "--algo", algo]) == EXIT_PRIME
            assert capsys.readouterr().out == "569: Prime (explicit non-residue q=3)\n"

    def test_numbers_over_4300_digits_print(self, capsys):
        # 2^20000 has 6021 digits, over Python's default int-to-str limit.
        assert main(["test", "2^20000"]) == EXIT_COMPOSITE
        assert capsys.readouterr().out.endswith(": Composite (even)\n")
        assert main(["test", "2^20000", "--json"]) == EXIT_COMPOSITE
        # main restores the int-to-str limit on return, so reading the JSON
        # of a 6021-digit n back lifts it here.
        with _int_str_digits_lifted():
            assert json.loads(capsys.readouterr().out)["n"] == 2**20000

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="Python 3.10 has no int-to-str limit")
    def test_int_str_limit_is_restored(self, capsys, monkeypatch):
        import ppt.algorithms

        def exhausted(n):
            raise RuntimeError("no quadratic non-residue")

        before = sys.get_int_max_str_digits()
        assert before < cli._MAX_DIGITS
        assert main(["test", "1009"]) == EXIT_PRIME
        assert sys.get_int_max_str_digits() == before
        assert main(["test", "0"]) == EXIT_USAGE
        assert sys.get_int_max_str_digits() == before
        with pytest.raises(SystemExit):
            main(["test", "7", "--algo", "zzz"])
        assert sys.get_int_max_str_digits() == before
        monkeypatch.setattr(ppt.algorithms, "find_qnr", exhausted)
        assert main(["test", str(N22)]) == EXIT_ERROR
        assert sys.get_int_max_str_digits() == before
        capsys.readouterr()


class TestBitLimit:
    """n wider than algorithms.MAX_BITS is a usage error, refused before any
    arithmetic; the widest numbers the CI run decides stay decided."""

    def test_million_bit_n_refused_quickly(self, capsys):
        t0 = time.perf_counter()
        assert main(["test", "2^1048576 - 1"]) == EXIT_USAGE
        assert time.perf_counter() - t0 < 0.1
        assert capsys.readouterr().err == (
            f"ppt: error: n has 1048576 bits, over the limit of {ppt.MAX_BITS}\n")

    def test_find_m_refuses_a_wide_n_quickly(self, capsys):
        t0 = time.perf_counter()
        assert main(["find-m", "3 * 2^1000000 + 1"]) == EXIT_USAGE
        assert time.perf_counter() - t0 < 0.1
        assert capsys.readouterr().err == (
            f"ppt: error: n has 1000002 bits, over the limit of {ppt.MAX_BITS}\n")

    def test_limit_is_inclusive(self, capsys, monkeypatch):
        assert main(["test", f"2^{ppt.MAX_BITS - 1}"]) == EXIT_COMPOSITE
        assert main(["test", f"2^{ppt.MAX_BITS}"]) == EXIT_USAGE
        monkeypatch.setattr(ppt.algorithms, "MAX_BITS", 10)
        assert main(["test", "1021"]) == EXIT_PRIME
        assert main(["test", "1031"]) == EXIT_USAGE

    def test_mersenne_numbers_at_4_4k_bits(self, capsys):
        assert main(["test", "2^4423 - 1"]) == EXIT_PRIME
        assert main(["test", "2^4421 - 1"]) == EXIT_COMPOSITE

    def test_batch_refuses_a_wide_n(self, tmp_path, capsys):
        data = tmp_path / "nums.txt"
        with _int_str_digits_lifted():
            data.write_text(f"561\n{2**ppt.MAX_BITS + 1}\n")
        assert main(["batch", str(data)]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and "over the limit of" in err


class TestBatchCommand:
    def test_batch_run_with_csv(self, tmp_path, capsys):
        data = tmp_path / "nums.txt"
        data.write_text("561\n1105\n1729\n2047\n569\n")
        out_csv = tmp_path / "stats.csv"
        code = main(["batch", str(data), "--algo", "eqnr",
                     "--print-every", "2", "--out", str(out_csv)])
        assert code == 0
        out = capsys.readouterr().out
        assert "# total=5 primes=1 composites=4" in out
        lines = out_csv.read_text().splitlines()
        assert lines[0].startswith("index,js0")
        assert lines[1].startswith("5,")

    def test_batch_interval_rows_printed(self, tmp_path, capsys):
        data = tmp_path / "nums.txt"
        data.write_text("561 1105 1729\n")
        assert main(["batch", str(data), "--print-every", "1"]) == 0
        out_lines = capsys.readouterr().out.strip().splitlines()
        rows = [l for l in out_lines if "|" in l]
        assert len(rows) == 3

    def test_summary_counts_add_up_to_total(self, tmp_path, capsys):
        # 1 is not applicable, 561 composite and 569 prime.
        data = tmp_path / "nums.txt"
        data.write_text("1 561 569\n")
        assert main(["batch", str(data)]) == 0
        summary = capsys.readouterr().out.splitlines()[-1]
        assert summary.startswith("# total=3 primes=1 composites=1 inconclusive=0 "
                                  "not_applicable=1 errors=0 ")

    def test_missing_file_is_runtime_error(self, tmp_path, capsys):
        code = main(["batch", str(tmp_path / "absent.txt")])
        assert code == EXIT_ERROR
        assert "error" in capsys.readouterr().err

    def test_malformed_file_is_runtime_error(self, tmp_path, capsys):
        data = tmp_path / "bad.txt"
        data.write_text("12 potato\n")
        assert main(["batch", str(data)]) == EXIT_ERROR
        capsys.readouterr()

    def test_non_ascii_digits_in_file_are_runtime_error(self, tmp_path, capsys):
        data = tmp_path / "nums.txt"
        data.write_text("37\n\u0663\u0667\n", encoding="utf-8")
        assert main(["batch", str(data)]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"ppt: error: {data}:2: malformed integer token '\u0663\u0667'\n"

    def test_signed_tokens_in_file_are_runtime_error(self, tmp_path, capsys):
        """ppt test refuses a sign, and so does a dataset: the first signed
        token stops the batch before any number is decided."""
        data = tmp_path / "nums.txt"
        data.write_text("-5 +7 0 13\n")
        assert main(["batch", str(data)]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"ppt: error: {data}:1: malformed integer token '-5'\n"

    def test_bad_flags_are_usage_errors(self, tmp_path, capsys):
        data = tmp_path / "nums.txt"
        data.write_text("9\n")
        assert main(["batch", str(data), "--print-every", "-1"]) == EXIT_USAGE
        capsys.readouterr()
        assert main(["batch", str(data), "--jobs", "0"]) == EXIT_USAGE
        capsys.readouterr()

    def test_inr_modes_reach_batch(self, tmp_path, capsys):
        data = tmp_path / "nums.txt"
        data.write_text(f"{NC}\n")
        assert main(["batch", str(data), "--algo", "inr", "--mode",
                     "fgpc"]) == 0
        assert "composites=1" in capsys.readouterr().out


class TestPolyCommand:
    def test_prime_power_output(self, capsys):
        assert main(["poly", "7"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == ("Phi_7(x) = x^6 + x^5 + x^4 + x^3 + x^2 + x + 1")
        assert out[1] == "Upsilon_7(t) = t^3 + t^2 - 2t - 1"
        assert out[2] == "Psi_7(u) = u^6 + 7u^4 + 14u^2 + 7"

    def test_power_of_two(self, capsys):
        assert main(["poly", "16"]) == 0
        out = capsys.readouterr().out
        assert "Psi_16(u) = u^4 + 4u^2 + 2" in out

    def test_non_prime_power_rejected(self, capsys):
        assert main(["poly", "12"]) == EXIT_USAGE
        capsys.readouterr()
        assert main(["poly", "1"]) == EXIT_USAGE
        capsys.readouterr()

    def test_oversized_m_refused_quickly(self, capsys):
        # The prime 4099 takes seconds to build; 2^127 - 1 would never
        # finish, and its prime-power factoring alone would not either.
        for m in (4099, 2**127 - 1):
            t0 = time.perf_counter()
            assert main(["poly", str(m)]) == EXIT_USAGE
            assert time.perf_counter() - t0 < 0.1, m
            assert "too large" in capsys.readouterr().err


class TestFindMCommand:
    def test_m_result(self, capsys):
        assert main(["find-m", str(NC)]) == 0
        assert capsys.readouterr().out.strip() == "m = 5 (3 iterations)"
        assert main(["find-m", str(N22)]) == 0
        assert capsys.readouterr().out.strip() == "m = 7 (4 iterations)"

    def test_qnr_result(self, capsys):
        assert main(["find-m", "97"]) == 0
        assert capsys.readouterr().out.strip() == "qnr = 5 (3 iterations)"

    def test_divisor_results(self, capsys):
        assert main(["find-m", "1105"]) == 0
        out = capsys.readouterr().out
        assert "divisor = 5" in out
        assert main(["find-m", "25"]) == 0
        out = capsys.readouterr().out
        assert "divisor = 5" in out
        assert "square" in out

    def test_wrong_residue_rejected(self, capsys):
        assert main(["find-m", "35"]) == EXIT_USAGE
        capsys.readouterr()


class TestBenchCommand:
    def test_bench_table(self, tmp_path, capsys):
        data = tmp_path / "nums.txt"
        data.write_text("561\n569\n1105\n")
        assert main(["bench", str(data), "--algos", "eqnr,inr_pgpc"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].split() == ["algorithm", "cases", "seconds"]
        assert out[1].startswith("eqnr")
        assert out[2].startswith("inr_pgpc")

    def test_unknown_algo_rejected(self, tmp_path, capsys):
        data = tmp_path / "nums.txt"
        data.write_text("9\n")
        assert main(["bench", str(data), "--algos", "zzz"]) == EXIT_USAGE
        capsys.readouterr()


class TestIterationLimits:
    def test_exhausted_search_exits_3(self, capsys, monkeypatch):
        import ppt.algorithms

        assert main(["test", str(N22)]) == EXIT_COMPOSITE
        capsys.readouterr()

        def exhausted(n):
            raise RuntimeError("find_qnr: no quadratic non-residue among the "
                               "first 5 odd primes")

        monkeypatch.setattr(ppt.algorithms, "find_qnr", exhausted)
        assert main(["test", str(N22)]) == EXIT_ERROR
        assert "no quadratic non-residue" in capsys.readouterr().err

    def test_max_iters_flag_for_hybrid(self, capsys):
        code = main(["test", "97", "--algo", "mr-hybrid",
                     "--max-iters", "64"])
        assert code == EXIT_PRIME
        capsys.readouterr()


ROOT = Path(__file__).resolve().parents[1]


@contextlib.contextmanager
def _int_str_digits_lifted():
    """Lift Python's int-to-str limit (none on 3.10) inside the block."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _child_env():
    """Environment whose interpreter imports the ppt package under test."""
    env = dict(os.environ)
    src = str(Path(ppt.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


@pytest.fixture
def ppt_on_path(tmp_path, monkeypatch):
    """Make ``ppt`` resolve to an installed console script.

    A ``ppt`` already on PATH is used as it is.  Otherwise a copy of this
    checkout is installed under ``tmp_path`` with setuptools' own install
    command.  That writes the same entry-point launcher as ``pip install``
    but builds no wheel, so it also works with a setuptools older than 70.1
    and no ``wheel`` package, where pip stops at ``bdist_wheel``.
    """
    if shutil.which("ppt"):
        return
    pytest.importorskip("setuptools")
    tree, lib, bin_dir = (tmp_path / d for d in ("tree", "lib", "bin"))
    shutil.copytree(ROOT / "src", tree / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    shutil.copy(ROOT / "pyproject.toml", tree)
    proc = subprocess.run(
        [sys.executable, "-c", "from setuptools import setup; setup()",
         "install", "--single-version-externally-managed",
         "--record", str(tmp_path / "record.txt"),
         "--install-lib", str(lib), "--install-scripts", str(bin_dir)],
        cwd=tree, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    monkeypatch.setenv("PATH", os.pathsep.join(
        [str(bin_dir), os.environ.get("PATH", os.defpath)]))
    # The launcher imports the installed copy, not the checkout's src/.
    monkeypatch.setenv("PYTHONPATH", str(lib))


class TestConsoleScript:
    def test_entry_point_runs(self):
        proc = subprocess.run([sys.executable, "-m", "ppt.cli", "test", "7"],
                              capture_output=True, text=True,
                              env=_child_env())
        assert proc.returncode == EXIT_PRIME
        assert "Prime" in proc.stdout

    def test_installed_script(self, ppt_on_path):
        proc = subprocess.run(["ppt", "test", "561"], capture_output=True,
                              text=True)
        assert proc.returncode == EXIT_COMPOSITE
        # A launcher that fails to load its entry point also exits 1.
        assert "561: Composite" in proc.stdout
