"""Unit tests for dataset loading, batch runs, and composite generators."""

import concurrent.futures
import hashlib
import os
import subprocess
import sys
import types

import pytest
import sympy

import ppt
from ppt.algorithms import _BATTERY, _CLAIMS, ALGORITHMS, Outcome, ppta_eqnr, ppta_inr
from ppt.harness import (
    CSV_HEADER,
    BatchStats,
    generate_carmichaels,
    load_dataset,
    run_batch,
)

from conftest import CARMICHAELS_1E5, CARMICHAELS_1MOD24_1E8, NC
from reference import prime_flags

# Composites that, under the four deciders, reach every mechanism kind:
# even, perfect square, Jacobi zero factor, Euler and binomial witnesses
# (scalar and polynomial), trivial factor, pgpc violation, nontrivial root
# and Fermat witness.
KIND_INPUTS = [4, 9, 15, 33, 2047, 385, 6409, 6368689, 31119895200241]
MECHANISM_KINDS = {kind for kind, (_, slot, *_) in _CLAIMS.items() if slot == "mechanism"}


class TestLoadDataset:
    def test_mixed_layout(self, tmp_path):
        f = tmp_path / "nums.txt"
        f.write_text("# header comment\n561 1105\n\n  1729\n# tail\n2047\n")
        assert load_dataset(str(f)) == [561, 1105, 1729, 2047]

    def test_malformed_token_reports_position(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("561\n1105 xyz\n")
        with pytest.raises(ValueError) as err:
            load_dataset(str(f))
        assert "bad.txt:2" in str(err.value)
        assert "xyz" in str(err.value)

    @pytest.mark.parametrize("tok", ["1_105", "\u0663\u0667", "\uff12", "5\u00b2",
                                     "-5", "+7", "-0"])
    def test_underscores_and_non_ascii_digits_refused(self, tmp_path, tok):
        """int() takes 1_105, a sign, and Arabic-Indic or full-width digits;
        a dataset token is unsigned ASCII decimal only."""
        f = tmp_path / "odd.txt"
        f.write_text(f"561\n{tok}\n", encoding="utf-8")
        with pytest.raises(ValueError) as err:
            load_dataset(str(f))
        assert str(err.value) == f"{f}:2: malformed integer token {tok!r}"

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_dataset(str(tmp_path / "nope.txt"))

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="no int-to-str limit in this interpreter")
    def test_token_over_int_limit_refused_before_int(self, tmp_path, capsys):
        """A token over the int-to-str limit gets the loader's own path:line
        error, not int()'s advice to raise the limit. ppt batch, which lifts
        the limit to _MAX_DIGITS, refuses a token one digit longer (exit 3)."""
        from ppt.cli import _MAX_DIGITS, EXIT_ERROR, main

        f = tmp_path / "long.txt"
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            f.write_text("7\n" + "1" * 640 + " " + "1" * 641 + "\n")
            with pytest.raises(ValueError) as err:
                load_dataset(str(f))
            assert str(err.value) == f"{f}:2: token of 641 digits, over 640"
            f.write_text("7\n" + "1" * 640 + "\n")
            assert load_dataset(str(f)) == [7, int("1" * 640)]
            f.write_text("7\n" + "1" * (_MAX_DIGITS + 1) + "\n")
            assert main(["batch", str(f)]) == EXIT_ERROR
            assert sys.get_int_max_str_digits() == 640
        finally:
            sys.set_int_max_str_digits(limit)
        assert capsys.readouterr() == ("", f"ppt: error: {f}:2: token of "
                                           f"{_MAX_DIGITS + 1} digits, over {_MAX_DIGITS}\n")


class TestGenerateCarmichaels:
    def test_frozen_small_lists(self):
        assert generate_carmichaels(2000) == [561, 1105, 1729]
        assert generate_carmichaels(561) == []
        assert generate_carmichaels(562) == [561]

    def test_frozen_list_below_1e5(self):
        assert generate_carmichaels(10**5) == CARMICHAELS_1E5

    def test_list_below_1e6_matches_golden_digest(self):
        found = generate_carmichaels(10**6)
        assert len(found) == 43
        digest = hashlib.sha256(" ".join(map(str, found)).encode()).hexdigest()
        assert digest == "bb7a913276f05987e288ac0596d55054e9252f17c1d7dae9dcef9bb8b8077a3c"

    def test_members_are_fermat_liars(self):
        is_prime = prime_flags(10**4)
        for n in generate_carmichaels(10**4):
            assert not is_prime[n]
            for a in (2, 3, 5, 7):
                if n % a:
                    assert pow(a, n - 1, n) == 1, (n, a)

    def test_rejects_excessive_limit(self):
        with pytest.raises(ValueError):
            generate_carmichaels(10**8 + 1)

    def test_list_below_1e8_passes_korselt(self):
        # The only call that crosses segment boundaries: about 3 s.
        found = generate_carmichaels(10**8)
        assert len(found) == 255  # Pinch's count below 10^8
        for n in found:
            factors = sympy.factorint(n)
            assert len(factors) >= 2 and set(factors.values()) == {1}, n
            assert all((n - 1) % (p - 1) == 0 for p in factors), n
        assert [n for n in found if n % 24 == 1] == CARMICHAELS_1MOD24_1E8


class TestBatchStats:
    def test_bucket_folding(self):
        stats = BatchStats()
        for n in (561, 1105, 1729):
            stats.update(n, ppta_eqnr(n))
        assert stats.total == 3
        assert stats.outcomes[Outcome.COMPOSITE] == 3
        assert stats.resolved_by["jacobi_zero_factor"] == 3
        assert stats.needing_search == 3
        assert stats.sum_search_iters == 1 + 2 + 3
        assert stats.max_search_iters == 3
        assert stats.argmax_n == 1729

    def test_argmax_prefers_smallest_attaining_n(self):
        depth = {n: ppta_eqnr(n).qnr_search.iterations for n in (561, 1729, 6601)}
        assert depth == {561: 1, 1729: 3, 6601: 3}
        for order in ((1729, 6601), (6601, 1729), (561, 6601, 1729), (6601, 561, 1729)):
            stats = BatchStats()
            for n in order:
                stats.update(n, ppta_eqnr(n))
            assert (stats.max_search_iters, stats.argmax_n) == (3, 1729), order

    def test_q_statistics(self):
        stats = BatchStats()
        stats.update(569, ppta_eqnr(569))   # searched q = 3
        stats.update(2047, ppta_eqnr(2047))  # deterministic q = 2045
        stats.update(561, ppta_eqnr(561))   # factor exit, no q
        assert stats.q_cases == 2
        assert stats.sum_of_q == 3 + 2045

    def test_row_formatting_against_fixed_fields(self):
        stats = BatchStats()
        stats.total = 24668
        stats.outcomes[Outcome.COMPOSITE] = 24668
        stats.needing_search = 21726
        stats.sum_search_iters = 88255
        stats.max_search_iters = 17
        stats.resolved_by["jacobi_zero_factor"] = 8905
        stats.resolved_by["euler_witness"] = 15575
        stats.resolved_by["binomial_witness"] = 188
        assert stats.row() == (
            "24668 | 8905 (0.3610), 15575 (0.6314), 188 (0.0076) | "
            "21726 (0.8807), 4.0622, 17")

    def test_csv_row_matches_header(self):
        stats = BatchStats()
        stats.update(569, ppta_eqnr(569))
        row = stats.csv_row()
        assert len(row.split(",")) == len(CSV_HEADER.split(","))
        assert row.startswith("1,")  # index column is the running total

    def test_average_formats_with_five_significant_digits(self):
        stats = BatchStats()
        stats.total = 3
        stats.outcomes[Outcome.COMPOSITE] = 3
        stats.needing_search = 3
        stats.sum_search_iters = 6
        stats.max_search_iters = 3
        stats.resolved_by["jacobi_zero_factor"] = 3
        assert stats.row() == (
            "3 | 3 (1.0000), 0 (0.0000), 0 (0.0000) | 3 (1.0000), 2, 3")


class TestRunBatch:
    def test_carmichael_triple_under_eqnr(self):
        rows = []
        stats = run_batch([561, 1105, 1729], "eqnr", emit=rows.append)
        assert isinstance(stats, BatchStats)
        assert stats.total == 3
        assert stats.outcomes[Outcome.COMPOSITE] == 3
        assert stats.outcomes[Outcome.PRIME] == 0
        assert rows == [stats.row()]
        assert rows[0].endswith("3 (1.0000), 2, 3")

    def test_interval_rows_and_terminal_dedup(self):
        nums = [561, 1105, 1729, 2047, 2465, 2821]
        rows = []
        run_batch(nums, "eqnr", print_every=2, emit=rows.append)
        assert len(rows) == 3  # 2, 4, 6; final row not repeated
        rows2 = []
        stats2 = run_batch(nums, "eqnr", print_every=4, emit=rows2.append)
        assert rows2 == [rows[1], rows[2]]  # 4, then terminal 6
        assert rows2[-1] == stats2.row() and stats2.total == 6

    def test_empty_batch_emits_one_terminal_row(self):
        rows = []
        assert run_batch([], "eqnr", print_every=2, emit=rows.append) == BatchStats()
        assert rows == [BatchStats().row()]

    def test_mixed_outcomes_with_inr(self):
        stats = run_batch([25, 97, 569, 1105, NC], "inr_pgpc")
        assert stats.outcomes[Outcome.PRIME] == 2
        assert stats.outcomes[Outcome.COMPOSITE] == 3
        assert stats.resolved_by["perfect_square"] == 1
        assert stats.resolved_by["trivial_factor"] == 1
        assert stats.resolved_by["pgpc_violation"] == 1

    def test_unit_counted_not_applicable(self):
        stats = run_batch([1, 561, 569], "eqnr")
        assert stats.total == 3
        assert stats.outcomes == {Outcome.NOT_APPLICABLE: 1, Outcome.PRIME: 1, Outcome.COMPOSITE: 1}

    def test_errors_counted_without_aborting(self):
        stats = run_batch([561, 0, 569], "eqnr")
        assert stats.errors == 1
        assert stats.total == 2

    def test_parallel_jobs_match_serial(self):
        nums = list(range(3, 400, 2))
        serial = run_batch(nums, "eqnr")
        parallel = run_batch(nums, "eqnr", jobs=2)
        assert serial.total == parallel.total
        assert serial.outcomes == parallel.outcomes
        assert serial.resolved_by == parallel.resolved_by
        assert serial.sum_of_q == parallel.sum_of_q

    def test_jobs_capped_by_inputs_and_cpus(self, monkeypatch):
        """A huge jobs count asks for no more workers than inputs or CPUs.

        The pool is a fake that records max_workers and maps serially, so
        no process is started whatever the code under test asks for.
        """
        asked = []

        class FakePool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                assert chunksize >= 1
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        nums = [1, 0, 561, 569, 2047, 7919]
        for cpus, k, jobs, want in (
            (4, 6, 10**6, [4]),
            (4, 6, 3, [3]),
            (4, 2, 10**6, [2]),
            (4, 1, 10**6, []),
            (None, 6, 10**6, []),
            (4, 6, 1, []),
        ):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            asked.clear()
            rows, serial_rows = [], []
            got = run_batch(nums[:k], "eqnr", print_every=2, emit=rows.append, jobs=jobs)
            assert asked == want
            assert got == run_batch(nums[:k], "eqnr", print_every=2, emit=serial_rows.append)
            assert rows == serial_rows

    @pytest.mark.parametrize("algo, row", [
        ("eqnr", "9 | 2 (0.2222), 4 (0.4444), 1 (0.1111) | 5 (0.5556), 3.2, 6"),
        ("inr_pgpc", "9 | 0 (0.0000), 0 (0.0000), 1 (0.1111) | 4 (0.4444), 3.75, 6"),
        ("inr_fgpc", "9 | 0 (0.0000), 0 (0.0000), 4 (0.4444) | 4 (0.4444), 3.75, 6"),
        ("enhanced_mr", "9 | 0 (0.0000), 2 (0.2222), 1 (0.1111) | 4 (0.4444), 1, 1"),
    ])
    def test_resolutions_counted_by_mechanism_kind(self, algo, row):
        """Over inputs that together reach every mechanism kind, each
        composite is counted once, under its mechanism's kind; the rows
        are those printed when the counts were kept in named buckets."""
        stats = run_batch(KIND_INPUTS, algo)
        assert stats.outcomes[Outcome.COMPOSITE] == len(KIND_INPUTS)
        assert sum(stats.resolved_by.values()) == stats.outcomes[Outcome.COMPOSITE]
        assert set(stats.resolved_by) <= MECHANISM_KINDS
        assert stats.row() == row

    def test_kind_inputs_reach_every_mechanism_kind(self):
        reached = set()
        for algo in ALGORITHMS:
            reached |= set(run_batch(KIND_INPUTS, algo).resolved_by)
        assert reached == MECHANISM_KINDS

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError):
            run_batch([9], "nope")


class TestAlgorithmsAgreeWithEratosthenes:
    def test_carmichaels_to_1e5(self):
        from ppt.algorithms import enhanced_mr
        is_prime = prime_flags(10**5)
        for n in CARMICHAELS_1E5:
            assert not is_prime[n]
            assert ppta_eqnr(n).outcome.value == "composite"
            assert ppta_inr(n).outcome.value == "composite"
            assert enhanced_mr(n).outcome.value == "composite"


def test_package_loads_the_harness_on_first_use():
    """import ppt leaves ppt.harness unloaded; each harness name the
    package offers still imports from it."""
    code = (
        "import sys, ppt; print('ppt.harness' in sys.modules)\n"
        "from ppt import BatchStats, generate_carmichaels, load_dataset, run_batch\n"
        "import ppt.harness as h\n"
        "print(all(getattr(ppt, k) is getattr(h, k) for k in (\n"
        "    'BatchStats', 'generate_carmichaels', 'load_dataset', 'run_batch')))\n"
        "print(hasattr(ppt, 'CSV_HEADER'))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(ppt.__file__))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.split() == ["False", "True", "False"]


def test_package_surface_is_the_modules_all():
    """ppt's public names are its eager modules' __all__, the battery
    modules' __all__ in algorithms._BATTERY (resolved on first use, and
    bound on algorithms when the battery loads), and _HARNESS, which
    is the harness's __all__ but for CSV_HEADER: its four batch names. Each
    resolves from ppt, and
    from ppt import * binds what it bound when ppt imported the battery
    eagerly: every name but the harness's, and the six modules."""
    from ppt import algorithms, canonical, checks, harness, ntcore, polyring

    eager = {name for name, value in vars(ppt).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    battery = set().union(*_BATTERY.values())
    modules = (algorithms, canonical, checks, ntcore, polyring)
    assert eager == set(algorithms.__all__) | set(ntcore.__all__)
    assert not eager & battery
    assert eager | battery == set().union(*(module.__all__ for module in modules))
    for module in (canonical, checks, polyring):
        name = module.__name__.rpartition(".")[2]
        assert _BATTERY[name] == tuple(module.__all__)
        assert all(getattr(ppt, k) is getattr(module, k) is getattr(algorithms, k)
                   for k in module.__all__)
    assert not hasattr(ppt, "_BATTERY")
    assert ppt._HARNESS == set(harness.__all__) - {"CSV_HEADER"} == {
        "BatchStats", "generate_carmichaels", "load_dataset", "run_batch"}
    assert eager | battery <= set(dir(ppt))
    code = "from ppt import *\nprint(*sorted(k for k in dir() if not k.startswith('_')))"
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(ppt.__file__))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert set(out.stdout.split()) == eager | battery | {
        "algorithms", "canonical", "checks", "ntcore", "polyring"}


def _loads(code: str) -> set[str]:
    """The modules that code adds to sys.modules in a fresh interpreter,
    counted from after start-up, so that modules a site hook preloads
    are not among them."""
    code = "import sys\nbefore = set(sys.modules)\n" + code + (
        "\nprint(*sorted(set(sys.modules) - before))\n")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(ppt.__file__))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    return set(out.stdout.splitlines()[-1].split())


BATTERY_MODULES = {"ppt.canonical", "ppt.checks", "ppt.polyring"}


def test_scalar_work_loads_no_battery():
    """import ppt, the four deciders on n != 1 mod 24, the verification of
    each certificate, and ppt test on a scalar n load the scalar core and
    the CLI only, none of the battery's modules; the scalar tail has no
    module of its own."""
    loaded = _loads(
        "import json, ppt\n"
        "from ppt.cli import main\n"
        "for n in (1000003, 569, 2047, 2**127 - 1):\n"
        "    for decide in ppt.ALGORITHMS.values():\n"
        "        cert = json.loads(json.dumps(ppt.certificate(decide(n))))\n"
        "        assert ppt.verify_certificate(cert)\n"
        "assert main(['test', '1009']) == 0\n"
        "assert main(['test', '--algo', 'inr', '1000003']) == 0\n"
    )
    assert {m for m in loaded if m.partition(".")[0] == "ppt"} == {
        "ppt", "ppt.algorithms", "ppt.cli", "ppt.ntcore"}
    with pytest.raises(ModuleNotFoundError):
        import ppt.quadext  # noqa: F401 (the scalar tail is in ppt.ntcore)


@pytest.mark.parametrize("code", [
    "from ppt import ppta_inr\nppta_inr(10000000127881)",
    "from ppt.cli import main\nassert main(['find-m', '6368689']) == 0",
    "from ppt.cli import main\nassert main(['poly', '13']) == 0",
])
def test_battery_work_loads_the_whole_battery(code):
    assert BATTERY_MODULES <= _loads(code)


def test_battery_names_rebound_on_algorithms_intercept_the_decider():
    """Rebinding a battery name on ppt.algorithms before the battery loads,
    as perfbench's Tracer.installed() does, intercepts ppta_inr's calls;
    binding the original back restores it."""
    code = (
        "import sys\n"
        "import ppt.algorithms as alg\n"
        "assert 'ppt.checks' not in sys.modules\n"
        "calls, saved = [], {}\n"
        "for name in ('pgpc_check', 'find_qnr_or_m'):\n"
        "    saved[name] = orig = getattr(alg, name)\n"
        "    def spy(*args, name=name, orig=orig):\n"
        "        calls.append(name)\n"
        "        return orig(*args)\n"
        "    setattr(alg, name, spy)\n"
        "traced = alg.ppta_inr(10000000127881)\n"
        "assert calls == ['find_qnr_or_m', 'pgpc_check'], calls\n"
        "for name, orig in saved.items():\n"
        "    setattr(alg, name, orig)\n"
        "assert alg.ppta_inr(10000000127881) == traced and len(calls) == 2\n"
        "assert alg.pgpc_check is sys.modules['ppt.checks'].pgpc_check\n"
        "assert alg.find_qnr_or_m is sys.modules['ppt.canonical'].find_qnr_or_m\n"
    )
    assert BATTERY_MODULES <= _loads(code)


def test_deciding_and_verifying_load_no_dataclasses():
    """import ppt, the four deciders on a scalar n and two battery n, and the
    verification of each certificate load neither dataclasses nor inspect;
    ppt test, find-m and poly do not load them either, nor ppt.harness, json
    or decimal."""
    loaded = _loads(
        "import json, ppt\n"
        "for n in (1000003, 1009, 10000000127881):\n"
        "    for decide in ppt.ALGORITHMS.values():\n"
        "        cert = json.loads(json.dumps(ppt.certificate(decide(n))))\n"
        "        assert cert['outcome'] == 'prime' and ppt.verify_certificate(cert)\n"
    )
    assert {"ppt.algorithms", "ppt.checks", "ppt.polyring"} <= loaded
    assert not loaded & {"dataclasses", "inspect"}
    loaded = _loads(
        "from ppt.cli import main\n"
        "assert main(['test', '1009']) == 0\n"
        "assert main(['find-m', '6368689']) == 0\n"
        "assert main(['poly', '13']) == 0\n"
    )
    assert "ppt.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "ppt.harness",
                         "json", "decimal", "_decimal"}
