"""Unit tests for dataset loading, batch runs, and composite generators."""

import concurrent.futures
import os
import subprocess
import sys

import pytest

import ppt
from ppt.algorithms import ppta_eqnr, ppta_inr
from ppt.harness import (
    CSV_HEADER,
    BatchStats,
    Dataset,
    generate_carmichaels,
    load_dataset,
    run_batch,
    trial_division,
)

from conftest import CARMICHAELS_1E5, NC


class TestLoadDataset:
    def test_mixed_layout(self, tmp_path):
        f = tmp_path / "nums.txt"
        f.write_text("# header comment\n561 1105\n\n  1729\n# tail\n2047\n")
        ds = load_dataset(str(f))
        assert ds.numbers == [561, 1105, 1729, 2047]
        assert ds.source == str(f)

    def test_malformed_token_reports_position(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("561\n1105 xyz\n")
        with pytest.raises(ValueError) as err:
            load_dataset(str(f))
        assert "bad.txt:2" in str(err.value)
        assert "xyz" in str(err.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_dataset(str(tmp_path / "nope.txt"))


class TestTrialDivision:
    def test_classification(self):
        assert trial_division(1).kind == "unit"
        assert trial_division(2).kind == "prime"
        assert trial_division(97).kind == "prime"
        assert trial_division(1000003).kind == "prime"
        out = trial_division(2047)
        assert out.kind == "composite" and out.factor == 23
        out = trial_division(561)
        assert out.kind == "composite" and out.factor == 3
        out = trial_division(49)
        assert out.kind == "composite" and out.factor == 7

    def test_factor_is_smallest_prime(self):
        for n in (15, 77, 91, 221, 437, 899):
            out = trial_division(n)
            assert out.kind == "composite"
            assert n % out.factor == 0
            for d in range(2, out.factor):
                assert n % d != 0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            trial_division(0)
        with pytest.raises(ValueError):
            trial_division(1 << 64)


class TestGenerateCarmichaels:
    def test_frozen_small_lists(self):
        assert generate_carmichaels(2000) == [561, 1105, 1729]
        assert generate_carmichaels(561) == []
        assert generate_carmichaels(562) == [561]

    def test_frozen_list_below_1e5(self):
        assert generate_carmichaels(10**5) == CARMICHAELS_1E5

    def test_members_are_fermat_liars(self):
        for n in generate_carmichaels(10**4):
            assert trial_division(n).kind == "composite"
            for a in (2, 3, 5, 7):
                if n % a:
                    assert pow(a, n - 1, n) == 1, (n, a)

    def test_rejects_excessive_limit(self):
        with pytest.raises(ValueError):
            generate_carmichaels(10**8 + 1)


class TestBatchStats:
    def test_bucket_folding(self):
        stats = BatchStats()
        for n in (561, 1105, 1729):
            stats.update(n, ppta_eqnr(n))
        assert stats.total == 3
        assert stats.composites_found == 3
        assert stats.resolved_by["js_zero_factor"] == 3
        assert stats.needing_search == 3
        assert stats.sum_search_iters == 1 + 2 + 3
        assert stats.max_search_iters == 3
        assert stats.argmax_n == 1729

    def test_argmax_prefers_smallest_attaining_n(self):
        stats = BatchStats()
        stats.update(1729, ppta_eqnr(1729))  # 3 iterations
        stats.update(2465, ppta_eqnr(2465))
        first = stats.argmax_n
        stats2 = BatchStats()
        stats2.update(2465, ppta_eqnr(2465))
        stats2.update(1729, ppta_eqnr(1729))
        assert stats.max_search_iters == stats2.max_search_iters
        if stats.max_search_iters == 3:
            assert first == stats2.argmax_n

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
        stats.composites_found = 24668
        stats.needing_search = 21726
        stats.sum_search_iters = 88255
        stats.max_search_iters = 17
        stats.resolved_by["js_zero_factor"] = 8905
        stats.resolved_by["euler"] = 15575
        stats.resolved_by["bcc"] = 188
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
        stats.composites_found = 3
        stats.needing_search = 3
        stats.sum_search_iters = 6
        stats.max_search_iters = 3
        stats.resolved_by["js_zero_factor"] = 3
        assert stats.row() == (
            "3 | 3 (1.0000), 0 (0.0000), 0 (0.0000) | 3 (1.0000), 2, 3")


class TestRunBatch:
    def test_carmichael_triple_under_eqnr(self):
        ds = Dataset([561, 1105, 1729], "inline")
        stats, rows = run_batch(ds, "eqnr")
        assert stats.total == 3
        assert stats.composites_found == 3
        assert stats.primes_found == 0
        assert rows[-1].endswith("3 (1.0000), 2, 3")

    def test_interval_rows_and_terminal_dedup(self):
        ds = Dataset([561, 1105, 1729, 2047, 2465, 2821], "inline")
        emitted = []
        stats, rows = run_batch(ds, "eqnr", print_every=2,
                                emit=emitted.append)
        assert len(rows) == 3  # 2, 4, 6; final row not repeated
        assert emitted == rows
        stats2, rows2 = run_batch(ds, "eqnr", print_every=4)
        assert len(rows2) == 2  # 4, then terminal 6
        assert stats2.total == 6

    def test_mixed_outcomes_with_inr(self):
        ds = Dataset([25, 97, 569, 1105, NC], "inline")
        stats, _ = run_batch(ds, "inr_pgpc")
        assert stats.primes_found == 2
        assert stats.composites_found == 3
        assert stats.resolved_by["perfect_square"] == 1
        assert stats.resolved_by["trivial_factor"] == 1
        assert stats.resolved_by["pgpc"] == 1

    def test_unit_counted_not_applicable(self):
        stats, _ = run_batch(Dataset([1, 561, 569], "inline"), "eqnr")
        assert stats.total == 3
        assert stats.not_applicable == 1
        assert (stats.primes_found, stats.composites_found) == (1, 1)

    def test_errors_counted_without_aborting(self):
        ds = Dataset([561, 0, 569], "inline")
        stats, _ = run_batch(ds, "eqnr")
        assert stats.errors == 1
        assert stats.total == 2

    def test_parallel_jobs_match_serial(self):
        nums = list(range(3, 400, 2))
        serial, _ = run_batch(Dataset(nums, "s"), "eqnr")
        parallel, _ = run_batch(Dataset(nums, "p"), "eqnr", jobs=2)
        assert serial.total == parallel.total
        assert serial.primes_found == parallel.primes_found
        assert serial.composites_found == parallel.composites_found
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
            data = Dataset(nums[:k], "inline")
            asked.clear()
            got = run_batch(data, "eqnr", print_every=2, jobs=jobs)
            assert asked == want
            assert got == run_batch(data, "eqnr", print_every=2)

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError):
            run_batch(Dataset([9], "x"), "nope")


class TestAlgorithmsAgreeWithTrialDivision:
    def test_carmichaels_to_1e5(self):
        from ppt.algorithms import enhanced_mr
        for n in CARMICHAELS_1E5:
            assert trial_division(n).kind == "composite"
            assert ppta_eqnr(n).outcome.value == "composite"
            assert ppta_inr(n).outcome.value == "composite"
            assert enhanced_mr(n).outcome.value == "composite"


def test_package_loads_the_harness_on_first_use():
    """import ppt leaves ppt.harness unloaded; each harness name the
    package offers still imports from it."""
    code = (
        "import sys, ppt; print('ppt.harness' in sys.modules)\n"
        "from ppt import BatchStats, Dataset, TrialResult, generate_carmichaels\n"
        "from ppt import load_dataset, run_batch, trial_division\n"
        "import ppt.harness as h\n"
        "print(all(getattr(ppt, k) is getattr(h, k) for k in (\n"
        "    'BatchStats', 'Dataset', 'TrialResult', 'generate_carmichaels',\n"
        "    'load_dataset', 'run_batch', 'trial_division')))\n"
        "print(hasattr(ppt, 'CSV_HEADER'))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(ppt.__file__))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.split() == ["False", "True", "False"]


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


def test_deciding_and_verifying_load_no_dataclasses():
    """import ppt, the four deciders on a scalar n and two battery n, and the
    verification of each certificate load neither dataclasses nor inspect;
    ppt test does not load them either, nor ppt.harness."""
    loaded = _loads(
        "import json, ppt\n"
        "for n in (1000003, 1009, 10000000127881):\n"
        "    for decide in ppt.ALGORITHMS.values():\n"
        "        cert = json.loads(json.dumps(ppt.certificate(decide(n))))\n"
        "        assert cert['outcome'] == 'prime' and ppt.verify_certificate(cert)\n"
    )
    assert {"ppt.algorithms", "ppt.checks", "ppt.polyring"} <= loaded
    assert not loaded & {"dataclasses", "inspect"}
    loaded = _loads("from ppt.cli import main\nassert main(['test', '1009']) == 0\n")
    assert "ppt.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "ppt.harness"}
