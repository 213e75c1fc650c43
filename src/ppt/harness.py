"""Batch evaluation: dataset files, fold statistics, and Carmichael numbers.

run_batch folds verdicts from one of the registered deciders over a list
of integers, counting composites by mechanism kind and how hard the
non-residue searches worked, and hands run-log rows of the form

    total | js0 (frac), euler (frac), bcc (frac) | searched (frac), avg, max

to a caller's emit as they are produced. js0, euler and bcc count the
jacobi_zero_factor, euler_witness and binomial_witness composites, each
a fraction of the composites seen so far; searched, of all cases.
generate_carmichaels is a reference list for cross-checking the deciders:
it sieves Korselt's progressions and calls no decider.
"""

from __future__ import annotations

import os
import sys
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import count, takewhile
from typing import Callable, Iterable, Sequence

from .algorithms import ALGORITHMS, Outcome, Verdict
from .ntcore import _prime

__all__ = [
    "BatchStats",
    "CSV_HEADER",
    "generate_carmichaels",
    "load_dataset",
    "run_batch",
]

CSV_HEADER = (
    "index,js0,js0_frac,ecc,ecc_frac,bcc,bcc_frac,"
    "search,search_frac,avg_iters,max_iters"
)


@dataclass
class BatchStats:
    """Fold state for a batch run: verdicts counted by outcome (outcomes.total()
    in all), composites by mechanism kind. argmax_n is the smallest n attaining
    max_search_iters, so no field depends on the order of updates."""

    errors: int = 0
    needing_search: int = 0
    sum_search_iters: int = 0
    max_search_iters: int = 0
    argmax_n: int = 0
    sum_of_q: int = 0
    q_cases: int = 0
    outcomes: Counter[Outcome] = field(default_factory=Counter)
    resolved_by: Counter[str] = field(default_factory=Counter)

    def update(self, n: int, verdict: Verdict) -> None:
        self.outcomes[verdict.outcome] += 1
        if verdict.mechanism is not None:
            self.resolved_by[verdict.mechanism.kind] += 1
        search = verdict.qnr_search
        if search.needed:
            self.needing_search += 1
            self.sum_search_iters += search.iterations
            it = search.iterations
            if (it, -n) > (self.max_search_iters, -self.argmax_n):
                self.max_search_iters, self.argmax_n = it, n
        if search.q:
            self.q_cases += 1
            self.sum_of_q += search.q

    def _cells(self) -> list[str]:
        """The run-log values in CSV_HEADER order, formatted as printed."""
        total, searched = self.outcomes.total(), self.needing_search
        comp = self.outcomes[Outcome.COMPOSITE]
        cells = [str(total)]
        for kind in ("jacobi_zero_factor", "euler_witness", "binomial_witness"):
            count = self.resolved_by[kind]
            cells += [str(count), f"{count / comp if comp else 0.0:.4f}"]
        avg = self.sum_search_iters / searched if searched else 0.0
        cells += [
            str(searched),
            f"{searched / total if total else 0.0:.4f}",
            f"{avg:.5g}",
            str(self.max_search_iters),
        ]
        return cells

    def row(self) -> str:
        """One run-log row: total | js0, euler, bcc | searched, avg, max."""
        c = self._cells()
        return (
            f"{c[0]} | {c[1]} ({c[2]}), {c[3]} ({c[4]}), {c[5]} ({c[6]}) "
            f"| {c[7]} ({c[8]}), {c[9]}, {c[10]}"
        )

    def csv_row(self) -> str:
        return ",".join(self._cells())


def load_dataset(path: str) -> list[int]:
    """Whitespace-separated unsigned ASCII decimal integers; '#' lines are comments."""
    numbers: list[int] = []
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            for tok in stripped.split():
                if not (tok.isascii() and tok.isdigit()):
                    raise ValueError(f"{path}:{lineno}: malformed integer token {tok!r}")
                if 0 < limit < len(tok):
                    raise ValueError(f"{path}:{lineno}: token of {len(tok)} digits, over {limit}")
                numbers.append(int(tok))
    return numbers


def _worker(args: tuple[str, int]) -> "Verdict | Exception":
    algo, n = args
    try:
        return ALGORITHMS[algo](n)
    except Exception as exc:  # noqa: BLE001 - reported by the caller
        return exc


def _verdicts(
    numbers: Sequence[int], algo: str, jobs: int
) -> Iterable[tuple[int, Verdict | Exception]]:
    tasks = [(algo, n) for n in numbers]
    # A fork pool starts every worker on the first submit: cap them.
    workers = min(jobs, len(numbers), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=workers)
        results = pool.map(_worker, tasks, chunksize=max(1, len(numbers) // (workers * 8)))
    else:
        pool, results = nullcontext(), map(_worker, tasks)
    with pool:
        yield from zip(numbers, results)


def run_batch(
    numbers: Sequence[int],
    algo: str = "eqnr",
    print_every: int = 0,
    emit: Callable[[str], None] | None = None,
    jobs: int = 1,
) -> BatchStats:
    """Fold a decider over numbers and return the final state.

    Hands `emit` a stats row every print_every cases (0 disables interval
    rows) and a terminal row for the final state, as they are produced.
    Per-number failures are counted and reported to stderr without
    aborting the batch.
    """
    if algo not in ALGORITHMS:
        raise ValueError(f"run_batch: unknown algorithm {algo!r}")
    if print_every < 0:
        raise ValueError("run_batch: print_every must be >= 0")
    stats = BatchStats()
    emitted_at = -1
    for n, res in _verdicts(numbers, algo, jobs):
        if isinstance(res, Exception):
            stats.errors += 1
            try:
                name = str(n)
            except ValueError:  # more digits than the int-to-str limit
                name = f"a {n.bit_length()}-bit n"
            print(f"warning: {name}: {res}", file=sys.stderr)
        else:
            stats.update(n, res)
        seen = stats.outcomes.total() + stats.errors
        if emit is not None and print_every and seen % print_every == 0:
            emit(stats.row())
            emitted_at = seen
    if emit is not None and stats.outcomes.total() + stats.errors != emitted_at:
        emit(stats.row())
    return stats


def generate_carmichaels(limit: int) -> list[int]:
    """All Carmichael numbers below limit (limit <= 10**8).

    Korselt's criterion as progressions: every prime p of a Carmichael n
    has p < sqrt(n) and n = p (mod p(p - 1)). So, in segments of odd n,
    each odd prime p below sqrt(limit), read from ntcore's prime list,
    multiplies the slot of every such n from p*p on by p. A slot ends as
    the product of n's primes p with p*p <= n and p - 1 | n - 1, which is
    n exactly when n is a squarefree product of two or more such primes:
    a Carmichael number.
    """
    if limit > 10**8:
        raise ValueError("generate_carmichaels: limit must be <= 10**8")
    primes = list(takewhile(lambda p: p * p < limit, map(_prime, count(1))))
    out: list[int] = []
    seg = 1 << 20
    for lo in range(3, limit, seg):
        odd = range(lo, min(lo + seg, limit), 2)
        slot = [1] * len(odd)
        for p in primes:
            step = p * (p - 1)
            i = (max(p * p, lo + (p - lo) % step) - lo) >> 1
            slot[i::step >> 1] = [s * p for s in slot[i::step >> 1]]
        out += [n for n, s in zip(odd, slot) if s == n]
    return out
