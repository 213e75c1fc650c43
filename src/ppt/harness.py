"""Batch evaluation: datasets, fold statistics, and reference oracles.

run_batch folds verdicts from one of the registered deciders over a
dataset, accumulating how each composite was resolved and how hard the
non-residue searches worked, and renders run-log rows of the form

    total | js0 (frac), euler (frac), bcc (frac) | searched (frac), avg, max

where the first three fractions are over composites seen so far and the
search fraction is over all cases. trial_division and generate_carmichaels
are deliberately naive reference oracles for cross-checking the deciders.
"""

from __future__ import annotations

import math
import os
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .algorithms import ALGORITHMS, Outcome, Verdict

__all__ = [
    "BatchStats",
    "CSV_HEADER",
    "Dataset",
    "TrialResult",
    "generate_carmichaels",
    "load_dataset",
    "run_batch",
    "trial_division",
]

_BUCKET_BY_KIND = {
    "perfect_square": "perfect_square",
    "jacobi_zero_factor": "js_zero_factor",
    "euler_witness": "euler",
    "binomial_witness": "bcc",
    "even": "trivial_factor",
    "trivial_factor": "trivial_factor",
    "pgpc_violation": "pgpc",
    "mr_nontrivial_root": "mr_witness",
    "fermat_witness": "mr_witness",
}

RESOLUTION_BUCKETS = tuple(dict.fromkeys(_BUCKET_BY_KIND.values()))

CSV_HEADER = (
    "index,js0,js0_frac,ecc,ecc_frac,bcc,bcc_frac,"
    "search,search_frac,avg_iters,max_iters"
)


@dataclass
class BatchStats:
    """Fold state for a batch run; update() is order-dependent only in
    argmax_n, which records the smallest n attaining max_search_iters."""

    total: int = 0
    primes_found: int = 0
    composites_found: int = 0
    inconclusive: int = 0
    not_applicable: int = 0
    errors: int = 0
    needing_search: int = 0
    sum_search_iters: int = 0
    max_search_iters: int = 0
    argmax_n: int = 0
    sum_of_q: int = 0
    q_cases: int = 0
    resolved_by: dict[str, int] = field(
        default_factory=lambda: {k: 0 for k in RESOLUTION_BUCKETS}
    )

    def update(self, n: int, verdict: Verdict) -> None:
        self.total += 1
        if verdict.outcome is Outcome.PRIME:
            self.primes_found += 1
        elif verdict.outcome is Outcome.COMPOSITE:
            self.composites_found += 1
            bucket = _BUCKET_BY_KIND[verdict.mechanism.kind]
            self.resolved_by[bucket] += 1
        elif verdict.outcome is Outcome.INCONCLUSIVE:
            self.inconclusive += 1
        else:
            self.not_applicable += 1
        search = verdict.qnr_search
        if search.needed:
            self.needing_search += 1
            self.sum_search_iters += search.iterations
            it = search.iterations
            if it > self.max_search_iters:
                self.max_search_iters = it
                self.argmax_n = n
            elif it and it == self.max_search_iters and (
                self.argmax_n == 0 or n < self.argmax_n
            ):
                self.argmax_n = n
        if search.q:
            self.q_cases += 1
            self.sum_of_q += search.q

    def _cells(self) -> list[str]:
        """The run-log values in CSV_HEADER order, formatted as printed."""
        comp, total, searched = self.composites_found, self.total, self.needing_search
        cells = [str(total)]
        for bucket in ("js_zero_factor", "euler", "bcc"):
            count = self.resolved_by[bucket]
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


@dataclass
class Dataset:
    numbers: list[int]
    source: str


def load_dataset(path: str) -> Dataset:
    """Whitespace-separated decimal integers; '#' lines are comments."""
    numbers: list[int] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            for tok in stripped.split():
                try:
                    numbers.append(int(tok, 10))
                except ValueError:
                    raise ValueError(
                        f"{path}:{lineno}: malformed integer token {tok!r}"
                    ) from None
    return Dataset(numbers=numbers, source=str(path))


def _worker(args: tuple[str, int]) -> "Verdict | Exception":
    algo, n = args
    try:
        return ALGORITHMS[algo](n)
    except Exception as exc:  # noqa: BLE001 - reported by the caller
        return exc


def _verdicts(
    numbers: Sequence[int], algo: str, jobs: int
) -> Iterable[tuple[int, Verdict | None, Exception | None]]:
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
        for n, res in zip(numbers, results):
            yield (n, None, res) if isinstance(res, Exception) else (n, res, None)


def run_batch(
    dataset: Dataset,
    algo: str = "eqnr",
    print_every: int = 0,
    emit: Callable[[str], None] | None = None,
    jobs: int = 1,
) -> tuple[BatchStats, list[str]]:
    """Fold a decider over a dataset.

    Emits a stats row every print_every cases (0 disables interval rows)
    and a terminal row for the final state; rows go to `emit` as they are
    produced and are also returned. Per-number failures are counted and
    reported to stderr without aborting the batch.
    """
    if algo not in ALGORITHMS:
        raise ValueError(f"run_batch: unknown algorithm {algo!r}")
    if print_every < 0:
        raise ValueError("run_batch: print_every must be >= 0")
    stats = BatchStats()
    rows: list[str] = []

    def emit_row() -> None:
        line = stats.row()
        rows.append(line)
        if emit is not None:
            emit(line)

    last_emitted_at = -1
    for n, verdict, exc in _verdicts(dataset.numbers, algo, jobs):
        if exc is not None:
            stats.errors += 1
            print(f"warning: {n}: {exc}", file=sys.stderr)
        else:
            stats.update(n, verdict)
        seen = stats.total + stats.errors
        if print_every and seen % print_every == 0:
            emit_row()
            last_emitted_at = seen
    if stats.total + stats.errors != last_emitted_at:
        emit_row()
    return stats, rows


@dataclass(frozen=True)
class TrialResult:
    """kind is 'prime', 'composite' (with smallest factor), or 'unit'."""

    kind: str
    factor: int | None = None


_WHEEL = (4, 2, 4, 2, 4, 6, 2, 6)


def trial_division(n: int) -> TrialResult:
    """Ground-truth classification by division up to floor(sqrt(n)).

    Divides by 2, 3, 5 and then by the numbers coprime to 30. Intended as
    an oracle for moderate n; inputs at or above 2**64 are rejected since
    the scan is unbounded there in practice.
    """
    if n < 1:
        raise ValueError("trial_division: n must be >= 1")
    if n >= 1 << 64:
        raise ValueError("trial_division: oracle limited to n < 2**64")
    if n == 1:
        return TrialResult("unit")
    for p in (2, 3, 5):
        if n % p == 0:
            return TrialResult("prime") if n == p else TrialResult("composite", p)
    d = 7
    idx = 0
    while d * d <= n:
        if n % d == 0:
            return TrialResult("composite", d)
        d += _WHEEL[idx]
        idx = (idx + 1) & 7
    return TrialResult("prime")


def generate_carmichaels(limit: int) -> list[int]:
    """All Carmichael numbers below limit (limit <= 10**8).

    Segmented factor sieve: each odd n is divided by the primes up to
    sqrt(limit); survivors must be squarefree composites with p - 1
    dividing n - 1 for every prime factor p.
    """
    if limit > 10**8:
        raise ValueError("generate_carmichaels: limit must be <= 10**8")
    out: list[int] = []
    if limit <= 9:
        return out
    root = math.isqrt(limit - 1)
    sieve = bytearray([1]) * (root + 1)
    base_primes = []
    for p in range(3, root + 1, 2):
        if sieve[p]:
            base_primes.append(p)
            for mult in range(p * p, root + 1, p):
                sieve[mult] = 0
    seg = 1 << 20
    for lo in range(9, limit, seg):
        hi = min(lo + seg, limit)
        start = lo | 1
        if start >= hi:
            continue
        size = (hi - start + 1) // 2
        rem = list(range(start, hi, 2))
        alive = bytearray([1]) * size
        nfac = bytearray(size)
        for p in base_primes:
            m0 = ((start + p - 1) // p) * p
            if not m0 & 1:
                m0 += p
            for m in range(m0, hi, 2 * p):
                i = (m - start) >> 1
                if not alive[i]:
                    continue
                r = rem[i] // p
                if r % p == 0:
                    alive[i] = 0
                    continue
                if (m - 1) % (p - 1):
                    alive[i] = 0
                    continue
                rem[i] = r
                nfac[i] += 1
        for i in range(size):
            if not alive[i]:
                continue
            n = start + 2 * i
            r = rem[i]
            if r == n:
                continue
            count = nfac[i]
            if r > 1:
                if (n - 1) % (r - 1):
                    continue
                count += 1
            if count >= 2:
                out.append(n)
    return out
